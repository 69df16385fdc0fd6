//===- time_dataflow.cpp - Section 6.2 timing comparison ----------------------------===//
//
// Section 6.2 ablation: whole-CFG iterative dataflow versus the PST
// elimination solver versus the sparse QPG solve, on single-instance
// availability problems (where the QPG shines because most of the graph
// is transparent) and on the multi-bit problems (where elimination
// amortizes region summaries).
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/workload/ProgramGenerator.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

LoweredFunction generated(uint64_t Seed, uint32_t Stmts) {
  Rng R(Seed);
  ProgramGenOptions Opts;
  Opts.TargetStatements = Stmts;
  Opts.NumVars = 16;
  Function Fn = generateFunction(R, Opts, "bench");
  auto L = lowerFunction(Fn);
  return std::move(*L);
}

void BM_IterativeSingleExpr(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  for (auto _ : State) {
    DataflowSolution S = solveIterative(V, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_QpgSingleExpr(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (auto _ : State) {
    EdgeSolution S = solveOnQpg(V, T, P);
    benchmark::DoNotOptimize(S.EdgeValue.size());
  }
}

void BM_QpgBuildOnly(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (auto _ : State) {
    Qpg Q = buildQpg(V, T, P);
    benchmark::DoNotOptimize(Q.numNodes());
  }
}

// The paper's [CCF91] comparison: SEGs end up smaller but need dominance
// frontiers, making them costlier per instance than the PST-backed QPG.
void BM_SegBuildOnly(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  DomTree DT = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, DT);
  for (auto _ : State) {
    Seg S = buildSeg(V, DF, P);
    benchmark::DoNotOptimize(S.numNodes());
  }
}

void BM_SegBuildWithFrontiers(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  for (auto _ : State) {
    DomTree DT = DomTree::buildIterative(V);
    DominanceFrontiers DF(V, DT);
    Seg S = buildSeg(V, DF, P);
    benchmark::DoNotOptimize(S.numNodes());
  }
}

void BM_IterativeReachingDefs(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  BitVectorProblem P = makeReachingDefs(F);
  for (auto _ : State) {
    DataflowSolution S = solveIterative(V, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_EliminationReachingDefs(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  BitVectorProblem P = makeReachingDefs(F);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (auto _ : State) {
    DataflowSolution S = solveElimination(V, T, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_PstBuildGenerated(benchmark::State &State) {
  LoweredFunction F = generated(5, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  for (auto _ : State) {
    ProgramStructureTree T = ProgramStructureTree::build(V);
    benchmark::DoNotOptimize(T.numRegions());
  }
}

} // namespace

BENCHMARK(BM_IterativeSingleExpr)->Arg(1000)->Arg(10000);
BENCHMARK(BM_QpgSingleExpr)->Arg(1000)->Arg(10000);
BENCHMARK(BM_QpgBuildOnly)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SegBuildOnly)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SegBuildWithFrontiers)->Arg(1000)->Arg(10000);
BENCHMARK(BM_IterativeReachingDefs)->Arg(1000)->Arg(5000);
BENCHMARK(BM_EliminationReachingDefs)->Arg(1000)->Arg(5000);
BENCHMARK(BM_PstBuildGenerated)->Arg(1000)->Arg(10000);

BENCHMARK_MAIN();
