//===- time_ssa_placement.cpp - Section 6.1 timing claim ----------------------------===//
//
// Section 6.1: PST-based phi placement avoids the quadratic dominance-
// frontier blowup on nested repeat-until loops and skips regions without
// definitions. We time classic iterated-DF placement against the
// PST-based divide-and-conquer on:
//
//  * the nested repeat-until family (the worst case cited from [CFR+91]),
//  * generated mostly-structured procedures (the corpus shape).
//
// The PST build itself is timed separately so the comparison is honest
// about setup costs.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/lang/Lower.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/ProgramGenerator.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

/// Wraps a bare CFG family in a LoweredFunction with one variable defined
/// in every block (the all-blocks-define worst case for placement).
LoweredFunction syntheticFunction(Cfg G) {
  LoweredFunction F;
  F.Name = "synthetic";
  F.VarNames = {"x"};
  F.Code.resize(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    Instruction I;
    I.K = Instruction::Kind::Assign;
    I.Def = 0;
    I.Uses = {0};
    I.Text = "x = x";
    F.Code[N].push_back(std::move(I));
  }
  F.Graph = std::move(G);
  return F;
}

LoweredFunction generated(uint64_t Seed, uint32_t Stmts) {
  Rng R(Seed);
  ProgramGenOptions Opts;
  Opts.TargetStatements = Stmts;
  Opts.NumVars = 12;
  Function Fn = generateFunction(R, Opts, "bench");
  auto L = lowerFunction(Fn);
  return std::move(*L);
}

void BM_ClassicNestedRepeatUntil(benchmark::State &State) {
  LoweredFunction F = syntheticFunction(
      nestedRepeatUntilCfg(static_cast<uint32_t>(State.range(0))));
  FrozenCfg V(F.Graph);
  for (auto _ : State) {
    PhiPlacement P = placePhisClassic(F, V);
    benchmark::DoNotOptimize(P.PhiBlocks.size());
  }
}

void BM_PstNestedRepeatUntil(benchmark::State &State) {
  LoweredFunction F = syntheticFunction(
      nestedRepeatUntilCfg(static_cast<uint32_t>(State.range(0))));
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (auto _ : State) {
    PhiPlacement P = placePhisPst(F, V, T);
    benchmark::DoNotOptimize(P.PhiBlocks.size());
  }
}

void BM_PstBuildNestedRepeatUntil(benchmark::State &State) {
  FrozenCfg G(nestedRepeatUntilCfg(static_cast<uint32_t>(State.range(0))));
  for (auto _ : State) {
    ProgramStructureTree T = ProgramStructureTree::build(G);
    benchmark::DoNotOptimize(T.numRegions());
  }
}

void BM_ClassicGenerated(benchmark::State &State) {
  LoweredFunction F = generated(3, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  for (auto _ : State) {
    PhiPlacement P = placePhisClassic(F, V);
    benchmark::DoNotOptimize(P.PhiBlocks.size());
  }
}

void BM_PstGenerated(benchmark::State &State) {
  LoweredFunction F = generated(3, static_cast<uint32_t>(State.range(0)));
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (auto _ : State) {
    PhiPlacement P = placePhisPst(F, V, T);
    benchmark::DoNotOptimize(P.PhiBlocks.size());
  }
}

} // namespace

BENCHMARK(BM_ClassicNestedRepeatUntil)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_PstNestedRepeatUntil)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_PstBuildNestedRepeatUntil)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_ClassicGenerated)->Arg(500)->Arg(5000);
BENCHMARK(BM_PstGenerated)->Arg(500)->Arg(5000);

BENCHMARK_MAIN();
