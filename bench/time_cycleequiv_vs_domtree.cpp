//===- time_cycleequiv_vs_domtree.cpp - Section 3 timing claim --------------------===//
//
// The paper: "our empirical results show that it runs faster than
// Lengauer and Tarjan's algorithm for finding dominators". This bench
// times, on the same graphs, the full cycle equivalence pass (which also
// pays for the artificial return edge and undirected bookkeeping) against
// both dominator builders.
//
//===----------------------------------------------------------------------===//

#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dom/Dominators.h"
#include "pst/workload/CfgGenerators.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

/// A mixed-shape graph: structured skeleton plus random extra edges —
/// roughly the edge/node ratio of real block-level CFGs (~1.5 edges per
/// node).
Cfg makeGraph(uint32_t Nodes, uint64_t Seed) {
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = Nodes;
  Opts.NumExtraEdges = Nodes / 2;
  Opts.SelfLoopProb = 0.02;
  Opts.ParallelProb = 0.02;
  return randomBackboneCfg(R, Opts);
}

void BM_CycleEquiv(benchmark::State &State) {
  FrozenCfg G(makeGraph(static_cast<uint32_t>(State.range(0)), 7));
  for (auto _ : State) {
    CycleEquivResult R = computeCycleEquivalence(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
  State.SetItemsProcessed(State.iterations() * G.view().numEdges());
}

void BM_DomLengauerTarjan(benchmark::State &State) {
  FrozenCfg G(makeGraph(static_cast<uint32_t>(State.range(0)), 7));
  for (auto _ : State) {
    DomTree T = DomTree::buildLengauerTarjan(G);
    benchmark::DoNotOptimize(T.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * G.view().numEdges());
}

void BM_DomIterative(benchmark::State &State) {
  FrozenCfg G(makeGraph(static_cast<uint32_t>(State.range(0)), 7));
  for (auto _ : State) {
    DomTree T = DomTree::buildIterative(G);
    benchmark::DoNotOptimize(T.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * G.view().numEdges());
}

void BM_CycleEquivNestedLoops(benchmark::State &State) {
  FrozenCfg G(nestedWhileCfg(static_cast<uint32_t>(State.range(0)), 4));
  for (auto _ : State) {
    CycleEquivResult R = computeCycleEquivalence(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_DomLTNestedLoops(benchmark::State &State) {
  FrozenCfg G(nestedWhileCfg(static_cast<uint32_t>(State.range(0)), 4));
  for (auto _ : State) {
    DomTree T = DomTree::buildLengauerTarjan(G);
    benchmark::DoNotOptimize(T.numNodes());
  }
}

} // namespace

BENCHMARK(BM_CycleEquiv)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DomLengauerTarjan)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DomIterative)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_CycleEquivNestedLoops)->Arg(2000)->Arg(20000);
BENCHMARK(BM_DomLTNestedLoops)->Arg(2000)->Arg(20000);

BENCHMARK_MAIN();
