//===- time_control_regions.cpp - Section 5 timing claim ---------------------------===//
//
// The paper's control-regions claim: the O(E) cycle-equivalence algorithm
// beats previous approaches — it is even "faster than dominator
// computation, the first step in all previous algorithms". We time:
//
//  * the linear algorithm (node expansion + cycle equivalence),
//  * just a postdominator tree (the first step of FOW/CFS/Ball),
//  * the FOW-style baseline (materialize CD sets, hash),
//  * the CFS90-style refinement baseline (O(EN) worst case),
//
// on branch-heavy graphs and on an adversarial family (deep diamond
// nesting) where the CD relation is large.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/dom/Dominators.h"
#include "pst/workload/CfgGenerators.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

Cfg makeBranchy(uint32_t Nodes, uint64_t Seed) {
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = Nodes;
  Opts.NumExtraEdges = Nodes; // Branch-heavy: ~2 edges per node.
  Opts.SelfLoopProb = 0.01;
  Opts.ParallelProb = 0.01;
  return randomBackboneCfg(R, Opts);
}

/// Nested repeat-until loops: every body node is control dependent on all
/// enclosing until-branches, so the materialized CD relation is
/// Theta(N^2) — the case that separates O(E) from O(EN).
Cfg makeAdversarial(uint32_t Depth) { return nestedRepeatUntilCfg(Depth); }

void BM_ControlRegionsLinear(benchmark::State &State) {
  FrozenCfg G(makeBranchy(static_cast<uint32_t>(State.range(0)), 11));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsLinear(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_ControlRegionsImplicit(benchmark::State &State) {
  FrozenCfg G(makeBranchy(static_cast<uint32_t>(State.range(0)), 11));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsLinearImplicit(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_PostDomOnly(benchmark::State &State) {
  FrozenCfg G(makeBranchy(static_cast<uint32_t>(State.range(0)), 11));
  for (auto _ : State) {
    DomTree T = DomTree::buildPostDom(G);
    benchmark::DoNotOptimize(T.numNodes());
  }
}

void BM_ControlRegionsFOW(benchmark::State &State) {
  FrozenCfg G(makeBranchy(static_cast<uint32_t>(State.range(0)), 11));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsFOW(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_ControlRegionsRefinement(benchmark::State &State) {
  FrozenCfg G(makeBranchy(static_cast<uint32_t>(State.range(0)), 11));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsRefinement(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_LinearAdversarial(benchmark::State &State) {
  FrozenCfg G(makeAdversarial(static_cast<uint32_t>(State.range(0))));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsLinear(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

void BM_FOWAdversarial(benchmark::State &State) {
  FrozenCfg G(makeAdversarial(static_cast<uint32_t>(State.range(0))));
  for (auto _ : State) {
    ControlRegionsResult R = computeControlRegionsFOW(G);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}

} // namespace

BENCHMARK(BM_ControlRegionsLinear)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_ControlRegionsImplicit)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_PostDomOnly)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_ControlRegionsFOW)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_ControlRegionsRefinement)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_LinearAdversarial)->Arg(500)->Arg(2000);
BENCHMARK(BM_FOWAdversarial)->Arg(500)->Arg(2000);

BENCHMARK_MAIN();
