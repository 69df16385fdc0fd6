//===- time_incremental_pst.cpp - incremental vs from-scratch PST ------------===//
//
// The incremental-maintenance claim: for an edit confined to a small
// canonical region of a large CFG, IncrementalPst rebuilds only that
// region's subtree, so a commit costs O(dirty region) instead of the
// O(N + E) a from-scratch ProgramStructureTree::build pays. We time a
// steady-state single-edit loop (insert a parallel edge deep in the
// structure, commit, delete it, commit) on >= 1000-block structured CFGs
// and a goto-heavy random CFG, against the from-scratch baseline doing the
// same edits, plus a batch-size sweep showing commit coalescing. Each
// incremental benchmark reports stats()-derived counters; reprocess_ratio
// is NodesReprocessed / FullRecomputeNodes and must stay well below 1.
//
//===----------------------------------------------------------------------===//

#include "pst/incremental/IncrementalPst.h"
#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"
#include "pst/workload/CfgGenerators.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <string_view>

using namespace pst;

namespace {

// All families sized >= 1000 blocks.
Cfg makeDiamonds() { return diamondLadderCfg(250); }     // 1002 nodes
Cfg makeLoopNest() { return nestedWhileCfg(499, 4); }    // 1004 nodes
Cfg makeGotoHeavy() {
  Rng R(7);
  RandomCfgOptions Opts;
  Opts.NumNodes = 1000;
  Opts.NumExtraEdges = 400;
  return randomBackboneCfg(R, Opts);
}

/// A steady-state edit site: both endpoints of an existing edge deep in
/// the tree, so inserting a parallel copy dirties a small region.
struct EditSite {
  NodeId Src, Dst;
};

EditSite deepestEditSite(const DynamicCfg &DG, const IncrementalPst &IP) {
  RegionId Best = IP.root();
  for (RegionId R : IP.liveRegions())
    if (!IP.immediateNodes(R).empty() && IP.depth(R) > IP.depth(Best))
      Best = R;
  NodeId V = Best == IP.root() ? DG.graph().target(
                                     DG.graph().succEdges(DG.entry())[0])
                               : IP.immediateNodes(Best).front();
  for (EdgeId E : DG.graph().succEdges(V))
    if (DG.edgeLive(E))
      return {V, DG.graph().target(E)};
  return {V, V};
}

void reportStats(benchmark::State &State, const IncrementalPst &IP) {
  const IncrementalPstStats &S = IP.stats();
  State.counters["reprocess_ratio"] = S.reprocessRatio();
  State.counters["nodes_per_commit"] =
      S.Commits ? static_cast<double>(S.NodesReprocessed) / S.Commits : 0.0;
  State.counters["full_rebuilds"] = static_cast<double>(S.FullRebuilds);
  State.counters["subtree_rebuilds"] = static_cast<double>(S.SubtreesRebuilt);
}

/// insert parallel edge -> commit -> delete it -> commit. Two commits per
/// iteration; the graph returns to its starting shape each time (modulo
/// tombstones).
void singleEditLoop(benchmark::State &State, Cfg G) {
  DynamicCfg DG(std::move(G));
  IncrementalPst IP(DG);
  EditSite Site = deepestEditSite(DG, IP);
  for (auto _ : State) {
    EdgeId E = IP.insertEdge(Site.Src, Site.Dst);
    IP.commit();
    IP.deleteEdge(E);
    IP.commit();
    benchmark::DoNotOptimize(IP.numCanonicalRegions());
  }
  reportStats(State, IP);
}

/// The same edits, paying a from-scratch build per commit point.
void fromScratchLoop(benchmark::State &State, Cfg G) {
  DynamicCfg DG(std::move(G));
  IncrementalPst Probe(DG); // Only used to pick the same edit site.
  EditSite Site = deepestEditSite(DG, Probe);
  uint64_t Regions = 0;
  for (auto _ : State) {
    EdgeId E = DG.insertEdge(Site.Src, Site.Dst);
    ProgramStructureTree T1 =
        ProgramStructureTree::build(FrozenCfg(DG.materialize()));
    DG.deleteEdgeUnchecked(E);
    ProgramStructureTree T2 =
        ProgramStructureTree::build(FrozenCfg(DG.materialize()));
    Regions += T1.numRegions() + T2.numRegions();
  }
  benchmark::DoNotOptimize(Regions);
}

void BM_IncrementalDiamonds(benchmark::State &State) {
  singleEditLoop(State, makeDiamonds());
}
void BM_FromScratchDiamonds(benchmark::State &State) {
  fromScratchLoop(State, makeDiamonds());
}
void BM_IncrementalLoopNest(benchmark::State &State) {
  singleEditLoop(State, makeLoopNest());
}
void BM_FromScratchLoopNest(benchmark::State &State) {
  fromScratchLoop(State, makeLoopNest());
}
void BM_IncrementalGotoHeavy(benchmark::State &State) {
  singleEditLoop(State, makeGotoHeavy());
}
void BM_FromScratchGotoHeavy(benchmark::State &State) {
  fromScratchLoop(State, makeGotoHeavy());
}

/// Batch coalescing sweep: B parallel-arm edits spread over B distinct
/// diamonds, one commit; then the B deletes, one commit. Per-edit commit
/// cost should fall as B grows (shared traversals), while reprocess_ratio
/// stays proportional to the number of distinct dirty subtrees.
void BM_IncrementalBatch(benchmark::State &State) {
  uint32_t B = static_cast<uint32_t>(State.range(0));
  DynamicCfg DG(makeDiamonds());
  IncrementalPst IP(DG);

  // One edit site per diamond: every node with two successors is a cond.
  std::vector<EditSite> Sites;
  for (NodeId N = 0; N < DG.numNodes() && Sites.size() < B; ++N)
    if (DG.graph().succEdges(N).size() == 2)
      Sites.push_back({N, DG.graph().target(DG.graph().succEdges(N)[0])});

  std::vector<EdgeId> Inserted;
  for (auto _ : State) {
    Inserted.clear();
    for (const EditSite &S : Sites)
      Inserted.push_back(IP.insertEdge(S.Src, S.Dst));
    IP.commit();
    for (EdgeId E : Inserted)
      IP.deleteEdge(E);
    IP.commit();
    benchmark::DoNotOptimize(IP.numCanonicalRegions());
  }
  reportStats(State, IP);
  State.counters["batch"] = B;
}

} // namespace

BENCHMARK(BM_IncrementalDiamonds);
BENCHMARK(BM_FromScratchDiamonds);
BENCHMARK(BM_IncrementalLoopNest);
BENCHMARK(BM_FromScratchLoopNest);
BENCHMARK(BM_IncrementalGotoHeavy);
BENCHMARK(BM_FromScratchGotoHeavy);
BENCHMARK(BM_IncrementalBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// BENCHMARK_MAIN plus two pst/obs flags (both stripped before
// google-benchmark sees the arguments):
//   --telemetry        enable the probes; print the counter/timer dump
//                      afterwards, so a bench run shows *where* commit time
//                      goes (subtree rebuild vs cycleequiv vs splice).
//   --trace-out <f>    additionally retain spans and write a chrome-trace
//                      file; the incremental spans carry a "batch" arg (the
//                      commit sequence number), so individual edit batches
//                      can be picked out on the timeline.
int main(int argc, char **argv) {
  bool WantTelemetry = false;
  std::string TraceFile;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--telemetry") {
      WantTelemetry = true;
    } else if (A == "--trace-out") {
      if (I + 1 >= argc) {
        std::cerr << "error: --trace-out needs a file argument\n";
        return 1;
      }
      TraceFile = argv[++I];
    } else {
      argv[Kept++] = argv[I];
    }
  }
  argc = Kept;
  if (WantTelemetry || !TraceFile.empty())
    Telemetry::setEnabled(true);
  if (!TraceFile.empty())
    Telemetry::setTraceEnabled(true);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!TraceFile.empty()) {
    TraceWriter Writer;
    if (!Writer.writeFile(TraceFile)) {
      std::cerr << "error: cannot write trace to '" << TraceFile << "'\n";
      return 1;
    }
    std::cout << "wrote chrome trace to " << TraceFile << "\n";
  }
  if (WantTelemetry)
    std::cout << "\n-- telemetry --\n"
              << TelemetryRegistry::global().toJson();
  return 0;
}
