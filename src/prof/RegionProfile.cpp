//===- RegionProfile.cpp - Dynamic region cost profile --------------------------===//
//
// Part of the PST library (see RegionProfile.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/prof/RegionProfile.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace pst;

RegionProfile::RegionProfile(const LoweredFunction &Fn,
                             const ProgramStructureTree &Tree)
    : F(&Fn), T(&Tree) {
  const Cfg &G = F->Graph;
  BlockCost.resize(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    BlockCost[N] = F->Code[N].size();
  BlockTotal.assign(G.numNodes(), 0);
  EdgeTotal.assign(G.numEdges(), 0);
  Dyn.assign(T->numRegions(), RegionDynamics{});
  computeShapes();
}

void RegionProfile::computeShapes() {
  FrozenCfg V(F->Graph);
  Shapes.resize(T->numRegions());
  for (RegionId R = 0; R < T->numRegions(); ++R) {
    RegionShape &S = Shapes[R];
    S.Body = collapseRegion(V, *T, R);
    S.Kind = classifyRegion(S.Body);

    // Classify the body edges by one DFS from Start. Removing the back
    // edges leaves the acyclic skeleton, and reverse postorder is a
    // topological order of it.
    const CfgView &BV = S.Body.view();
    DfsResult Dfs = depthFirstSearch(BV, S.Body.start());
    S.IsBack = backEdges(BV, Dfs);
    for (EdgeId E = 0; E < S.Body.numBodyEdges(); ++E)
      if (S.IsBack[E])
        S.BackCfgEdges.push_back(S.Body.CfgEdge[E]);
    S.Cyclic = !S.BackCfgEdges.empty();
    S.Topo.assign(Dfs.Postorder.rbegin(), Dfs.Postorder.rend());
  }
}

bool RegionProfile::addRun(const CfgExecResult &Run) {
  const Cfg &G = F->Graph;
  if (!Run.Finished || Run.BlockCounts.size() != G.numNodes() ||
      Run.EdgeCounts.size() != G.numEdges())
    return false;

  PST_SPAN("prof.attribute");
  ++NumRuns;
  TotalSteps += Run.Steps;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    BlockTotal[N] += Run.BlockCounts[N];
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    EdgeTotal[E] += Run.EdgeCounts[E];

  // Per-run loop trip samples: one ValueStats sample per cyclic region the
  // run entered, of that run's iteration total.
  for (RegionId R = 0; R < T->numRegions(); ++R) {
    const RegionShape &S = Shapes[R];
    if (!S.Cyclic)
      continue;
    uint64_t RunEntries =
        R == T->root() ? 1 : Run.EdgeCounts[T->region(R).EntryEdge];
    if (!RunEntries)
      continue;
    uint64_t Iters = RunEntries;
    for (EdgeId E : S.BackCfgEdges)
      Iters += Run.EdgeCounts[E];
    Dyn[R].RunIterations.record(Iters);
  }
  PST_COUNTER("prof.attribute.runs", 1);
  Finalized = false;
  return true;
}

CfgExecResult RegionProfile::runAndAdd(const std::vector<int64_t> &Args,
                                       uint64_t MaxSteps) {
  CfgExecResult Run = runLowered(*F, Args, MaxSteps, /*CountEdges=*/true);
  addRun(Run);
  return Run;
}

void RegionProfile::finalize() {
  PST_SPAN("prof.attribute");
  uint32_t NR = T->numRegions();

  // Pass 1: per-region counts that need no child information.
  for (RegionId R = 0; R < NR; ++R) {
    RegionDynamics &D = Dyn[R];
    const RegionShape &S = Shapes[R];
    D.Cyclic = S.Cyclic;
    D.Kind = S.Kind;
    if (R == T->root()) {
      D.Entries = D.Exits = NumRuns;
    } else {
      D.Entries = EdgeTotal[T->region(R).EntryEdge];
      D.Exits = EdgeTotal[T->region(R).ExitEdge];
    }
    D.SelfCost = 0;
    for (NodeId N : T->immediateNodes(R))
      D.SelfCost += BlockTotal[N] * BlockCost[N];
    D.Iterations = 0;
    if (S.Cyclic) {
      D.Iterations = D.Entries;
      for (EdgeId E : S.BackCfgEdges)
        D.Iterations += EdgeTotal[E];
    }
  }

  // Pass 2, innermost regions first (depth descending, id ascending within
  // a depth): inclusive costs and the weighted-DAG span. When a region is
  // processed every deeper region already carries its InclusiveCost, so a
  // collapsed child can be priced as one serial unit.
  std::vector<RegionId> ByDepth(NR);
  std::iota(ByDepth.begin(), ByDepth.end(), 0);
  std::stable_sort(ByDepth.begin(), ByDepth.end(), [&](RegionId A, RegionId B) {
    return T->region(A).Depth > T->region(B).Depth;
  });

  for (RegionId R : ByDepth) {
    RegionDynamics &D = Dyn[R];
    const RegionShape &S = Shapes[R];
    D.InclusiveCost = D.SelfCost;
    for (RegionId C : T->children(R))
      D.InclusiveCost += Dyn[C].InclusiveCost;

    D.SpanPerEntry = 0;
    if (!D.Entries)
      continue;

    // Total weight of one quotient node across the whole workload: a block
    // contributes its dynamic instructions; a collapsed child contributes
    // its inclusive cost (serial — its own parallelism is *its* score).
    // Start and End weigh nothing.
    const CfgView &BV = S.Body.view();
    std::vector<double> Weight(BV.numNodes(), 0.0), Depth(BV.numNodes(), 0.0);
    for (uint32_t Q = 0; Q < S.Body.numNodes(); ++Q) {
      const CollapsedBody::QNode &QN = S.Body.Nodes[Q];
      Weight[Q] = QN.IsRegion
                      ? static_cast<double>(Dyn[QN.Region].InclusiveCost)
                      : static_cast<double>(BlockTotal[QN.Node] *
                                            BlockCost[QN.Node]);
    }
    // Longest path over the acyclic skeleton in topological order. The
    // per-node weights are workload totals, so the result is the total
    // critical-path length summed over all entries (for cyclic regions:
    // over all iterations) — normalizing by the corresponding count gives
    // the per-entry / per-iteration span.
    double Longest = 0.0;
    for (NodeId Q : S.Topo) {
      double Best = 0.0;
      for (EdgeId E : BV.predEdges(Q))
        if (!S.IsBack[E])
          Best = std::max(Best, Depth[BV.source(E)]);
      Depth[Q] = Best + Weight[Q];
      Longest = std::max(Longest, Depth[Q]);
    }
    uint64_t Normalizer = S.Cyclic ? D.Iterations : D.Entries;
    if (Normalizer)
      D.SpanPerEntry = Longest / static_cast<double>(Normalizer);
  }

  PST_COUNTER("prof.attribute.regions", NR);
  PST_VALUE("prof.attribute.work", TotalSteps);
  Finalized = true;
}

const RegionDynamics &RegionProfile::dynamics(RegionId R) const {
  assert(Finalized && "finalize() the profile before reading dynamics");
  return Dyn[R];
}
