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

using namespace pst;

RegionProfile::RegionProfile(const LoweredFunction &Fn,
                             const ProgramStructureTree &Tree)
    : F(&Fn), T(&Tree), Bodies(FrozenCfg(Fn.Graph), Tree) {
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
  Shapes.resize(T->numRegions());
  for (RegionId R = 0; R < T->numRegions(); ++R) {
    RegionShape &S = Shapes[R];
    CollapsedBody B = Bodies.body(R);
    S.Kind = classifyRegion(B);

    // Classify the body edges by one DFS from Start. Removing the back
    // edges leaves the acyclic skeleton, and reverse postorder is a
    // topological order of it.
    DfsResult Dfs = depthFirstSearch(B.Graph, B.start());
    S.IsBack = backEdges(B.Graph, Dfs);
    for (EdgeId E = 0; E < B.numBodyEdges(); ++E)
      if (S.IsBack[E])
        S.BackCfgEdges.push_back(B.CfgEdge[E]);
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

  // Pass 2, children before parents (region ids are a preorder, so
  // descending ids): inclusive costs and the weighted-DAG span. A region
  // reads only its children's InclusiveCost, so a collapsed child can be
  // priced as one serial unit.
  for (RegionId R = NR; R-- > 0;) {
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
    CollapsedBody B = Bodies.body(R);
    std::vector<double> Weight(B.Graph.numNodes(), 0.0);
    std::vector<double> Depth(Weight.size(), 0.0);
    for (uint32_t Q = 0; Q < B.numNodes(); ++Q)
      Weight[Q] = B.isRegion(Q)
                      ? static_cast<double>(Dyn[B.region(Q)].InclusiveCost)
                      : static_cast<double>(BlockTotal[B.node(Q)] *
                                            BlockCost[B.node(Q)]);
    // Longest path over the acyclic skeleton in topological order. The
    // per-node weights are workload totals, so the result is the total
    // critical-path length summed over all entries (for cyclic regions:
    // over all iterations) — normalizing by the corresponding count gives
    // the per-entry / per-iteration span.
    double Longest = 0.0;
    for (NodeId Q : S.Topo) {
      double Best = 0.0;
      for (EdgeId E : B.Graph.predEdges(Q))
        if (!S.IsBack[E])
          Best = std::max(Best, Depth[B.Graph.source(E)]);
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
