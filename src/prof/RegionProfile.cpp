//===- RegionProfile.cpp - Dynamic region cost profile --------------------------===//
//
// Part of the PST library (see RegionProfile.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/prof/RegionProfile.h"

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
    S.Kind = classifyRegion(V, *T, R);

    // Classify the quotient edges by an iterative three-color DFS from the
    // entry node (unvisited quotient nodes, if any, seed follow-up walks in
    // index order so the classification is total). An edge into a grey
    // node is a back edge — removing exactly those leaves the acyclic
    // skeleton, and the reverse finish order is a topological order of it.
    uint32_t NQ = S.Body.numNodes();
    if (NQ == 0)
      continue;
    std::vector<std::vector<uint32_t>> Out(NQ); // indices into Body.Edges
    for (uint32_t EI = 0; EI < S.Body.Edges.size(); ++EI)
      Out[S.Body.Edges[EI].Src].push_back(EI);

    enum : uint8_t { White, Grey, Black };
    std::vector<uint8_t> Color(NQ, White);
    std::vector<uint8_t> IsBack(S.Body.Edges.size(), 0);
    std::vector<uint32_t> Finish; // quotient nodes in finish order
    Finish.reserve(NQ);
    // Stack frames: (node, next out-edge index to look at).
    std::vector<std::pair<uint32_t, uint32_t>> Stack;
    auto RunFrom = [&](uint32_t Root) {
      Color[Root] = Grey;
      Stack.emplace_back(Root, 0);
      while (!Stack.empty()) {
        auto &[Q, Next] = Stack.back();
        if (Next < Out[Q].size()) {
          uint32_t EI = Out[Q][Next++];
          uint32_t Dst = S.Body.Edges[EI].Dst;
          if (Color[Dst] == Grey) {
            IsBack[EI] = 1;
          } else if (Color[Dst] == White) {
            Color[Dst] = Grey;
            Stack.emplace_back(Dst, 0);
          }
        } else {
          Color[Q] = Black;
          Finish.push_back(Q);
          Stack.pop_back();
        }
      }
    };
    RunFrom(S.Body.EntryQ);
    for (uint32_t Q = 0; Q < NQ; ++Q)
      if (Color[Q] == White)
        RunFrom(Q);

    for (uint32_t EI = 0; EI < S.Body.Edges.size(); ++EI) {
      if (IsBack[EI])
        S.BackCfgEdges.push_back(S.Body.Edges[EI].CfgEdge);
      else
        S.DagEdges.emplace_back(S.Body.Edges[EI].Src, S.Body.Edges[EI].Dst);
    }
    S.Cyclic = !S.BackCfgEdges.empty();
    S.Topo.assign(Finish.rbegin(), Finish.rend());
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
    uint32_t NQ = S.Body.numNodes();
    std::vector<double> Weight(NQ, 0.0), Depth(NQ, 0.0);
    for (uint32_t Q = 0; Q < NQ; ++Q) {
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
    std::vector<std::vector<uint32_t>> DagPreds(NQ);
    for (auto [Src, Dst] : S.DagEdges)
      DagPreds[Dst].push_back(Src);
    double Longest = 0.0;
    for (uint32_t Q : S.Topo) {
      double Best = 0.0;
      for (uint32_t P : DagPreds[Q])
        Best = std::max(Best, Depth[P]);
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
