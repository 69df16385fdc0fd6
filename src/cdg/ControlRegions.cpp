//===- ControlRegions.cpp - Control regions in O(E) ---------------------------===//
//
// Part of the PST library (see ControlDependence.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"

#include "pst/cdg/ControlDependence.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/cycleequiv/CycleEquivBrute.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace pst;

/// T(G) without labels: representative edges first, so that node V's
/// representative edge has EdgeId V.
static Cfg expandNodes(const CfgView &V) {
  Cfg H;
  uint32_t N = V.numNodes();
  H.reserveNodes(2 * N);
  H.reserveEdges(N + V.numEdges() + 1);
  for (NodeId X = 0; X < 2 * N; ++X)
    H.addNode();
  for (NodeId X = 0; X < N; ++X)
    H.addEdge(2 * X, 2 * X + 1);
  for (EdgeId E = 0; E < V.numEdges(); ++E)
    H.addEdge(2 * V.source(E) + 1, 2 * V.target(E));
  H.setEntry(2 * V.entry());
  H.setExit(2 * V.exit() + 1);
  return H;
}

Cfg pst::nodeExpand(const Cfg &G) {
  Cfg H = expandNodes(FrozenCfg(G));
  for (NodeId V = 0; V < G.numNodes(); ++V) {
    H.setNodeLabel(2 * V, G.nodeName(V) + "_i");
    H.setNodeLabel(2 * V + 1, G.nodeName(V) + "_o");
  }
  return H;
}

/// Renumbers a raw class vector densely in first-occurrence order.
static ControlRegionsResult densify(std::vector<uint32_t> Raw) {
  ControlRegionsResult R;
  R.NodeClass = canonicalizePartition(Raw);
  uint32_t Max = 0;
  for (uint32_t C : R.NodeClass)
    Max = std::max(Max, C + 1);
  R.NumClasses = Max;
  return R;
}

ControlRegionsResult pst::computeControlRegionsLinear(const CfgView &V) {
  PST_SPAN("cdg.control_regions");
  // T(S): expand nodes, then close with the return edge end_o -> start_i.
  Cfg H = expandNodes(V);
  H.addEdge(2 * V.exit() + 1, 2 * V.entry());
  CycleEquivResult CE =
      computeCycleEquivalence(FrozenCfg(H), /*AddReturnEdge=*/false);

  std::vector<uint32_t> Raw(V.numNodes());
  for (NodeId X = 0; X < V.numNodes(); ++X)
    Raw[X] = CE.classOf(X); // Representative edge of X has EdgeId X.
  ControlRegionsResult R = densify(std::move(Raw));
  PST_COUNTER("cdg.runs", 1);
  PST_COUNTER("cdg.classes", R.NumClasses);
  return R;
}

ControlRegionsResult pst::controlRegionsFromClasses(const CycleEquivClasses &C,
                                                    CycleEquivScratch &S) {
  ControlRegionsResult R;
  R.NodeClass.resize(C.NodeClass.size());
  S.ClassRemap.assign(C.NumClasses, UINT32_MAX);
  uint32_t Next = 0;
  for (size_t W = 0; W < C.NodeClass.size(); ++W) {
    uint32_t &Dense = S.ClassRemap[C.NodeClass[W]];
    if (Dense == UINT32_MAX)
      Dense = Next++;
    R.NodeClass[W] = Dense;
  }
  R.NumClasses = Next;
  PST_COUNTER("cdg.runs", 1);
  PST_COUNTER("cdg.classes", R.NumClasses);
  return R;
}

ControlRegionsResult pst::computeControlRegionsLinearImplicit(
    const CfgView &V, ControlRegionsScratch &S) {
  PST_SPAN("cdg.control_regions");
  return controlRegionsFromClasses(computeCycleEquivalencePartialTs(V, S), S);
}

ControlRegionsResult
pst::computeControlRegionsLinearImplicit(const CfgView &V) {
  ControlRegionsScratch Scratch;
  return computeControlRegionsLinearImplicit(V, Scratch);
}

ControlRegionsResult pst::computeControlRegionsFOW(const CfgView &G) {
  ControlDependence CD(G);
  // Group nodes by their full dependence set. A std::map keyed by the
  // sorted vector stands in for FOW's hashing; the cost that matters (and
  // that the bench shows) is materializing the O(N*E) relation.
  std::map<std::vector<EdgeId>, uint32_t> Classes;
  std::vector<uint32_t> Raw(G.numNodes());
  for (NodeId V = 0; V < G.numNodes(); ++V) {
    auto It = Classes.try_emplace(CD.dependences(V),
                                  static_cast<uint32_t>(Classes.size()))
                  .first;
    Raw[V] = It->second;
  }
  return densify(std::move(Raw));
}

ControlRegionsResult pst::computeControlRegionsRefinement(const CfgView &G) {
  uint32_t N = G.numNodes();
  ControlDependence CD(G);

  // CFS90: all nodes start in one class; each control dependence direction
  // (edge) splits every class into dependent / non-dependent halves.
  std::vector<uint32_t> Class(N, 0);
  uint32_t NumClasses = 1;
  std::vector<uint32_t> SplitOf; // Per original class, its new half.
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    const std::vector<NodeId> &S = CD.dependents(E);
    if (S.empty())
      continue;
    SplitOf.assign(NumClasses, UINT32_MAX);
    for (NodeId V : S) {
      uint32_t C = Class[V];
      if (SplitOf[C] == UINT32_MAX)
        SplitOf[C] = NumClasses++;
      Class[V] = SplitOf[C];
    }
    // Classes whose every member moved should collapse back; detecting
    // that lazily costs another pass, so we simply renumber at the end
    // (empty originals disappear in densify).
  }
  return densify(std::move(Class));
}

ControlRegionsResult pst::computeNodeCycleEquivalenceBrute(const Cfg &G) {
  Cfg S = withReturnEdge(G);
  uint32_t N = S.numNodes();

  // existsCycleThroughNodeAvoidingNode(a, b): a non-empty closed walk
  // through a that never visits b.
  auto ExistsCycleAvoiding = [&](NodeId A, NodeId B) {
    if (A == B)
      return false;
    std::vector<bool> Seen(N, false);
    std::vector<NodeId> Work;
    for (EdgeId E : S.succEdges(A)) {
      NodeId W = S.target(E);
      if (W == A)
        return true; // Self loop.
      if (W != B && !Seen[W]) {
        Seen[W] = true;
        Work.push_back(W);
      }
    }
    while (!Work.empty()) {
      NodeId V = Work.back();
      Work.pop_back();
      for (EdgeId E : S.succEdges(V)) {
        NodeId W = S.target(E);
        if (W == A)
          return true;
        if (W != B && !Seen[W]) {
          Seen[W] = true;
          Work.push_back(W);
        }
      }
    }
    return false;
  };

  auto NodeEquiv = [&](NodeId A, NodeId B) {
    return !ExistsCycleAvoiding(A, B) && !ExistsCycleAvoiding(B, A);
  };

  std::vector<uint32_t> Raw(G.numNodes(), UINT32_MAX);
  uint32_t Next = 0;
  for (NodeId A = 0; A < G.numNodes(); ++A) {
    if (Raw[A] != UINT32_MAX)
      continue;
    uint32_t C = Next++;
    Raw[A] = C;
    for (NodeId B = A + 1; B < G.numNodes(); ++B)
      if (Raw[B] == UINT32_MAX && NodeEquiv(A, B))
        Raw[B] = C;
  }
  ControlRegionsResult R;
  R.NodeClass = std::move(Raw);
  R.NumClasses = Next;
  return R;
}
