//===- Qpg.cpp - Quick propagation graphs ---------------------------------------===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dataflow/Qpg.h"

#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>

using namespace pst;

namespace {

/// Marks every region whose subtree contains a node with a non-identity
/// transfer function (plus all ancestors). Unmarked regions are
/// transparent and bypassable.
std::vector<bool> markOpaqueRegions(uint32_t NumNodes,
                                    const ProgramStructureTree &T,
                                    const BitVectorProblem &P) {
  std::vector<bool> Marked(T.numRegions(), false);
  Marked[T.root()] = true;
  for (NodeId N = 0; N < NumNodes; ++N) {
    if (P.isIdentity(N))
      continue;
    for (RegionId R = T.regionOfNode(N);
         R != InvalidRegion && !Marked[R]; R = T.region(R).Parent)
      Marked[R] = true;
  }
  return Marked;
}

} // namespace

Qpg pst::buildQpg(const CfgView &G, const ProgramStructureTree &T,
                  const BitVectorProblem &P) {
  PST_SPAN("dataflow.qpg_build");
  std::vector<bool> Opaque = markOpaqueRegions(G.numNodes(), T, P);

  Qpg Q;
  Q.NodeIndex.assign(G.numNodes(), UINT32_MAX);
  auto Keep = [&](NodeId N) {
    if (Q.NodeIndex[N] != UINT32_MAX)
      return Q.NodeIndex[N];
    Q.NodeIndex[N] = static_cast<uint32_t>(Q.Nodes.size());
    Q.Nodes.push_back(N);
    Q.Succ.emplace_back();
    Q.Pred.emplace_back();
    return Q.NodeIndex[N];
  };

  std::vector<NodeId> Work;
  Keep(G.entry());
  Work.push_back(G.entry());
  while (!Work.empty()) {
    NodeId U = Work.back();
    Work.pop_back();
    uint32_t QU = Q.NodeIndex[U];
    for (EdgeId E1 : G.succEdges(U)) {
      // Follow the edge through any chain of transparent regions; each hop
      // lands on the region's exit edge (and possibly enters the next
      // bypassable region).
      EdgeId E = E1;
      while (true) {
        RegionId R = T.regionEnteredBy(G, E);
        if (R == InvalidRegion || Opaque[R])
          break;
        E = T.region(R).ExitEdge;
      }
      NodeId V = G.target(E);
      bool New = Q.NodeIndex[V] == UINT32_MAX;
      uint32_t QV = Keep(V);
      uint32_t EdgeIdx = static_cast<uint32_t>(Q.Edges.size());
      Q.Edges.push_back(Qpg::Edge{QU, QV, E1, E});
      Q.Succ[QU].push_back(EdgeIdx);
      Q.Pred[QV].push_back(EdgeIdx);
      if (New)
        Work.push_back(V);
    }
  }
  PST_COUNTER("dataflow.qpg_builds", 1);
  PST_COUNTER("dataflow.qpg_nodes", Q.Nodes.size());
  PST_COUNTER("dataflow.qpg_edges", Q.Edges.size());
  return Q;
}

EdgeSolution pst::solveOnQpg(const CfgView &G, const ProgramStructureTree &T,
                             const BitVectorProblem &P, Qpg *OutQpg) {
  PST_SPAN("dataflow.qpg_solve");
  Qpg Q = buildQpg(G, T, P);

  // Iterate on the QPG: In[q] = meet of Out over incoming edges' sources;
  // the value carried by a QPG edge is Out[source].
  uint32_t N = Q.numNodes();
  std::vector<BitVector> In(N, P.top()), Out(N, P.top());
  In[0] = P.Boundary; // Nodes[0] is the entry.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t V = 0; V < N; ++V) {
      if (V != 0) {
        BitVector X = P.top();
        bool First = true;
        for (uint32_t EI : Q.Pred[V]) {
          const BitVector &Y = Out[Q.Edges[EI].Src];
          if (First) {
            X = Y;
            First = false;
          } else if (P.Meet == BitVectorProblem::MeetKind::Union) {
            X.unionWith(Y);
          } else {
            X.intersectWith(Y);
          }
        }
        In[V] = std::move(X);
      }
      BitVector O = P.apply(Q.Nodes[V], In[V]);
      if (O != Out[V]) {
        Out[V] = std::move(O);
        Changed = true;
      }
    }
  }

  // Project back: the value on a QPG edge (Out of its CFG source) is the
  // value on every CFG edge of the transparent chain it bypasses. Edges
  // inside a transparent region inherit the value of that region's entry
  // edge; we propagate region-by-region.
  EdgeSolution S;
  S.EdgeValue.assign(G.numEdges(), P.top());
  std::vector<bool> Known(G.numEdges(), false);

  // Bucket CFG edges by their innermost region for interior fill-in.
  std::vector<std::vector<EdgeId>> RegionEdges(T.numRegions());
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    RegionEdges[T.regionOfEdge(G, E)].push_back(E);

  // Recursively assigns Value to every edge in R's subtree.
  auto FillRegion = [&](RegionId R, const BitVector &Value) {
    std::vector<RegionId> Stack{R};
    while (!Stack.empty()) {
      RegionId Cur = Stack.back();
      Stack.pop_back();
      for (EdgeId E : RegionEdges[Cur]) {
        S.EdgeValue[E] = Value;
        Known[E] = true;
      }
      for (RegionId C : T.children(Cur))
        Stack.push_back(C);
    }
  };

  std::vector<bool> Opaque = markOpaqueRegions(G.numNodes(), T, P);
  for (const Qpg::Edge &QE : Q.Edges) {
    const BitVector &Value = Out[QE.Src];
    // Walk the same transparent chain the builder walked.
    EdgeId E = QE.First;
    S.EdgeValue[E] = Value;
    Known[E] = true;
    while (true) {
      RegionId R = T.regionEnteredBy(G, E);
      if (R == InvalidRegion || Opaque[R])
        break;
      FillRegion(R, Value);
      E = T.region(R).ExitEdge;
      S.EdgeValue[E] = Value;
      Known[E] = true;
    }
  }
  // Every CFG edge must have been covered (kept-node out-edges are QPG
  // firsts; interior edges were filled by their bypassed region).
  assert(std::all_of(Known.begin(), Known.end(), [](bool B) { return B; }) &&
         "QPG projection missed an edge");

  if (OutQpg)
    *OutQpg = std::move(Q);
  return S;
}

EdgeSolution pst::edgeView(const CfgView &G, const DataflowSolution &S) {
  EdgeSolution E;
  E.EdgeValue.reserve(G.numEdges());
  for (EdgeId Ed = 0; Ed < G.numEdges(); ++Ed)
    E.EdgeValue.push_back(S.Out[G.source(Ed)]);
  return E;
}
