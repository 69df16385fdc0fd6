//===- Seg.cpp - Sparse evaluation graphs -----------------------------------===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dataflow/Seg.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>

using namespace pst;

Seg pst::buildSeg(const CfgView &G, const DominanceFrontiers &DF,
                  const BitVectorProblem &P) {
  PST_SPAN("dataflow.seg_build");
  uint32_t N = G.numNodes();

  // Interesting nodes: entry plus non-identity transfer functions.
  std::vector<NodeId> Interesting{G.entry()};
  for (NodeId V = 0; V < N; ++V)
    if (V != G.entry() && !P.isIdentity(V))
      Interesting.push_back(V);

  // SEG membership: interesting nodes plus their iterated dominance
  // frontier (where sparse values must meet).
  std::vector<bool> InSeg(N, false);
  for (NodeId V : Interesting)
    InSeg[V] = true;
  for (NodeId M : DF.iterated(Interesting))
    InSeg[M] = true;

  Seg S;
  S.NodeIndex.assign(N, UINT32_MAX);
  auto Add = [&](NodeId V) {
    S.NodeIndex[V] = static_cast<uint32_t>(S.Nodes.size());
    S.Nodes.push_back(V);
  };
  Add(G.entry());
  for (NodeId V = 0; V < N; ++V)
    if (InSeg[V] && V != G.entry())
      Add(V);
  S.Preds.resize(S.Nodes.size());

  // Governing SEG node per CFG node, in reverse postorder: a SEG member
  // governs itself; any other node inherits from a predecessor (all of a
  // non-member's predecessors agree, else it would be in the IDF and thus
  // a member). SEG edges connect governors of predecessors to members.
  S.GovernedBy.assign(N, UINT32_MAX);
  S.GovernedBy[G.entry()] = 0;
  for (NodeId V : reversePostOrder(G)) {
    if (V == G.entry())
      continue;
    if (InSeg[V]) {
      S.GovernedBy[V] = S.NodeIndex[V];
      continue;
    }
    for (EdgeId E : G.predEdges(V)) {
      uint32_t From = S.GovernedBy[G.source(E)];
      if (From != UINT32_MAX) {
        S.GovernedBy[V] = From;
        break;
      }
    }
  }
  // Backedge sources are visited after their targets in RPO; run a second
  // pass so SEG edges from them are not missed (governors are final after
  // one RPO pass for reducible flow; a fixpoint loop covers irreducible
  // graphs).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId V : reversePostOrder(G)) {
      if (InSeg[V] || V == G.entry())
        continue;
      for (EdgeId E : G.predEdges(V)) {
        uint32_t From = S.GovernedBy[G.source(E)];
        if (From != UINT32_MAX && S.GovernedBy[V] == UINT32_MAX) {
          S.GovernedBy[V] = From;
          Changed = true;
        }
      }
    }
  }
  // Collect edges into SEG members now that all governors are known.
  std::vector<std::pair<uint32_t, uint32_t>> RawEdges;
  for (NodeId V : S.Nodes) {
    if (V == G.entry())
      continue;
    uint32_t Me = S.NodeIndex[V];
    for (EdgeId E : G.predEdges(V)) {
      uint32_t From = S.GovernedBy[G.source(E)];
      assert(From != UINT32_MAX && "predecessor has no governing value");
      RawEdges.emplace_back(From, Me);
    }
  }
  std::sort(RawEdges.begin(), RawEdges.end());
  RawEdges.erase(std::unique(RawEdges.begin(), RawEdges.end()),
                 RawEdges.end());
  for (auto [From, To] : RawEdges) {
    uint32_t Id = static_cast<uint32_t>(S.Edges.size());
    S.Edges.push_back(Seg::Edge{From, To});
    S.Preds[To].push_back(Id);
  }
  PST_COUNTER("dataflow.seg_builds", 1);
  PST_COUNTER("dataflow.seg_nodes", S.Nodes.size());
  PST_COUNTER("dataflow.seg_edges", S.Edges.size());
  return S;
}

DataflowSolution pst::solveOnSeg(const CfgView &G,
                                 const DominanceFrontiers &DF,
                                 const BitVectorProblem &P, Seg *OutSeg) {
  PST_SPAN("dataflow.seg_solve");
  Seg S = buildSeg(G, DF, P);
  uint32_t M = S.numNodes();
  std::vector<BitVector> In(M, P.top()), Out(M, P.top());
  In[0] = P.Boundary;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t V = 0; V < M; ++V) {
      if (V != 0) {
        BitVector X = P.top();
        bool First = true;
        for (uint32_t EI : S.Preds[V]) {
          const BitVector &Y = Out[S.Edges[EI].Src];
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
      BitVector O = P.apply(S.Nodes[V], In[V]);
      if (O != Out[V]) {
        Out[V] = std::move(O);
        Changed = true;
      }
    }
  }

  // Projection: a SEG member keeps its own values; anything else has the
  // IN of its governing SEG node's OUT and (being transparent) the same
  // OUT.
  DataflowSolution R;
  R.In.assign(G.numNodes(), P.top());
  R.Out.assign(G.numNodes(), P.top());
  for (NodeId V = 0; V < G.numNodes(); ++V) {
    uint32_t Idx = S.NodeIndex[V];
    if (Idx != UINT32_MAX) {
      R.In[V] = In[Idx];
      R.Out[V] = Out[Idx];
    } else {
      uint32_t Gov = S.GovernedBy[V];
      assert(Gov != UINT32_MAX && "CFG node without governing SEG value");
      R.In[V] = Out[Gov];
      R.Out[V] = Out[Gov]; // Identity transfer by construction.
    }
  }
  if (OutSeg)
    *OutSeg = std::move(S);
  return R;
}
