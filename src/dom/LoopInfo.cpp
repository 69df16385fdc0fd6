//===- LoopInfo.cpp - Natural loop nesting forest -------------------------------===//
//
// Part of the PST library (see Dominators.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dom/LoopInfo.h"

#include "pst/graph/CfgAlgorithms.h"

#include <algorithm>
#include <map>

using namespace pst;

LoopInfo::LoopInfo(const CfgView &G, const DomTree &DT) {
  uint32_t N = G.numNodes();
  NodeLoop.assign(N, InvalidLoop);

  // Find backedges (target dominates source) grouped by header.
  // Retreating edges (target an ancestor of the source in the DFS tree)
  // that are not backedges in the dominance sense witness irreducibility.
  DfsResult Dfs = depthFirstSearch(G, G.entry());
  std::vector<uint32_t> PostNum(N, UINT32_MAX);
  for (uint32_t I = 0; I < Dfs.Postorder.size(); ++I)
    PostNum[Dfs.Postorder[I]] = I;
  auto IsTreeAncestor = [&](NodeId A, NodeId D) {
    return Dfs.PreNum[A] <= Dfs.PreNum[D] && PostNum[A] >= PostNum[D];
  };

  std::map<NodeId, std::vector<EdgeId>> ByHeader;
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId Src = G.source(E), Dst = G.target(E);
    if (DT.dominates(Dst, Src)) {
      ByHeader[Dst].push_back(E);
      continue;
    }
    if (IsTreeAncestor(Dst, Src))
      IrrEdges.push_back(E);
  }

  // One loop per header: members found by backward walk from the backedge
  // sources, stopping at the header.
  for (auto &[Header, Edges] : ByHeader) {
    Loop L;
    L.Header = Header;
    L.Backedges = Edges;
    std::vector<bool> InLoop(N, false);
    InLoop[Header] = true;
    std::vector<NodeId> Work;
    for (EdgeId E : Edges) {
      NodeId S = G.source(E);
      if (!InLoop[S]) {
        InLoop[S] = true;
        Work.push_back(S);
      }
    }
    while (!Work.empty()) {
      NodeId V = Work.back();
      Work.pop_back();
      for (EdgeId E : G.predEdges(V)) {
        NodeId P = G.source(E);
        if (!InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
      }
    }
    for (NodeId V = 0; V < N; ++V)
      if (InLoop[V])
        L.Nodes.push_back(V);
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A contains loop B iff A's member set contains B's
  // header (and they differ). Sort loops by size ascending so the
  // innermost containing loop is found first.
  std::vector<LoopId> BySize(Loops.size());
  for (LoopId I = 0; I < Loops.size(); ++I)
    BySize[I] = I;
  std::sort(BySize.begin(), BySize.end(), [&](LoopId A, LoopId B) {
    return Loops[A].Nodes.size() < Loops[B].Nodes.size();
  });

  auto Contains = [&](LoopId A, NodeId V) {
    const auto &Ns = Loops[A].Nodes;
    return std::binary_search(Ns.begin(), Ns.end(), V);
  };
  for (size_t I = 0; I < BySize.size(); ++I) {
    LoopId Inner = BySize[I];
    for (size_t J = I + 1; J < BySize.size(); ++J) {
      LoopId Outer = BySize[J];
      if (Contains(Outer, Loops[Inner].Header)) {
        Loops[Inner].Parent = Outer;
        Loops[Outer].Children.push_back(Inner);
        break;
      }
    }
  }
  // Depths, outermost-in: process in descending size order.
  for (auto It = BySize.rbegin(); It != BySize.rend(); ++It) {
    LoopId L = *It;
    Loops[L].Depth =
        Loops[L].Parent == InvalidLoop ? 1 : Loops[Loops[L].Parent].Depth + 1;
  }
  // Innermost loop per node: smallest containing loop wins.
  for (LoopId L : BySize) {
    for (NodeId V : Loops[L].Nodes)
      if (NodeLoop[V] == InvalidLoop)
        NodeLoop[V] = L;
  }
}
