//===- Dominators.cpp - (Post)dominator trees ------------------------------===//
//
// Part of the PST library (see Dominators.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dom/Dominators.h"

#include "pst/graph/CfgAlgorithms.h"

#include <algorithm>
#include <cassert>

using namespace pst;

void DomTree::finalize() {
  uint32_t N = numNodes();
  // Ascending V fills each child list ascending by node id.
  Kids = NodeCsr(N, [&](auto Emit) {
    for (NodeId V = 0; V < N; ++V)
      if (V != Root && Idom[V] != InvalidNode)
        Emit(Idom[V], V);
  });
  In.assign(N, 0);
  Out.assign(N, 0);

  // Interval numbering by an explicit-stack DFS over the tree.
  uint32_t Clock = 0;
  std::vector<std::pair<NodeId, uint32_t>> Stack;
  if (Root != InvalidNode) {
    In[Root] = Clock++;
    Stack.emplace_back(Root, 0);
  }
  while (!Stack.empty()) {
    auto &[V, Next] = Stack.back();
    std::span<const NodeId> VKids = Kids.row(V);
    if (Next == VKids.size()) {
      Out[V] = Clock++;
      Stack.pop_back();
      continue;
    }
    NodeId C = VKids[Next++];
    In[C] = Clock++;
    Stack.emplace_back(C, 0);
  }
}

DomTree DomTree::buildIterative(const CfgView &G) {
  DomTree T;
  T.Root = G.entry();
  uint32_t N = G.numNodes();
  T.Idom.assign(N, InvalidNode);
  if (N == 0 || T.Root == InvalidNode)
    return T;

  std::vector<NodeId> RPO = reversePostOrder(G);
  std::vector<uint32_t> RpoNum(N, UINT32_MAX);
  for (uint32_t I = 0; I < RPO.size(); ++I)
    RpoNum[RPO[I]] = I;

  // Two-finger intersection in RPO numbering (Cooper/Harvey/Kennedy).
  auto Intersect = [&](NodeId A, NodeId B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = T.Idom[A];
      while (RpoNum[B] > RpoNum[A])
        B = T.Idom[B];
    }
    return A;
  };

  T.Idom[T.Root] = T.Root; // Temporarily self, for Intersect's termination.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId V : RPO) {
      if (V == T.Root)
        continue;
      NodeId NewIdom = InvalidNode;
      for (EdgeId E : G.predEdges(V)) {
        NodeId P = G.source(E);
        if (RpoNum[P] == UINT32_MAX || T.Idom[P] == InvalidNode)
          continue; // Unreachable or not yet processed.
        NewIdom = NewIdom == InvalidNode ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != InvalidNode && T.Idom[V] != NewIdom) {
        T.Idom[V] = NewIdom;
        Changed = true;
      }
    }
  }
  T.Idom[T.Root] = InvalidNode;
  T.finalize();
  return T;
}

namespace {

/// State for the Lengauer-Tarjan "simple" eval/link machinery, all in
/// DFS-number space (1-based; 0 means "none").
struct LtState {
  std::vector<uint32_t> Semi;     // Semidominator dfnum.
  std::vector<uint32_t> Ancestor; // Forest parent (0 = root of its tree).
  std::vector<uint32_t> Label;    // Node with min semi on the path up.

  explicit LtState(uint32_t N)
      : Semi(N + 1), Ancestor(N + 1, 0), Label(N + 1) {
    for (uint32_t I = 0; I <= N; ++I) {
      Semi[I] = I;
      Label[I] = I;
    }
  }

  /// Path compression, iterative (benches run 100k-node chains).
  void compress(uint32_t V) {
    // Collect the ancestor path, then fold it top-down.
    Scratch.clear();
    while (Ancestor[Ancestor[V]] != 0) {
      Scratch.push_back(V);
      V = Ancestor[V];
    }
    for (auto It = Scratch.rbegin(); It != Scratch.rend(); ++It) {
      uint32_t U = *It;
      if (Semi[Label[Ancestor[U]]] < Semi[Label[U]])
        Label[U] = Label[Ancestor[U]];
      Ancestor[U] = Ancestor[Ancestor[U]];
    }
  }

  uint32_t eval(uint32_t V) {
    if (Ancestor[V] == 0)
      return Label[V];
    compress(V);
    return Label[V];
  }

  void link(uint32_t Parent, uint32_t W) { Ancestor[W] = Parent; }

private:
  std::vector<uint32_t> Scratch;
};

} // namespace

DomTree DomTree::buildLengauerTarjan(const CfgView &G) {
  DomTree T;
  T.Root = G.entry();
  uint32_t N = G.numNodes();
  T.Idom.assign(N, InvalidNode);
  if (N == 0 || T.Root == InvalidNode)
    return T;

  DfsResult Dfs = depthFirstSearch(G, T.Root);
  uint32_t R = static_cast<uint32_t>(Dfs.Preorder.size()); // Reached count.

  // Dfnum is 1-based: Vertex[i] is the node with dfnum i.
  std::vector<NodeId> Vertex(R + 1, InvalidNode);
  std::vector<uint32_t> Dfnum(N, 0);
  std::vector<uint32_t> Parent(R + 1, 0);
  for (uint32_t I = 0; I < R; ++I) {
    NodeId V = Dfs.Preorder[I];
    Dfnum[V] = I + 1;
    Vertex[I + 1] = V;
  }
  for (uint32_t I = 2; I <= R; ++I) {
    NodeId V = Vertex[I];
    Parent[I] = Dfnum[G.source(Dfs.ParentEdge[V])];
  }

  LtState S(R);
  std::vector<std::vector<uint32_t>> Bucket(R + 1);
  std::vector<uint32_t> IdomNum(R + 1, 0);

  for (uint32_t W = R; W >= 2; --W) {
    // Step 2: semidominators.
    for (EdgeId E : G.predEdges(Vertex[W])) {
      NodeId PredNode = G.source(E);
      uint32_t V = Dfnum[PredNode];
      if (V == 0)
        continue; // Predecessor unreachable from entry.
      uint32_t U = S.eval(V);
      if (S.Semi[U] < S.Semi[W])
        S.Semi[W] = S.Semi[U];
    }
    Bucket[S.Semi[W]].push_back(W);
    S.link(Parent[W], W);
    // Step 3: implicitly define idoms for Parent[W]'s bucket.
    for (uint32_t V : Bucket[Parent[W]]) {
      uint32_t U = S.eval(V);
      IdomNum[V] = S.Semi[U] < S.Semi[V] ? U : Parent[W];
    }
    Bucket[Parent[W]].clear();
  }
  // Step 4: explicit idoms in dfnum order.
  for (uint32_t W = 2; W <= R; ++W) {
    if (IdomNum[W] != S.Semi[W])
      IdomNum[W] = IdomNum[IdomNum[W]];
    T.Idom[Vertex[W]] = Vertex[IdomNum[W]];
  }
  T.Idom[T.Root] = InvalidNode;
  T.finalize();
  return T;
}

DomTree DomTree::buildPostDom(const CfgView &V) {
  return buildIterative(V.reversed());
}

DomTree DomTree::fromIdom(NodeId Root, std::vector<NodeId> Idom) {
  DomTree T;
  T.Root = Root;
  T.Idom = std::move(Idom);
  assert(Root < T.Idom.size() && T.Idom[Root] == InvalidNode &&
         "root must have no immediate dominator");
  T.finalize();
  return T;
}

DominanceFrontiers::DominanceFrontiers(const CfgView &G, const DomTree &DT) {
  uint32_t N = G.numNodes();
  // Merges M are visited ascending and Last[Runner] drops a second walk's
  // repeat of (Runner, M), so each frontier comes out sorted and deduped.
  std::vector<NodeId> Last(N);
  DF = NodeCsr(N, [&](auto Emit) {
    std::fill(Last.begin(), Last.end(), InvalidNode);
    for (NodeId M = 0; M < N; ++M) {
      if (G.predEdges(M).size() < 2 || !DT.isReachable(M))
        continue;
      NodeId IdomM = DT.idom(M);
      for (EdgeId E : G.predEdges(M)) {
        NodeId Runner = G.source(E);
        if (!DT.isReachable(Runner))
          continue;
        for (; Runner != IdomM && Runner != InvalidNode;
             Runner = DT.idom(Runner))
          if (Last[Runner] != M) {
            Last[Runner] = M;
            Emit(Runner, M);
          }
      }
    }
  });
}

std::vector<NodeId>
DominanceFrontiers::iterated(std::span<const NodeId> Defs) const {
  std::vector<NodeId> Result, Work;
  std::vector<uint8_t> Mark;
  iterated(Defs, Result, Work, Mark);
  return Result;
}

void DominanceFrontiers::iterated(std::span<const NodeId> Defs,
                                  std::vector<NodeId> &Result,
                                  std::vector<NodeId> &Work,
                                  std::vector<uint8_t> &Mark) const {
  // Every marked node is a def or a result block, so clearing those two
  // lists' marks at the end restores the all-zero invariant.
  constexpr uint8_t InResult = 1, InWork = 2;
  if (Mark.size() < DF.numNodes())
    Mark.resize(DF.numNodes(), 0);
  Result.clear();
  Work.clear();
  for (NodeId D : Defs) {
    if (!(Mark[D] & InWork)) {
      Mark[D] |= InWork;
      Work.push_back(D);
    }
  }
  while (!Work.empty()) {
    NodeId V = Work.back();
    Work.pop_back();
    for (NodeId M : DF.row(V)) {
      if (Mark[M] & InResult)
        continue;
      Mark[M] |= InResult;
      Result.push_back(M);
      if (!(Mark[M] & InWork)) {
        Mark[M] |= InWork;
        Work.push_back(M);
      }
    }
  }
  for (NodeId D : Defs)
    Mark[D] = 0;
  for (NodeId M : Result)
    Mark[M] = 0;
  std::sort(Result.begin(), Result.end());
}
