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
  std::vector<uint32_t> Cursor;
  Kids = NodeCsr(N, Cursor, [&](auto Emit) {
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

std::span<const NodeId> pst::immediateDominators(const CfgView &G,
                                                 DomScratch &S) {
  const uint32_t N = G.numNodes();
  const NodeId Root = G.entry();
  S.Idom.assign(N, InvalidNode);
  if (N == 0 || Root == InvalidNode)
    return S.Idom;

  // Postorder by an explicit-stack DFS (the benches run 100k-node
  // chains). PoNum doubles as the visited mark: OnPath until the node
  // finishes and takes its number.
  constexpr uint32_t Unreached = UINT32_MAX, OnPath = UINT32_MAX - 1;
  S.PoNum.assign(N, Unreached);
  S.Postorder.clear();
  S.Stack.clear();
  // Sized up front, so even a cold scratch grows each list once.
  S.Postorder.reserve(N);
  S.Stack.reserve(N);
  S.PoNum[Root] = OnPath;
  S.Stack.emplace_back(Root, 0);
  while (!S.Stack.empty()) {
    auto &[V, Next] = S.Stack.back();
    std::span<const NodeId> Succs = G.succNodes(V);
    if (Next == Succs.size()) {
      S.PoNum[V] = static_cast<uint32_t>(S.Postorder.size());
      S.Postorder.push_back(V);
      S.Stack.pop_back();
      continue;
    }
    NodeId W = Succs[Next++];
    if (S.PoNum[W] == Unreached) {
      S.PoNum[W] = OnPath;
      S.Stack.emplace_back(W, 0);
    }
  }

  // Two-finger intersection in postorder numbering: the finger with the
  // lower number is the deeper one and climbs.
  auto Intersect = [&](NodeId A, NodeId B) {
    while (A != B) {
      while (S.PoNum[A] < S.PoNum[B])
        A = S.Idom[A];
      while (S.PoNum[B] < S.PoNum[A])
        B = S.Idom[B];
    }
    return A;
  };

  // Reverse postorder is the postorder backwards; the root finishes last.
  // Unreached and not yet processed predecessors both still read
  // InvalidNode, and are skipped alike.
  S.Idom[Root] = Root; // Temporarily self, for Intersect's termination.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = S.Postorder.size() - 1; I-- > 0;) {
      NodeId V = S.Postorder[I];
      NodeId NewIdom = InvalidNode;
      for (NodeId P : G.predNodes(V)) {
        if (S.Idom[P] == InvalidNode)
          continue;
        NewIdom = NewIdom == InvalidNode ? P : Intersect(P, NewIdom);
      }
      if (S.Idom[V] != NewIdom) {
        S.Idom[V] = NewIdom;
        Changed = true;
      }
    }
  }
  S.Idom[Root] = InvalidNode;
  return S.Idom;
}

DomTree DomTree::buildIterative(const CfgView &G) {
  DomScratch S;
  immediateDominators(G, S);
  DomTree T;
  T.Root = G.entry();
  T.Idom = std::move(S.Idom);
  if (G.numNodes() == 0 || T.Root == InvalidNode)
    return T;
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

namespace {

/// DF(n) for every n, from the idom array of a dominator tree of \p G
/// rooted at \p Root. Merges M are visited ascending and Last[Runner]
/// drops a second walk's repeat of (Runner, M), so each frontier comes out
/// sorted and deduped.
NodeCsr frontierRelation(const CfgView &G, NodeId Root,
                         std::span<const NodeId> Idom, DomScratch &S) {
  const uint32_t N = G.numNodes();
  auto Reachable = [&](NodeId V) {
    return V == Root || Idom[V] != InvalidNode;
  };
  return NodeCsr(N, S.Cursor, [&](auto Emit) {
    S.Last.assign(N, InvalidNode);
    for (NodeId M = 0; M < N; ++M) {
      if (G.predEdges(M).size() < 2 || !Reachable(M))
        continue;
      NodeId IdomM = Idom[M];
      for (NodeId Runner : G.predNodes(M)) {
        if (!Reachable(Runner))
          continue;
        for (; Runner != IdomM && Runner != InvalidNode; Runner = Idom[Runner])
          if (S.Last[Runner] != M) {
            S.Last[Runner] = M;
            Emit(Runner, M);
          }
      }
    }
  });
}

} // namespace

DominanceFrontiers::DominanceFrontiers(const CfgView &G, const DomTree &DT) {
  DomScratch S;
  DF = frontierRelation(G, DT.root(), DT.idoms(), S);
}

DominanceFrontiers::DominanceFrontiers(const CfgView &G,
                                       std::span<const NodeId> Idom,
                                       DomScratch &S)
    : DF(frontierRelation(G, G.entry(), Idom, S)) {}

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
