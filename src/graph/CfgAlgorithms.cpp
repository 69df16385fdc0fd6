//===- CfgAlgorithms.cpp - CFG traversals & checks -------------------------===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/graph/CfgAlgorithms.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

using namespace pst;

DfsResult pst::depthFirstSearch(const CfgView &G, NodeId Root) {
  DfsResult R;
  uint32_t N = G.numNodes();
  R.PreNum.assign(N, UINT32_MAX);
  R.ParentEdge.assign(N, InvalidEdge);
  if (N == 0)
    return R;

  // Explicit stack of (node, next successor index) frames so deep graphs
  // (the benches use 100k-node chains) do not overflow the call stack.
  // Every list is sized up front: one allocation each, however the search
  // goes.
  std::vector<std::pair<NodeId, uint32_t>> Stack;
  Stack.reserve(N);
  R.Preorder.reserve(N);
  R.Postorder.reserve(N);
  R.PreNum[Root] = static_cast<uint32_t>(R.Preorder.size());
  R.Preorder.push_back(Root);
  Stack.emplace_back(Root, 0);

  while (!Stack.empty()) {
    auto &[Node, NextIdx] = Stack.back();
    const auto &Succs = G.succEdges(Node);
    if (NextIdx == Succs.size()) {
      R.Postorder.push_back(Node);
      Stack.pop_back();
      continue;
    }
    EdgeId E = Succs[NextIdx++];
    NodeId To = G.target(E);
    if (R.PreNum[To] != UINT32_MAX)
      continue;
    R.PreNum[To] = static_cast<uint32_t>(R.Preorder.size());
    R.Preorder.push_back(To);
    R.ParentEdge[To] = E;
    Stack.emplace_back(To, 0);
  }
  return R;
}

std::vector<bool> pst::backEdges(const CfgView &G, const DfsResult &D) {
  std::vector<uint32_t> PostNum(G.numNodes(), 0);
  for (uint32_t I = 0; I < D.Postorder.size(); ++I)
    PostNum[D.Postorder[I]] = I;
  std::vector<bool> Back(G.numEdges(), false);
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    Back[E] = D.PreNum[G.source(E)] != UINT32_MAX &&
              PostNum[G.target(E)] >= PostNum[G.source(E)];
  return Back;
}

std::vector<bool> pst::reachableFrom(const Cfg &G, NodeId Root) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (Root >= G.numNodes())
    return Seen;
  std::vector<NodeId> Work{Root};
  Seen[Root] = true;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (EdgeId E : G.succEdges(N)) {
      NodeId To = G.target(E);
      if (!Seen[To]) {
        Seen[To] = true;
        Work.push_back(To);
      }
    }
  }
  return Seen;
}

std::vector<bool> pst::reachesTo(const Cfg &G, NodeId Target) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (Target >= G.numNodes())
    return Seen;
  std::vector<NodeId> Work{Target};
  Seen[Target] = true;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (EdgeId E : G.predEdges(N)) {
      NodeId From = G.source(E);
      if (!Seen[From]) {
        Seen[From] = true;
        Work.push_back(From);
      }
    }
  }
  return Seen;
}

bool pst::existsPathBetween(const Cfg &G, NodeId From, NodeId To) {
  return reachableFrom(G, From)[To];
}

std::vector<NodeId> pst::reversePostOrder(const CfgView &G) {
  DfsResult R = depthFirstSearch(G, G.entry());
  std::reverse(R.Postorder.begin(), R.Postorder.end());
  return std::move(R.Postorder);
}

bool pst::validateCfg(const Cfg &G, std::string *Why) {
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };
  if (G.numNodes() == 0)
    return Fail("graph has no nodes");
  if (G.entry() == InvalidNode || G.exit() == InvalidNode)
    return Fail("entry or exit node not set");
  if (G.entry() == G.exit())
    return Fail("entry and exit must be distinct");
  if (!G.predEdges(G.entry()).empty())
    return Fail("entry node has a predecessor");
  if (!G.succEdges(G.exit()).empty())
    return Fail("exit node has a successor");

  std::vector<bool> FromEntry = reachableFrom(G, G.entry());
  std::vector<bool> ToExit = reachesTo(G, G.exit());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (!FromEntry[N])
      return Fail("node " + G.nodeName(N) + " is unreachable from entry");
    if (!ToExit[N])
      return Fail("node " + G.nodeName(N) + " cannot reach exit");
  }
  return true;
}

Cfg pst::reverseCfg(const Cfg &G) {
  Cfg R;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    R.addNode(G.node(N).Label);
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    R.addEdge(G.target(E), G.source(E));
  R.setEntry(G.exit());
  R.setExit(G.entry());
  return R;
}

Cfg pst::simplifyCfg(const Cfg &G) {
  uint32_t N = G.numNodes();
  // Map each node to the head of its straight-line chain.
  // A node J (not entry/exit) is fused into its unique predecessor I when
  // I's unique successor is J and the connecting edge is not a self loop.
  std::vector<NodeId> Head(N);
  for (NodeId I = 0; I < N; ++I)
    Head[I] = I;

  auto findHead = [&](NodeId I) {
    while (Head[I] != I)
      I = Head[I] = Head[Head[I]];
    return I;
  };

  for (NodeId J = 0; J < N; ++J) {
    if (J == G.entry() || J == G.exit())
      continue;
    if (G.predEdges(J).size() != 1)
      continue;
    EdgeId InE = G.predEdges(J)[0];
    NodeId I = G.source(InE);
    if (I == J || I == G.entry())
      continue; // Self loop, or would fold a block into the entry node.
    if (G.succEdges(I).size() != 1)
      continue;
    Head[findHead(J)] = findHead(I);
  }

  // Build the new graph: one node per chain head, in original id order.
  Cfg Out;
  std::vector<NodeId> NewId(N, InvalidNode);
  for (NodeId I = 0; I < N; ++I) {
    if (findHead(I) != I)
      continue;
    NewId[I] = Out.addNode(G.node(I).Label);
  }
  // Join labels of fused nodes for readability.
  for (NodeId I = 0; I < N; ++I) {
    NodeId H = findHead(I);
    if (H == I)
      continue;
    NodeId NH = NewId[H];
    std::string L = Out.node(NH).Label;
    if (!G.node(I).Label.empty()) {
      if (!L.empty())
        L += "+";
      L += G.node(I).Label;
      Out.setNodeLabel(NH, std::move(L));
    }
  }
  // Keep only edges that cross chains (intra-chain edges are the fused
  // straight-line links).
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId S = findHead(G.source(E));
    NodeId D = findHead(G.target(E));
    NodeId TgtNode = G.target(E);
    bool IsChainLink = S == D && G.source(E) != G.target(E) &&
                       G.predEdges(TgtNode).size() == 1 &&
                       G.succEdges(G.source(E)).size() == 1 &&
                       G.source(E) != G.entry() && TgtNode != G.entry() &&
                       TgtNode != G.exit();
    if (IsChainLink)
      continue;
    Out.addEdge(NewId[S], NewId[D]);
  }
  Out.setEntry(NewId[findHead(G.entry())]);
  Out.setExit(NewId[findHead(G.exit())]);
  return Out;
}

bool pst::isReducible(const CfgView &G) {
  // Work on an adjacency-set representation we can mutate. Parallel edges
  // collapse (they do not affect reducibility).
  uint32_t N = G.numNodes();
  if (N == 0)
    return true;
  std::vector<std::vector<NodeId>> Succ(N), Pred(N);
  auto AddEdge = [&](NodeId A, NodeId B) {
    if (std::find(Succ[A].begin(), Succ[A].end(), B) == Succ[A].end()) {
      Succ[A].push_back(B);
      Pred[B].push_back(A);
    }
  };
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    AddEdge(G.source(E), G.target(E));

  std::vector<bool> Alive(N, true);
  uint32_t AliveCount = N;

  // Iterate to a fixed point: T1 removes self loops (free whenever we touch
  // a node), T2 merges a node with a unique predecessor into it.
  bool Changed = true;
  auto RemoveFrom = [](std::vector<NodeId> &V, NodeId X) {
    V.erase(std::remove(V.begin(), V.end(), X), V.end());
  };
  while (Changed && AliveCount > 1) {
    Changed = false;
    for (NodeId B = 0; B < N; ++B) {
      if (!Alive[B])
        continue;
      // T1: drop self loop.
      if (std::find(Succ[B].begin(), Succ[B].end(), B) != Succ[B].end()) {
        RemoveFrom(Succ[B], B);
        RemoveFrom(Pred[B], B);
        Changed = true;
      }
      // T2: unique predecessor A != B -> merge B into A.
      if (Pred[B].size() == 1 && B != G.entry()) {
        NodeId A = Pred[B][0];
        if (A == B)
          continue;
        RemoveFrom(Succ[A], B);
        RemoveFrom(Pred[B], A);
        for (NodeId C : Succ[B]) {
          RemoveFrom(Pred[C], B);
          AddEdge(A, C);
        }
        Succ[B].clear();
        Alive[B] = false;
        --AliveCount;
        Changed = true;
      }
    }
  }
  return AliveCount == 1;
}

SubCfg pst::extractRegionSubCfg(const Cfg &G,
                                const std::vector<NodeId> &BodyNodes,
                                EdgeId EntryE, EdgeId ExitE,
                                const std::vector<bool> *EdgeDead) {
  SubCfg S;
  auto IsDead = [&](EdgeId E) { return EdgeDead && (*EdgeDead)[E]; };
  assert(!IsDead(EntryE) && !IsDead(ExitE) && "boundary edge is dead");

  // Local node ids 0..K-1 mirror BodyNodes; Start/End are appended last so
  // local body indices match positions in BodyNodes.
  std::unordered_map<NodeId, NodeId> Local;
  Local.reserve(BodyNodes.size() * 2);
  for (NodeId N : BodyNodes) {
    NodeId L = S.Graph.addNode(G.node(N).Label);
    S.GlobalNode.push_back(N);
    Local.emplace(N, L);
  }
  S.Start = S.Graph.addNode("start*");
  S.End = S.Graph.addNode("end*");
  S.GlobalNode.push_back(InvalidNode);
  S.GlobalNode.push_back(InvalidNode);
  S.Graph.setEntry(S.Start);
  S.Graph.setExit(S.End);

  NodeId EntryTarget = G.target(EntryE);
  auto ItT = Local.find(EntryTarget);
  if (ItT == Local.end() || Local.count(G.source(EntryE)) ||
      !Local.count(G.source(ExitE)) || Local.count(G.target(ExitE))) {
    S.BoundaryViolation = true;
    return S;
  }

  // The synthetic entry edge goes first so the sub-DFS starts exactly where
  // the enclosing DFS entered the region.
  S.LocalEntryEdge = S.Graph.addEdge(S.Start, ItT->second);
  S.GlobalEdge.push_back(EntryE);

  for (size_t I = 0; I < BodyNodes.size(); ++I) {
    NodeId N = BodyNodes[I];
    NodeId L = static_cast<NodeId>(I);
    for (EdgeId E : G.succEdges(N)) {
      if (IsDead(E))
        continue;
      if (E == ExitE) {
        S.LocalExitEdge = S.Graph.addEdge(L, S.End);
        S.GlobalEdge.push_back(ExitE);
        continue;
      }
      auto It = Local.find(G.target(E));
      if (It == Local.end()) {
        S.BoundaryViolation = true; // A second exit crossing: not SESE.
        return S;
      }
      S.Graph.addEdge(L, It->second);
      S.GlobalEdge.push_back(E);
    }
    // A second entry crossing (a live pred from outside that is not the
    // entry edge) also breaks the SESE precondition.
    for (EdgeId E : G.predEdges(N)) {
      if (IsDead(E) || E == EntryE)
        continue;
      if (!Local.count(G.source(E))) {
        S.BoundaryViolation = true;
        return S;
      }
    }
  }
  if (S.LocalExitEdge == InvalidEdge)
    S.BoundaryViolation = true;
  return S;
}
