//===- RegionAnalysis.cpp - Collapse & classify regions ---------------------===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/core/RegionAnalysis.h"

#include "pst/graph/CfgAlgorithms.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

using namespace pst;

/// Maps CFG node \p N to the child-of-\p R (or \p R itself) that contains
/// it, or InvalidRegion if N is outside R's subtree.
static RegionId liftToChild(const ProgramStructureTree &T, RegionId R,
                            NodeId N) {
  RegionId Cur = T.regionOfNode(N);
  RegionId Prev = InvalidRegion;
  while (Cur != InvalidRegion) {
    if (Cur == R)
      return Prev == InvalidRegion ? R : Prev;
    Prev = Cur;
    Cur = T.region(Cur).Parent;
  }
  return InvalidRegion;
}

CollapsedBody pst::collapseRegion(const CfgView &G,
                                  const ProgramStructureTree &T, RegionId R) {
  CollapsedBody B;
  std::unordered_map<uint64_t, uint32_t> QIndex; // Keyed below.
  auto NodeKey = [](NodeId N) { return uint64_t(N); };
  auto RegionKey = [](RegionId Rg) { return (uint64_t(1) << 40) | Rg; };

  auto GetQ = [&](uint64_t Key, bool IsRegion, NodeId N,
                  RegionId Rg) -> uint32_t {
    auto It = QIndex.find(Key);
    if (It != QIndex.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(B.Nodes.size());
    B.Nodes.push_back(CollapsedBody::QNode{IsRegion, N, Rg});
    QIndex.emplace(Key, Idx);
    return Idx;
  };

  // Immediate nodes first (stable order), then child regions.
  for (NodeId N : T.immediateNodes(R))
    GetQ(NodeKey(N), false, N, InvalidRegion);
  for (RegionId C : T.children(R))
    GetQ(RegionKey(C), true, InvalidNode, C);

  auto MapNode = [&](NodeId N) -> uint32_t {
    RegionId Child = liftToChild(T, R, N);
    if (Child == InvalidRegion)
      return UINT32_MAX;
    if (Child == R)
      return QIndex.at(NodeKey(N));
    return QIndex.at(RegionKey(Child));
  };

  // Collect edges whose both endpoints live in R's subtree, skipping edges
  // internal to one collapsed child. The region's own entry/exit edges have
  // an endpoint outside R and drop out naturally.
  auto CollectEdgesOf = [&](NodeId N) {
    for (EdgeId E : G.succEdges(N)) {
      uint32_t QS = MapNode(G.source(E));
      uint32_t QD = MapNode(G.target(E));
      if (QS == UINT32_MAX || QD == UINT32_MAX)
        continue;
      if (QS == QD && B.Nodes[QS].IsRegion)
        continue; // Internal to the child region.
      B.Edges.push_back(CollapsedBody::QEdge{QS, QD, E});
    }
  };
  for (NodeId N : T.immediateNodes(R))
    CollectEdgesOf(N);
  for (RegionId C : T.children(R)) {
    // Only the child's exit-side boundary node can start edges that leave
    // the collapsed child: its exit edge. Other internal edges were
    // skipped above; we must still scan the child's nodes for edges that
    // leave the child subtree (exactly its exit edge, by the SESE
    // property).
    EdgeId Exit = T.region(C).ExitEdge;
    uint32_t QS = MapNode(G.source(Exit));
    uint32_t QD = MapNode(G.target(Exit));
    if (QS != UINT32_MAX && QD != UINT32_MAX &&
        !(QS == QD && B.Nodes[QS].IsRegion))
      B.Edges.push_back(CollapsedBody::QEdge{QS, QD, Exit});
  }

  // Entry/exit quotient nodes.
  if (R == T.root()) {
    B.EntryQ = MapNode(G.entry());
    B.ExitQ = MapNode(G.exit());
  } else {
    B.EntryQ = MapNode(G.target(T.region(R).EntryEdge));
    B.ExitQ = MapNode(G.source(T.region(R).ExitEdge));
  }
  return B;
}

const char *pst::regionKindName(RegionKind K) {
  switch (K) {
  case RegionKind::Block:
    return "block";
  case RegionKind::IfThen:
    return "if-then";
  case RegionKind::IfThenElse:
    return "if-then-else";
  case RegionKind::Case:
    return "case";
  case RegionKind::Loop:
    return "loop";
  case RegionKind::Dag:
    return "dag";
  case RegionKind::CyclicUnstructured:
    return "cyclic";
  }
  return "unknown";
}

/// Cycle check on the quotient body via iterative coloring.
static bool bodyHasCycle(const CollapsedBody &B) {
  uint32_t N = B.numNodes();
  std::vector<std::vector<uint32_t>> Succ(N);
  for (const auto &E : B.Edges) {
    if (E.Src == E.Dst)
      return true; // Self loop.
    Succ[E.Src].push_back(E.Dst);
  }
  std::vector<uint8_t> Color(N, 0); // 0 white, 1 grey, 2 black.
  for (uint32_t S = 0; S < N; ++S) {
    if (Color[S])
      continue;
    std::vector<std::pair<uint32_t, uint32_t>> Stack{{S, 0}};
    Color[S] = 1;
    while (!Stack.empty()) {
      auto &[V, Next] = Stack.back();
      if (Next == Succ[V].size()) {
        Color[V] = 2;
        Stack.pop_back();
        continue;
      }
      uint32_t W = Succ[V][Next++];
      if (Color[W] == 1)
        return true;
      if (Color[W] == 0) {
        Color[W] = 1;
        Stack.emplace_back(W, 0);
      }
    }
  }
  return false;
}

RegionKind pst::classifyRegion(const CfgView &G, const ProgramStructureTree &T,
                               RegionId R) {
  CollapsedBody B = collapseRegion(G, T, R);
  uint32_t N = B.numNodes();

  if (N == 1 && B.Edges.empty())
    return RegionKind::Block;

  if (bodyHasCycle(B)) {
    // Reducible cyclic bodies count as loops; irreducible ones as cyclic
    // unstructured (the paper's last bucket).
    Cfg Q;
    for (uint32_t I = 0; I < N; ++I)
      Q.addNode();
    for (const auto &E : B.Edges)
      Q.addEdge(E.Src, E.Dst);
    // Reducibility only needs the entry; the quotient may not be a valid
    // two-terminal CFG so validate is never called on it.
    Q.setEntry(B.EntryQ);
    Q.setExit(B.ExitQ);
    return isReducible(FrozenCfg(Q)) ? RegionKind::Loop
                                     : RegionKind::CyclicUnstructured;
  }

  // Acyclic shapes: one branch node whose arms are disjoint linear chains
  // (possibly empty, possibly several sequential regions long) that all
  // converge on one join node, covering the whole body.
  if (B.EntryQ < N && B.ExitQ < N && B.EntryQ != B.ExitQ) {
    std::vector<std::vector<uint32_t>> Succ(N);
    std::vector<uint32_t> Indeg(N, 0);
    for (const auto &E : B.Edges) {
      Succ[E.Src].push_back(E.Dst);
      ++Indeg[E.Dst];
    }
    const auto &EntrySuccs = Succ[B.EntryQ];
    uint32_t Join = B.ExitQ;
    if (EntrySuccs.size() >= 2 && Succ[Join].empty()) {
      bool AllArmsSimple = true;
      uint32_t DirectToJoin = 0, Covered = 2; // Entry and join.
      for (uint32_t Arm : EntrySuccs) {
        if (Arm == Join) {
          ++DirectToJoin;
          continue;
        }
        // Walk the chain: every hop must be a straight link.
        uint32_t Cur = Arm;
        while (Cur != Join) {
          if (Indeg[Cur] != 1 || Succ[Cur].size() != 1) {
            AllArmsSimple = false;
            break;
          }
          ++Covered;
          Cur = Succ[Cur][0];
        }
        if (!AllArmsSimple)
          break;
      }
      if (AllArmsSimple && Covered == N) {
        if (EntrySuccs.size() == 2 && DirectToJoin == 1)
          return RegionKind::IfThen;
        if (EntrySuccs.size() == 2 && DirectToJoin == 0)
          return RegionKind::IfThenElse;
        if (EntrySuccs.size() >= 3)
          return RegionKind::Case;
      }
    }
  }
  return RegionKind::Dag;
}

uint32_t pst::regionWeight(const ProgramStructureTree &T, RegionId R) {
  uint32_t K = static_cast<uint32_t>(T.children(R).size());
  return K == 0 ? 1 : K;
}

std::string pst::formatPst(const Cfg &G, const ProgramStructureTree &T) {
  FrozenCfg V(G);
  std::ostringstream OS;
  // Depth-first print of the region tree.
  std::vector<std::pair<RegionId, uint32_t>> Stack{{T.root(), 0}};
  while (!Stack.empty()) {
    auto [R, Indent] = Stack.back();
    Stack.pop_back();
    OS << std::string(Indent * 2, ' ');
    if (R == T.root()) {
      OS << "procedure";
    } else {
      const SeseRegion &Reg = T.region(R);
      OS << "region " << R << " ("
         << G.nodeName(G.source(Reg.EntryEdge)) << "->"
         << G.nodeName(G.target(Reg.EntryEdge)) << ", "
         << G.nodeName(G.source(Reg.ExitEdge)) << "->"
         << G.nodeName(G.target(Reg.ExitEdge)) << ") "
         << regionKindName(classifyRegion(V, T, R));
    }
    OS << " [nodes:";
    for (NodeId N : T.immediateNodes(R))
      OS << ' ' << G.nodeName(N);
    OS << "]\n";
    const auto Kids = T.children(R);
    for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
      Stack.emplace_back(*It, Indent + 1);
  }
  return OS.str();
}
