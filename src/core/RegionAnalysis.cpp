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
  // (key, quotient index), sorted by key for lookup.
  std::vector<std::pair<uint64_t, uint32_t>> QIndex;
  auto NodeKey = [](NodeId N) { return uint64_t(N); };
  auto RegionKey = [](RegionId Rg) { return (uint64_t(1) << 40) | Rg; };

  auto AddQ = [&](uint64_t Key, bool IsRegion, NodeId N, RegionId Rg) {
    QIndex.emplace_back(Key, static_cast<uint32_t>(B.Nodes.size()));
    B.Nodes.push_back(CollapsedBody::QNode{IsRegion, N, Rg});
  };

  // Immediate nodes first (stable order), then child regions, then the
  // synthetic Start and End.
  size_t NQ = T.immediateNodes(R).size() + T.children(R).size();
  QIndex.reserve(NQ);
  B.Nodes.reserve(NQ);
  for (NodeId N : T.immediateNodes(R))
    AddQ(NodeKey(N), false, N, InvalidRegion);
  for (RegionId C : T.children(R))
    AddQ(RegionKey(C), true, InvalidNode, C);
  std::sort(QIndex.begin(), QIndex.end());
  // At most the immediate nodes' out-edges, the children's exit edges and
  // the two boundary edges.
  size_t MaxEdges = T.children(R).size() + 2;
  for (NodeId N : T.immediateNodes(R))
    MaxEdges += G.outDegree(N);
  B.Graph.reserveNodes(B.numNodes() + 2);
  B.Graph.reserveEdges(MaxEdges);
  B.CfgEdge.reserve(MaxEdges);
  for (uint32_t I = 0; I < B.numNodes() + 2; ++I)
    B.Graph.addNode();

  auto MapNode = [&](NodeId N) -> uint32_t {
    RegionId Child = liftToChild(T, R, N);
    if (Child == InvalidRegion)
      return UINT32_MAX;
    uint64_t Key = Child == R ? NodeKey(N) : RegionKey(Child);
    return std::lower_bound(QIndex.begin(), QIndex.end(),
                            std::pair<uint64_t, uint32_t>(Key, 0))
        ->second;
  };
  auto AddEdge = [&](uint32_t QS, uint32_t QD, EdgeId E) {
    B.Graph.addEdge(QS, QD);
    B.CfgEdge.push_back(E);
  };

  // Collect edges whose both endpoints live in R's subtree, skipping edges
  // internal to one collapsed child. The region's own entry/exit edges have
  // an endpoint outside R and drop out naturally.
  auto CollectEdge = [&](EdgeId E) {
    uint32_t QS = MapNode(G.source(E));
    uint32_t QD = MapNode(G.target(E));
    if (QS == UINT32_MAX || QD == UINT32_MAX)
      return;
    if (QS == QD && B.Nodes[QS].IsRegion)
      return; // Internal to the child region.
    AddEdge(QS, QD, E);
  };
  for (NodeId N : T.immediateNodes(R))
    for (EdgeId E : G.succEdges(N))
      CollectEdge(E);
  // The only edge leaving a collapsed child is its exit edge (the SESE
  // property), so that is all a child node contributes.
  for (RegionId C : T.children(R))
    CollectEdge(T.region(C).ExitEdge);

  // Entry/exit quotient nodes and the boundary edges standing in for the
  // region's entry/exit edges.
  EdgeId EntryEdge = InvalidEdge, ExitEdge = InvalidEdge;
  if (R == T.root()) {
    B.EntryQ = MapNode(G.entry());
    B.ExitQ = MapNode(G.exit());
  } else {
    EntryEdge = T.region(R).EntryEdge;
    ExitEdge = T.region(R).ExitEdge;
    B.EntryQ = MapNode(G.target(EntryEdge));
    B.ExitQ = MapNode(G.source(ExitEdge));
  }
  AddEdge(B.start(), B.EntryQ, EntryEdge);
  AddEdge(B.ExitQ, B.end(), ExitEdge);
  B.Graph.setEntry(B.start());
  B.Graph.setExit(B.end());
  B.Frozen = FrozenCfg(B.Graph);
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

RegionKind pst::classifyRegion(const CollapsedBody &B) {
  const CfgView &V = B.view();
  uint32_t N = B.numNodes();

  if (N == 1 && B.numBodyEdges() == 0)
    return RegionKind::Block;

  std::vector<bool> Back = backEdges(V, depthFirstSearch(V, B.start()));
  if (std::find(Back.begin(), Back.end(), true) != Back.end()) {
    // Reducible cyclic bodies count as loops; irreducible ones as cyclic
    // unstructured (the paper's last bucket).
    return isReducible(V) ? RegionKind::Loop : RegionKind::CyclicUnstructured;
  }

  // Acyclic shapes: one branch node whose arms are disjoint linear chains
  // (possibly empty, possibly several sequential regions long) that all
  // converge on one join node, covering the whole body. Of the boundary
  // edges only the join's edge to End touches these nodes: Start feeds the
  // branch node alone, and no arm node can be the (acyclic) branch node.
  uint32_t Join = B.ExitQ;
  if (B.EntryQ == Join)
    return RegionKind::Dag;
  std::span<const NodeId> EntrySuccs = V.succNodes(B.EntryQ);
  if (EntrySuccs.size() < 2 || V.outDegree(Join) != 1)
    return RegionKind::Dag;
  uint32_t DirectToJoin = 0, Covered = 2; // Entry and join.
  for (NodeId Arm : EntrySuccs) {
    if (Arm == Join) {
      ++DirectToJoin;
      continue;
    }
    // Walk the chain: every hop must be a straight link.
    for (NodeId Cur = Arm; Cur != Join; Cur = V.succNodes(Cur)[0]) {
      if (V.inDegree(Cur) != 1 || V.outDegree(Cur) != 1)
        return RegionKind::Dag;
      ++Covered;
    }
  }
  if (Covered != N)
    return RegionKind::Dag;
  if (EntrySuccs.size() >= 3)
    return RegionKind::Case;
  if (DirectToJoin == 1)
    return RegionKind::IfThen;
  if (DirectToJoin == 0)
    return RegionKind::IfThenElse;
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
         << regionKindName(classifyRegion(collapseRegion(V, T, R)));
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
