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

BodyForest::BodyForest(const CfgView &V, const ProgramStructureTree &Tree)
    : T(&Tree) {
  const uint32_t N = V.numNodes(), NR = T->numRegions();
  const uint32_t NumEdges = V.numEdges() + 2 * NR;
  Csr.SuccOff.assign(N + (NR - 1) + 4 * NR, 0);
  Csr.PredOff.assign(Csr.SuccOff.size(), 0);
  for (std::vector<uint32_t> *A : {&Csr.SuccEdge, &Csr.SuccTo, &Csr.PredEdge,
                                   &Csr.PredFrom, &Csr.EdgeSrc, &Csr.EdgeDst,
                                   &CfgEdge})
    A->resize(NumEdges);
  EdgeBase.resize(NR + 1);
  // Quotient index of each node in its own region's body (slots 0..N-1)
  // and of each child region in its parent's (slots N..N+NR-1). Region R
  // writes the slots of its own nodes and children before reading any.
  std::vector<uint32_t> QOf(N + NR);

  uint32_t Cur = 0;
  auto AddEdge = [&](uint32_t From, uint32_t To, EdgeId E) {
    Csr.EdgeSrc[Cur] = From;
    Csr.EdgeDst[Cur] = To;
    CfgEdge[Cur++] = E;
  };
  for (RegionId R = 0; R < NR; ++R) {
    std::span<const NodeId> Imm = T->immediateNodes(R);
    std::span<const RegionId> Kids = T->children(R);
    const uint32_t NImm = static_cast<uint32_t>(Imm.size());
    const uint32_t NQ = NImm + static_cast<uint32_t>(Kids.size());
    for (uint32_t Q = 0; Q < NImm; ++Q)
      QOf[Imm[Q]] = Q;
    for (uint32_t K = 0; K < Kids.size(); ++K)
      QOf[N + Kids[K]] = NImm + K;

    // The quotient node E's target lifts to in R's body: the target itself
    // if it is immediate in R, else the child E enters (a child's entry
    // edge is the only edge into it). UINT32_MAX if E leaves the body.
    auto Lift = [&](EdgeId E) {
      NodeId To = V.target(E);
      if (T->regionOfNode(To) == R)
        return QOf[To];
      RegionId C = T->regionEnteredBy(V, E);
      return C != InvalidRegion && T->region(C).Parent == R ? QOf[N + C]
                                                             : UINT32_MAX;
    };
    EdgeBase[R] = Cur;
    for (uint32_t Q = 0; Q < NImm; ++Q)
      for (EdgeId E : V.succEdges(Imm[Q]))
        if (uint32_t To = Lift(E); To != UINT32_MAX)
          AddEdge(Q, To, E);
    // The only edge leaving a collapsed child is its exit edge (the SESE
    // property), so that is all a child contributes.
    for (uint32_t K = 0; K < Kids.size(); ++K) {
      EdgeId E = T->region(Kids[K]).ExitEdge;
      if (uint32_t To = Lift(E); To != UINT32_MAX)
        AddEdge(NImm + K, To, E);
    }

    // The boundary edges standing in for the region's entry and exit
    // edges. A region's entry edge targets, and its exit edge leaves, one
    // of its immediate nodes (an edge opens and closes at most one
    // canonical region); the CFG's entry and exit are the root's.
    const SeseRegion &Reg = T->region(R);
    const bool Root = R == T->root();
    NodeId EntryN = Root ? V.entry() : V.target(Reg.EntryEdge);
    NodeId ExitN = Root ? V.exit() : V.source(Reg.ExitEdge);
    assert(T->regionOfNode(EntryN) == R && T->regionOfNode(ExitN) == R);
    AddEdge(NQ, QOf[EntryN], Reg.EntryEdge);
    AddEdge(QOf[ExitN], NQ + 1, Reg.ExitEdge);

    const uint32_t O = T->immOffTable()[R] + T->childOffTable()[R] + 4 * R;
    const uint32_t E0 = EdgeBase[R];
    CfgView::fillCsr(NQ + 2, Cur - E0, NQ, NQ + 1, &Csr.SuccOff[O],
                     &Csr.PredOff[O], &Csr.SuccEdge[E0], &Csr.SuccTo[E0],
                     &Csr.PredEdge[E0], &Csr.PredFrom[E0], &Csr.EdgeSrc[E0],
                     &Csr.EdgeDst[E0]);
  }
  EdgeBase[NR] = Cur;
  assert(Cur == NumEdges && "the bodies partition the CFG's edges");
}

CollapsedBody BodyForest::body(RegionId R) const {
  CollapsedBody B;
  B.Imm = T->immediateNodes(R);
  B.Kids = T->children(R);
  const uint32_t O = T->immOffTable()[R] + T->childOffTable()[R] + 4 * R;
  const uint32_t E0 = EdgeBase[R], E = EdgeBase[R + 1] - E0;
  B.Graph = CfgView::adopt(B.numNodes() + 2, E, B.start(), B.end(),
                           &Csr.SuccOff[O], &Csr.PredOff[O],
                           &Csr.SuccEdge[E0], &Csr.SuccTo[E0],
                           &Csr.PredEdge[E0], &Csr.PredFrom[E0],
                           &Csr.EdgeSrc[E0], &Csr.EdgeDst[E0]);
  B.CfgEdge = std::span<const EdgeId>(CfgEdge).subspan(E0, E);
  B.EntryQ = B.Graph.target(E - 2);
  B.ExitQ = B.Graph.source(E - 1);
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
  const CfgView &V = B.Graph;
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
  BodyForest Bodies(V, T);
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
         << regionKindName(classifyRegion(Bodies.body(R)));
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
