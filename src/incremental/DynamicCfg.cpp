//===- DynamicCfg.cpp - Editable CFG with a journal --------------------------===//
//
// Part of the PST library (see DynamicCfg.h for the contract).
//
//===----------------------------------------------------------------------===//

#include "pst/incremental/DynamicCfg.h"

#include "pst/graph/CfgAlgorithms.h"

#include <cassert>
#include <utility>

using namespace pst;

DynamicCfg::DynamicCfg(Cfg Initial) : G(std::move(Initial)) {
  assert(validateCfg(G) && "DynamicCfg requires a valid CFG");
  Dead.assign(G.numEdges(), false);
  LiveEdges = G.numEdges();
}

EdgeId DynamicCfg::addEdgeRaw(NodeId Src, NodeId Dst) {
  EdgeId E = G.addEdge(Src, Dst);
  Dead.push_back(false);
  ++LiveEdges;
  return E;
}

EdgeId DynamicCfg::insertEdge(NodeId Src, NodeId Dst) {
  assert(Src < G.numNodes() && Dst < G.numNodes() && "node out of range");
  if (Dst == G.entry() || Src == G.exit())
    return InvalidEdge; // Would violate Definition 1.
  EdgeId E = addEdgeRaw(Src, Dst);
  Journal.push_back(
      CfgEdit{CfgEdit::Kind::InsertEdge, E, Src, Dst, InvalidNode, {}});
  return E;
}

bool DynamicCfg::deleteEdge(EdgeId E) {
  assert(E < G.numEdges() && !Dead[E] && "edge not live");
  if (!validWithoutEdge(E))
    return false;
  deleteEdgeUnchecked(E);
  return true;
}

void DynamicCfg::deleteEdgeUnchecked(EdgeId E) {
  assert(E < G.numEdges() && !Dead[E] && "edge not live");
  Dead[E] = true;
  --LiveEdges;
  Journal.push_back(CfgEdit{CfgEdit::Kind::DeleteEdge, E, G.source(E),
                            G.target(E), InvalidNode, {}});
}

NodeId DynamicCfg::splitBlock(EdgeId E, std::string Label) {
  assert(E < G.numEdges() && !Dead[E] && "edge not live");
  NodeId Src = G.source(E), Dst = G.target(E);
  NodeId M = G.addNode(std::move(Label));
  Dead[E] = true;
  --LiveEdges;
  EdgeId E1 = addEdgeRaw(Src, M);
  EdgeId E2 = addEdgeRaw(M, Dst);
  Journal.push_back(
      CfgEdit{CfgEdit::Kind::SplitBlock, E, Src, Dst, M, {E1, E2}});
  return M;
}

NodeId DynamicCfg::addBlock(NodeId Src, NodeId Dst, std::string Label) {
  assert(Src < G.numNodes() && Dst < G.numNodes() && "node out of range");
  if (Dst == G.entry() || Src == G.exit())
    return InvalidNode;
  NodeId M = G.addNode(std::move(Label));
  EdgeId E1 = addEdgeRaw(Src, M);
  EdgeId E2 = addEdgeRaw(M, Dst);
  Journal.push_back(
      CfgEdit{CfgEdit::Kind::AddBlock, InvalidEdge, Src, Dst, M, {E1, E2}});
  return M;
}

bool DynamicCfg::validWithoutEdge(EdgeId Skip) const {
  uint32_t N = G.numNodes();
  // Forward sweep from entry, then backward sweep from exit, over live
  // edges minus Skip. Every node must be hit by both.
  auto Sweep = [&](NodeId Root, bool Forward) {
    std::vector<bool> Seen(N, false);
    std::vector<NodeId> Work{Root};
    Seen[Root] = true;
    uint32_t Count = 1;
    while (!Work.empty()) {
      NodeId V = Work.back();
      Work.pop_back();
      const auto &Edges = Forward ? G.succEdges(V) : G.predEdges(V);
      for (EdgeId E : Edges) {
        if (Dead[E] || E == Skip)
          continue;
        NodeId W = Forward ? G.target(E) : G.source(E);
        if (!Seen[W]) {
          Seen[W] = true;
          ++Count;
          Work.push_back(W);
        }
      }
    }
    return Count;
  };
  return Sweep(G.entry(), true) == N && Sweep(G.exit(), false) == N;
}

Cfg DynamicCfg::materialize(std::vector<EdgeId> *GlobalOfCompact,
                            std::vector<EdgeId> *CompactOfGlobal) const {
  Cfg M;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    M.addNode(G.node(N).Label);
  if (GlobalOfCompact)
    GlobalOfCompact->clear();
  if (CompactOfGlobal)
    CompactOfGlobal->assign(G.numEdges(), InvalidEdge);
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    if (Dead[E])
      continue;
    EdgeId C = M.addEdge(G.source(E), G.target(E));
    if (GlobalOfCompact)
      GlobalOfCompact->push_back(E);
    if (CompactOfGlobal)
      (*CompactOfGlobal)[E] = C;
  }
  M.setEntry(G.entry());
  M.setExit(G.exit());
  return M;
}

CfgView DynamicCfg::view(CfgViewScratch &S) const {
  const uint32_t N = G.numNodes();
  S.SuccOff.assign(N + 2, 0);
  S.PredOff.assign(N + 2, 0);
  S.SuccEdge.resize(LiveEdges);
  S.SuccTo.resize(LiveEdges);
  S.PredEdge.resize(LiveEdges);
  S.PredFrom.resize(LiveEdges);
  S.EdgeSrc.resize(LiveEdges);
  S.EdgeDst.resize(LiveEdges);
  EdgeId C = 0;
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    if (Dead[E])
      continue;
    S.EdgeSrc[C] = G.source(E);
    S.EdgeDst[C] = G.target(E);
    ++C;
  }
  assert(C == LiveEdges && "live-edge count drifted");
  return CfgView::fillCsr(N, LiveEdges, G.entry(), G.exit(), S.SuccOff.data(),
                          S.PredOff.data(), S.SuccEdge.data(), S.SuccTo.data(),
                          S.PredEdge.data(), S.PredFrom.data(),
                          S.EdgeSrc.data(), S.EdgeDst.data());
}
