//===- Intervals.cpp - Allen-Cocke intervals -----------------------------------===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/graph/Intervals.h"

#include <algorithm>
#include <deque>

using namespace pst;

IntervalPartition pst::computeIntervals(const CfgView &G) {
  IntervalPartition P;
  uint32_t N = G.numNodes();
  P.IntervalOf.assign(N, UINT32_MAX);
  if (N == 0 || G.entry() == InvalidNode)
    return P;

  std::vector<bool> IsHeader(N, false);
  std::deque<NodeId> HeaderQueue{G.entry()};
  IsHeader[G.entry()] = true;

  while (!HeaderQueue.empty()) {
    NodeId H = HeaderQueue.front();
    HeaderQueue.pop_front();
    if (P.IntervalOf[H] != UINT32_MAX)
      continue;
    uint32_t Idx = static_cast<uint32_t>(P.Intervals.size());
    P.Intervals.push_back(IntervalPartition::Interval{H, {H}});
    P.IntervalOf[H] = Idx;

    // Grow: repeatedly absorb nodes whose every predecessor is inside.
    bool Grew = true;
    while (Grew) {
      Grew = false;
      // Scan the frontier (successors of current members).
      for (size_t I = 0; I < P.Intervals[Idx].Nodes.size(); ++I) {
        NodeId V = P.Intervals[Idx].Nodes[I];
        for (EdgeId E : G.succEdges(V)) {
          NodeId W = G.target(E);
          if (P.IntervalOf[W] != UINT32_MAX || IsHeader[W])
            continue;
          bool AllInside = true;
          for (EdgeId PE : G.predEdges(W)) {
            NodeId Pred = G.source(PE);
            if (Pred == W)
              continue; // A self loop becomes interval-internal (T1).
            if (P.IntervalOf[Pred] != Idx) {
              AllInside = false;
              break;
            }
          }
          if (AllInside) {
            P.IntervalOf[W] = Idx;
            P.Intervals[Idx].Nodes.push_back(W);
            Grew = true;
          }
        }
      }
    }
    // New headers: nodes entered from this interval but not absorbed.
    for (NodeId V : P.Intervals[Idx].Nodes)
      for (EdgeId E : G.succEdges(V)) {
        NodeId W = G.target(E);
        if (P.IntervalOf[W] == UINT32_MAX && !IsHeader[W]) {
          IsHeader[W] = true;
          HeaderQueue.push_back(W);
        }
      }
  }
  return P;
}

Cfg pst::derivedGraph(const Cfg &G, const IntervalPartition &P) {
  Cfg D;
  for (const auto &I : P.Intervals)
    D.addNode(G.nodeName(I.Header));
  // Deduplicate inter-interval edges so the derived sequence shrinks.
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    uint32_t A = P.IntervalOf[G.source(E)];
    uint32_t B = P.IntervalOf[G.target(E)];
    if (A != B && A != UINT32_MAX && B != UINT32_MAX)
      Edges.emplace_back(A, B);
  }
  std::sort(Edges.begin(), Edges.end());
  Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
  for (auto [A, B] : Edges)
    D.addEdge(A, B);
  if (G.entry() != InvalidNode)
    D.setEntry(P.IntervalOf[G.entry()]);
  if (G.exit() != InvalidNode && P.IntervalOf[G.exit()] != UINT32_MAX)
    D.setExit(P.IntervalOf[G.exit()]);
  return D;
}

Cfg pst::limitGraph(const Cfg &G, uint32_t *Steps) {
  Cfg Cur = G;
  uint32_t Count = 0;
  while (true) {
    IntervalPartition P = computeIntervals(FrozenCfg(Cur));
    if (P.Intervals.size() == Cur.numNodes())
      break; // Fixed point: no interval absorbed anything.
    Cur = derivedGraph(Cur, P);
    ++Count;
  }
  if (Steps)
    *Steps = Count;
  return Cur;
}

bool pst::isReducibleByIntervals(const Cfg &G) {
  return limitGraph(G).numNodes() <= 1;
}
