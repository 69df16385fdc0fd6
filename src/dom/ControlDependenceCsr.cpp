//===- ControlDependenceCsr.cpp - cdep as a CSR relation ------------------===//
//
// Part of the PST library (see ControlDependenceCsr.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dom/ControlDependenceCsr.h"

#include <cassert>

using namespace pst;

ControlDependenceCsr::ControlDependenceCsr(const CfgView &G,
                                           const DomTree &Pdt) {
  assert(G.numNodes() == Pdt.numNodes() && "postdom tree of a different graph");
  const uint32_t N = G.numNodes();
  Off.assign(N + 1, 0);

  // For edge (C, M): the dependent nodes are M's pdt ancestors up to —
  // exclusive — ipdom(C). When C is the pdt root (or unreachable in the
  // reverse graph) nothing is excluded and the walk runs to the root
  // inclusive; when M is unreachable the edge contributes nothing.
  auto WalkStop = [&](NodeId C) -> NodeId {
    return Pdt.isReachable(C) ? Pdt.idom(C) : InvalidNode;
  };

  // Counting pass.
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId C = G.source(E), M = G.target(E);
    if (!Pdt.isReachable(M))
      continue;
    NodeId Stop = WalkStop(C);
    for (NodeId R = M; R != Stop && R != InvalidNode; R = Pdt.idom(R))
      ++Off[R + 1];
  }
  for (uint32_t I = 0; I < N; ++I)
    Off[I + 1] += Off[I];

  // Fill pass: ascending edge ids land ascending within each slice.
  Edges.resize(Off[N]);
  std::vector<uint32_t> Cursor(Off.begin(), Off.end() - 1);
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId C = G.source(E), M = G.target(E);
    if (!Pdt.isReachable(M))
      continue;
    NodeId Stop = WalkStop(C);
    for (NodeId R = M; R != Stop && R != InvalidNode; R = Pdt.idom(R))
      Edges[Cursor[R]++] = E;
  }
}
