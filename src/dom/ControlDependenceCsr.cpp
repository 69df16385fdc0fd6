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
  // For edge (C, M): the dependent nodes are M's pdt ancestors up to —
  // exclusive — ipdom(C). When C is the pdt root (or unreachable in the
  // reverse graph) nothing is excluded and the walk runs to the root
  // inclusive; when M is unreachable the edge contributes nothing.
  // Ascending edge ids land ascending within each slice.
  Rel = NodeCsr(G.numNodes(), [&](auto Emit) {
    for (EdgeId E = 0; E < G.numEdges(); ++E) {
      NodeId C = G.source(E), M = G.target(E);
      if (!Pdt.isReachable(M))
        continue;
      NodeId Stop = Pdt.isReachable(C) ? Pdt.idom(C) : InvalidNode;
      for (NodeId R = M; R != Stop && R != InvalidNode; R = Pdt.idom(R))
        Emit(R, E);
    }
  });
}
