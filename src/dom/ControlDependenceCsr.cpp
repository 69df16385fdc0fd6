//===- ControlDependenceCsr.cpp - cdep as a CSR relation ------------------===//
//
// Part of the PST library (see ControlDependenceCsr.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dom/ControlDependenceCsr.h"

#include <cassert>

using namespace pst;

namespace {

/// The relation from the idom array of a postdominator tree of \p G rooted
/// at \p Root. For edge (C, M): the dependent nodes are M's pdt ancestors
/// up to — exclusive — ipdom(C). When C is the pdt root (or unreachable in
/// the reverse graph) nothing is excluded and the walk runs to the root
/// inclusive; when M is unreachable the edge contributes nothing.
/// Ascending edge ids land ascending within each slice.
NodeCsr cdepRelation(const CfgView &G, NodeId Root,
                     std::span<const NodeId> PostIdom, DomScratch &S) {
  assert(G.numNodes() == PostIdom.size() &&
         "postdom tree of a different graph");
  auto Reachable = [&](NodeId V) {
    return V == Root || PostIdom[V] != InvalidNode;
  };
  return NodeCsr(G.numNodes(), S.Cursor, [&](auto Emit) {
    for (EdgeId E = 0; E < G.numEdges(); ++E) {
      NodeId C = G.source(E), M = G.target(E);
      if (!Reachable(M))
        continue;
      NodeId Stop = Reachable(C) ? PostIdom[C] : InvalidNode;
      for (NodeId R = M; R != Stop && R != InvalidNode; R = PostIdom[R])
        Emit(R, E);
    }
  });
}

} // namespace

ControlDependenceCsr::ControlDependenceCsr(const CfgView &G,
                                           const DomTree &Pdt) {
  DomScratch S;
  Rel = cdepRelation(G, Pdt.root(), Pdt.idoms(), S);
}

ControlDependenceCsr::ControlDependenceCsr(const CfgView &G,
                                           std::span<const NodeId> PostIdom,
                                           DomScratch &S)
    : Rel(cdepRelation(G, G.exit(), PostIdom, S)) {}
