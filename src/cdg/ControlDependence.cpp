//===- ControlDependence.cpp - Control dependence ----------------------------===//
//
// Part of the PST library (see ControlDependence.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlDependence.h"

#include <algorithm>

using namespace pst;

ControlDependence::ControlDependence(const CfgView &G)
    : PDT(DomTree::buildPostDom(G)) {
  uint32_t N = G.numNodes();
  Deps.assign(N, {});
  Dependents.assign(G.numEdges(), {});

  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId C = G.source(E), M = G.target(E);
    if (!PDT.isReachable(M) || !PDT.isReachable(C))
      continue;
    // Walk the postdominator tree from M up to (excluding) ipostdom(C).
    // Every node on the walk postdominates M but not strictly C.
    NodeId Stop = PDT.idom(C);
    for (NodeId Runner = M; Runner != Stop && Runner != InvalidNode;
         Runner = PDT.idom(Runner)) {
      Deps[Runner].push_back(E);
      Dependents[E].push_back(Runner);
      ++Size;
    }
  }
  for (auto &D : Deps)
    std::sort(D.begin(), D.end());
  for (auto &D : Dependents)
    std::sort(D.begin(), D.end());
}
