//===- CfgOfView.h - Test oracle: a Cfg rebuilt from a CfgView -*- C++ -*-===//
//
// Part of the PST library test suite.
//
// The library only ever freezes a Cfg into a view. Checks that take a Cfg
// (validateCfg, the interval-based reducibility test) run on views here
// through this rebuild: same node ids, same edge ids, same entry and exit.
//
//===----------------------------------------------------------------------===//

#ifndef PST_TESTS_CFGOFVIEW_H
#define PST_TESTS_CFGOFVIEW_H

#include "pst/graph/CfgView.h"

namespace pst {

inline Cfg cfgOfView(const CfgView &V) {
  Cfg G;
  G.reserveNodes(V.numNodes());
  G.reserveEdges(V.numEdges());
  for (NodeId N = 0; N < V.numNodes(); ++N)
    G.addNode();
  for (EdgeId E = 0; E < V.numEdges(); ++E)
    G.addEdge(V.source(E), V.target(E));
  G.setEntry(V.entry());
  G.setExit(V.exit());
  return G;
}

} // namespace pst

#endif // PST_TESTS_CFGOFVIEW_H
