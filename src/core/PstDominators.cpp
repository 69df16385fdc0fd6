//===- PstDominators.cpp - D&C dominators via the PST --------------------------===//
//
// Part of the PST library (see PstDominators.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/core/PstDominators.h"

#include "pst/core/RegionAnalysis.h"

#include <cassert>

using namespace pst;

DomTree pst::buildDominatorsViaPst(const CfgView &G,
                                   const ProgramStructureTree &T) {
  std::vector<NodeId> Idom(G.numNodes(), InvalidNode);

  BodyForest Bodies(G, T);
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    CollapsedBody B = Bodies.body(R);

    // Local dominators of the collapsed body, rooted at its Start (which
    // stands for the region's entry edge).
    DomTree Local = DomTree::buildIterative(B.Graph);

    // The children's own solves handle their interiors.
    for (uint32_t QN = 0; QN < B.Imm.size(); ++QN) {
      NodeId N = B.node(QN);
      if (QN == B.EntryQ) {
        // The region's entry node: dominated directly by the entry edge's
        // source (in the parent's body). The procedure entry is the global
        // root and keeps InvalidNode.
        if (R != T.root())
          Idom[N] = G.source(T.region(R).EntryEdge);
        continue;
      }
      uint32_t L = Local.idom(QN);
      assert(L != InvalidNode && "body node unreachable from entry");
      // The CFG node that dominates everything "after" quotient node L:
      // itself for an immediate node, the exit-edge source for a collapsed
      // child (the last node on every path through the child).
      Idom[N] = B.isRegion(L) ? G.source(T.region(B.region(L)).ExitEdge)
                              : B.node(L);
    }
  }

  return DomTree::fromIdom(G.entry(), std::move(Idom));
}
