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

  for (RegionId R = 0; R < T.numRegions(); ++R) {
    CollapsedBody B = collapseRegion(G, T, R);

    // Local dominators of the collapsed body, rooted at its Start (which
    // stands for the region's entry edge).
    DomTree Local = DomTree::buildIterative(B.view());

    // Maps a quotient node to the CFG node that dominates everything
    // "after" it: itself for immediate nodes, the exit-edge source for a
    // collapsed child (the last node on every path through the child).
    auto MapDominator = [&](uint32_t QN) -> NodeId {
      const auto &Node = B.Nodes[QN];
      if (!Node.IsRegion)
        return Node.Node;
      return G.source(T.region(Node.Region).ExitEdge);
    };

    for (uint32_t QN = 0; QN < B.numNodes(); ++QN) {
      const auto &Node = B.Nodes[QN];
      if (Node.IsRegion)
        continue; // The child's own solve handles its interior.
      NodeId N = Node.Node;
      if (QN == B.EntryQ) {
        // The region's entry node: dominated directly by the entry edge's
        // source (in the parent's body). The procedure entry is the global
        // root and keeps InvalidNode.
        if (R != T.root())
          Idom[N] = G.source(T.region(R).EntryEdge);
        continue;
      }
      uint32_t LocalIdom = Local.idom(QN);
      assert(LocalIdom != InvalidNode && "body node unreachable from entry");
      Idom[N] = MapDominator(LocalIdom);
    }
  }

  return DomTree::fromIdom(G.entry(), std::move(Idom));
}
