//===- pst/core/PstDominators.h - D&C dominators via the PST ----*- C++ -*-===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 6.3 of the paper sketches a divide-and-conquer dominator
/// algorithm: "first, build the dominator tree of each SESE region, and
/// then piece together the local trees using global structure (nesting)
/// information in the PST". This implements that sketch.
///
/// Why it works: a SESE region has a single entrance, so (a) the entry
/// node's immediate dominator is simply the source of the region's entry
/// edge, and (b) dominance between two nodes of a region body is decided
/// by the region-internal paths alone (every path from the procedure entry
/// ends with a segment that enters through the entry edge and stays
/// inside). A collapsed child acts as one step; when a node's local idom
/// is a collapsed child, the real idom is the source of that child's exit
/// edge (the last node every path through the child visits).
///
/// The practical payoff the paper anticipates is incrementality: editing
/// one region only invalidates that region's local tree.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_PSTDOMINATORS_H
#define PST_CORE_PSTDOMINATORS_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/dom/Dominators.h"

namespace pst {

/// Builds the dominator tree of \p V by solving each PST region's
/// collapsed body independently and stitching the results. Produces
/// exactly the tree of \c DomTree::buildIterative (tested).
DomTree buildDominatorsViaPst(const CfgView &V, const ProgramStructureTree &T);

} // namespace pst

#endif // PST_CORE_PSTDOMINATORS_H
