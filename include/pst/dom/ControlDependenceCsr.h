//===- pst/dom/ControlDependenceCsr.h - cdep as a CSR relation --*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full Ferrante/Ottenstein/Warren control-dependence relation of one
/// CFG, materialized as a CSR (node -> controlling edges slice).
///
/// N is control dependent on edge (C, M) iff N postdominates M and does
/// not strictly postdominate C. For a fixed edge, that set is exactly the
/// postdominator-tree ancestors of M up to — exclusive — ipdom(C)
/// (inclusive of the pdt root when C is the root or unreachable in the
/// reverse graph; empty when M is unreachable), which is how the
/// construction here walks it into a \c NodeCsr. Edges are visited in
/// ascending id order, so each node's slice comes out sorted ascending —
/// the same order a direct all-edges scan (`dominates(N, M) &&
/// !(N != C && dominates(N, C))`) produces, which the serving layer's
/// cached-vs-uncached byte-identity gate relies on.
///
/// Construction is O(size of the relation) after the postdominator tree,
/// and a per-node query is a slice lookup — the precomputed-relation
/// treatment of control dependence (cf. Chalupa et al., arXiv 2011.01564)
/// that turns the server's per-query O(E) scans into slice copies.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DOM_CONTROLDEPENDENCECSR_H
#define PST_DOM_CONTROLDEPENDENCECSR_H

#include "pst/dom/Dominators.h"

#include <span>

namespace pst {

/// The control-dependence relation of one CFG as node-indexed CSR edge
/// slices. Self-contained after construction.
class ControlDependenceCsr {
public:
  /// Builds the relation for \p V using \p Pdt, which must be
  /// \c DomTree::buildPostDom of the same graph.
  ControlDependenceCsr(const CfgView &V, const DomTree &Pdt);

  /// As above from the postdominator tree's idom array alone
  /// (\c immediateDominators of \c V.reversed()), with \p S's cursors:
  /// one allocation, the relation's buffer.
  ControlDependenceCsr(const CfgView &V, std::span<const NodeId> PostIdom,
                       DomScratch &S);

  /// The edges node \p N is control dependent on, ascending by edge id.
  std::span<const EdgeId> controllingEdges(NodeId N) const {
    return Rel.row(N);
  }

  /// Total (node, edge) pairs in the relation.
  uint64_t relationSize() const { return Rel.size(); }

  /// Heap footprint in bytes (for cache accounting).
  size_t bytes() const { return Rel.bytes(); }

private:
  NodeCsr Rel;
};

} // namespace pst

#endif // PST_DOM_CONTROLDEPENDENCECSR_H
