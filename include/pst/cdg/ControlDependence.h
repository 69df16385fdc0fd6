//===- pst/cdg/ControlDependence.h - Control dependence ---------*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control dependence (Definition 8, after Ferrante/Ottenstein/Warren).
///
/// A node n is control dependent on node c with direction l (an edge
/// c -> m) iff n postdominates every node after c on some path starting
/// with l and, when distinct, n does not postdominate c. The standard
/// postdominator characterization is: n is control dependent on edge
/// (c, m) iff n postdominates m and n does not *strictly* postdominate c.
/// We materialize, per node, its set of controlling edges by walking the
/// postdominator tree from m up to (excluding) ipostdom(c) for each edge.
///
/// This is the substrate for the two baseline control-region algorithms
/// the paper improves on (FOW87 set hashing, CFS90 partition refinement).
/// The relation itself is Theta(N*E) in the worst case, which is exactly
/// why the paper's linear algorithm avoids materializing it.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CDG_CONTROLDEPENDENCE_H
#define PST_CDG_CONTROLDEPENDENCE_H

#include "pst/dom/Dominators.h"

#include <vector>

namespace pst {

/// The materialized control dependence relation of one CFG.
class ControlDependence {
public:
  /// Computes the full relation. O(N * E) worst case.
  explicit ControlDependence(const CfgView &V);

  /// Edges node \p N is control dependent on, sorted ascending.
  const std::vector<EdgeId> &dependences(NodeId N) const {
    return Deps[N];
  }

  /// Nodes control dependent on edge \p E, sorted ascending.
  const std::vector<NodeId> &dependents(EdgeId E) const {
    return Dependents[E];
  }

  /// Total number of (node, edge) pairs in the relation.
  uint64_t relationSize() const { return Size; }

  /// The postdominator tree the relation was derived from.
  const DomTree &postDom() const { return PDT; }

private:
  DomTree PDT;
  std::vector<std::vector<EdgeId>> Deps;
  std::vector<std::vector<NodeId>> Dependents;
  uint64_t Size = 0;
};

} // namespace pst

#endif // PST_CDG_CONTROLDEPENDENCE_H
