//===- pst/dom/Dominators.h - (Post)dominator trees -------------*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and postdominator trees.
///
/// Two construction algorithms are provided and cross-checked in tests:
///  * \c buildIterative - the Cooper/Harvey/Kennedy two-finger intersection
///    over reverse postorder (simple, near-linear in practice).
///  * \c buildLengauerTarjan - the classic LT79 algorithm with path
///    compression, which is the baseline the paper benchmarks its cycle
///    equivalence algorithm against ("runs faster than Lengauer and
///    Tarjan's algorithm for finding dominators").
///
/// Postdominators are dominators of the reversed graph (a \c ReversedCfgView
/// keeps node ids, so the tree indexes the original nodes).
///
//===----------------------------------------------------------------------===//

#ifndef PST_DOM_DOMINATORS_H
#define PST_DOM_DOMINATORS_H

#include "pst/graph/CfgView.h"

#include <vector>

namespace pst {

/// An immediate-dominator tree over the nodes of a CFG.
class DomTree {
public:
  /// Builds the dominator tree of \p V rooted at its entry, using the
  /// Cooper-Harvey-Kennedy iterative algorithm: RPO and the idom fixpoint
  /// iterate the flat pred segments directly.
  static DomTree buildIterative(const CfgView &V);

  /// Builds the dominator tree of \p V rooted at its entry, using the
  /// Lengauer-Tarjan algorithm (the "simple" eval/link variant).
  static DomTree buildLengauerTarjan(const CfgView &V);

  /// Builds the postdominator tree of \p V (dominators of the reverse graph,
  /// rooted at exit), using the iterative algorithm. No reversed graph is
  /// materialized: the kernel runs on a \c ReversedCfgView, whose succ
  /// segments are the view's pred segments.
  static DomTree buildPostDom(const CfgView &V);

  /// Wraps an externally computed immediate-dominator array (e.g. from the
  /// PST divide-and-conquer builder); \p Idom[Root] must be InvalidNode.
  static DomTree fromIdom(NodeId Root, std::vector<NodeId> Idom);

  NodeId root() const { return Root; }

  /// Immediate dominator of \p N; InvalidNode for the root and for nodes
  /// unreachable from the root.
  NodeId idom(NodeId N) const { return Idom[N]; }

  /// Children of \p N in the dominator tree.
  const std::vector<NodeId> &children(NodeId N) const { return Kids[N]; }

  /// True if \p N is reachable from the root (the root itself included).
  bool isReachable(NodeId N) const { return N == Root || Idom[N] != InvalidNode; }

  /// Reflexive dominance query in O(1) (via tree intervals).
  bool dominates(NodeId A, NodeId B) const {
    if (!isReachable(A) || !isReachable(B))
      return false;
    return In[A] <= In[B] && Out[B] <= Out[A];
  }

  /// Irreflexive dominance query.
  bool strictlyDominates(NodeId A, NodeId B) const {
    return A != B && dominates(A, B);
  }

  /// Depth of \p N in the tree (root is 0). Unreachable nodes report 0.
  uint32_t depth(NodeId N) const { return Depth[N]; }

  uint32_t numNodes() const { return static_cast<uint32_t>(Idom.size()); }

  /// Approximate heap footprint in bytes (for cache accounting).
  size_t bytes() const {
    size_t B = Idom.capacity() * sizeof(NodeId) +
               Kids.capacity() * sizeof(std::vector<NodeId>) +
               (In.capacity() + Out.capacity() + Depth.capacity()) *
                   sizeof(uint32_t);
    for (const std::vector<NodeId> &K : Kids)
      B += K.capacity() * sizeof(NodeId);
    return B;
  }

private:
  void finalize(); // Builds Kids/In/Out/Depth from Idom.

  // Iterative kernel shared by the forward (dominator) and reversed
  // (postdominator) views; defined (and only instantiated) in
  // Dominators.cpp.
  template <class GraphT> static DomTree buildIterativeImpl(const GraphT &G);

  NodeId Root = InvalidNode;
  std::vector<NodeId> Idom;
  std::vector<std::vector<NodeId>> Kids;
  std::vector<uint32_t> In, Out, Depth;
};

/// Per-node dominance frontiers (Cytron et al.), computed from a dominator
/// tree. DF(n) = merges m such that n dominates a predecessor of m but does
/// not strictly dominate m.
class DominanceFrontiers {
public:
  /// Computes frontiers for \p V using dominator tree \p DT (which must have
  /// been built for \p V).
  DominanceFrontiers(const CfgView &V, const DomTree &DT);

  /// The frontier of \p N, sorted ascending, without duplicates.
  const std::vector<NodeId> &frontier(NodeId N) const { return DF[N]; }

  /// Iterated dominance frontier of the node set \p Defs (sorted, deduped).
  std::vector<NodeId> iterated(const std::vector<NodeId> &Defs) const;

  /// Approximate heap footprint in bytes (for cache accounting).
  size_t bytes() const {
    size_t B = DF.capacity() * sizeof(std::vector<NodeId>);
    for (const std::vector<NodeId> &F : DF)
      B += F.capacity() * sizeof(NodeId);
    return B;
  }

private:
  std::vector<std::vector<NodeId>> DF;
};

} // namespace pst

#endif // PST_DOM_DOMINATORS_H
