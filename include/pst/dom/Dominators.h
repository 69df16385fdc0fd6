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
/// Postdominators are dominators of the reversed graph (\c CfgView::reversed
/// keeps node ids, so the tree indexes the original nodes).
///
/// Tree children and frontiers are \c NodeCsr relations, the layout the
/// control-dependence CSR shares.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DOM_DOMINATORS_H
#define PST_DOM_DOMINATORS_H

#include "pst/graph/CfgView.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pst {

/// The one layout of every dominator-derived relation (tree children,
/// dominance frontiers, control dependence): N + 1 row offsets followed by
/// the values, in one buffer, so a relation is one allocation whatever its
/// size and its footprint is exactly the buffer. Immutable once built.
class NodeCsr {
public:
  NodeCsr() = default;

  /// Builds the relation over \p NumNodes rows. \p ForEachPair(Emit) must
  /// call `Emit(Row, Value)` once per pair, in the order each row lists its
  /// values. It runs twice (count, then fill) and must emit the same pairs
  /// both times; no per-row containers, no sort. \p Cursor is scratch for
  /// the row cursors: it only grows, so with it warm the relation's buffer
  /// is the one allocation.
  template <class ForEachPairT>
  NodeCsr(uint32_t NumNodes, std::vector<uint32_t> &Cursor,
          ForEachPairT ForEachPair)
      : Rows(NumNodes) {
    Cursor.assign(NumNodes + 1, 0);
    ForEachPair([&](uint32_t Row, uint32_t) { ++Cursor[Row + 1]; });
    for (uint32_t I = 0; I < NumNodes; ++I)
      Cursor[I + 1] += Cursor[I];
    Buf.resize(NumNodes + 1 + Cursor[NumNodes]);
    std::copy(Cursor.begin(), Cursor.begin() + NumNodes + 1, Buf.begin());
    ForEachPair([&](uint32_t Row, uint32_t Value) {
      Buf[NumNodes + 1 + Cursor[Row]++] = Value;
    });
  }

  /// Row \p N's values, in enumeration order.
  std::span<const uint32_t> row(uint32_t N) const {
    return std::span<const uint32_t>(Buf).subspan(Rows + 1 + Buf[N],
                                                  Buf[N + 1] - Buf[N]);
  }

  uint32_t numNodes() const { return Rows; }

  /// Total pairs in the relation.
  uint64_t size() const { return Buf.empty() ? 0 : Buf.size() - Rows - 1; }

  /// Heap footprint in bytes: exactly the buffer.
  size_t bytes() const { return Buf.size() * sizeof(uint32_t); }

private:
  uint32_t Rows = 0;
  std::vector<uint32_t> Buf; // Rows + 1 offsets, then the values.
};

/// Reusable working memory for the dominator kernel and for the frontier
/// and control-dependence fills that read its idom arrays. Buffers only
/// grow, so with them warm the kernel allocates nothing and each fill
/// allocates only its relation's buffer. Contents between calls are
/// unspecified apart from \c Idom, the last kernel run's output; one
/// scratch must not be shared by two threads at once.
struct DomScratch {
  /// Immediate dominator per node, written by \c immediateDominators.
  std::vector<NodeId> Idom;
  /// The nodes reached from the root, in DFS postorder.
  std::vector<NodeId> Postorder;
  /// Postorder number per node; UINT32_MAX for unreached nodes.
  std::vector<uint32_t> PoNum;
  /// The DFS stack: a node and its next successor index.
  std::vector<std::pair<NodeId, uint32_t>> Stack;
  /// The frontier fill's per-node last merge, which drops repeats.
  std::vector<NodeId> Last;
  /// Row cursors of the relation being filled (see \c NodeCsr).
  std::vector<uint32_t> Cursor;
};

/// Immediate dominators of \p V's nodes from its entry, by the
/// Cooper-Harvey-Kennedy two-finger intersection over postorder numbers,
/// iterating the flat pred segments. The result is \p S.Idom: InvalidNode
/// for the entry and for nodes unreachable from it. Postdominators are
/// this kernel on \c V.reversed(), with nothing materialized. Allocates
/// nothing once \p S is warm. Every dominator tree in the library except
/// \c DomTree::buildLengauerTarjan (the cross-check) comes from here.
std::span<const NodeId> immediateDominators(const CfgView &V, DomScratch &S);

/// An immediate-dominator tree over the nodes of a CFG.
class DomTree {
public:
  /// Builds the dominator tree of \p V rooted at its entry: the tree
  /// around \c immediateDominators.
  static DomTree buildIterative(const CfgView &V);

  /// Builds the dominator tree of \p V rooted at its entry, using the
  /// Lengauer-Tarjan algorithm (the "simple" eval/link variant).
  static DomTree buildLengauerTarjan(const CfgView &V);

  /// Builds the postdominator tree of \p V (dominators of the reverse graph,
  /// rooted at exit): \c buildIterative on \c V.reversed(), whose succ
  /// segments are the view's pred segments, so nothing is materialized.
  static DomTree buildPostDom(const CfgView &V);

  /// Wraps an externally computed immediate-dominator array (e.g. from the
  /// PST divide-and-conquer builder); \p Idom[Root] must be InvalidNode.
  static DomTree fromIdom(NodeId Root, std::vector<NodeId> Idom);

  NodeId root() const { return Root; }

  /// Immediate dominator of \p N; InvalidNode for the root and for nodes
  /// unreachable from the root.
  NodeId idom(NodeId N) const { return Idom[N]; }

  /// Children of \p N in the dominator tree, ascending by node id.
  std::span<const NodeId> children(NodeId N) const { return Kids.row(N); }

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

  uint32_t numNodes() const { return static_cast<uint32_t>(Idom.size()); }

  /// The immediate-dominator array, one entry per node.
  std::span<const NodeId> idoms() const { return Idom; }

private:
  void finalize(); // Builds Kids/In/Out from Idom.

  NodeId Root = InvalidNode;
  std::vector<NodeId> Idom;
  NodeCsr Kids;
  std::vector<uint32_t> In, Out;
};

/// Per-node dominance frontiers (Cytron et al.), computed from a dominator
/// tree. DF(n) = merges m such that n dominates a predecessor of m but does
/// not strictly dominate m. Self-contained after construction.
class DominanceFrontiers {
public:
  /// Computes frontiers for \p V using dominator tree \p DT (which must have
  /// been built for \p V).
  DominanceFrontiers(const CfgView &V, const DomTree &DT);

  /// As above from the tree's idom array alone (\c immediateDominators of
  /// \p V), with \p S's cursors: one allocation, the frontier buffer.
  DominanceFrontiers(const CfgView &V, std::span<const NodeId> Idom,
                     DomScratch &S);

  /// The frontier of \p N, sorted ascending, without duplicates.
  std::span<const NodeId> frontier(NodeId N) const { return DF.row(N); }

  /// Iterated dominance frontier of the node set \p Defs (sorted, deduped).
  /// \p Defs may hold duplicates and need not be sorted.
  std::vector<NodeId> iterated(std::span<const NodeId> Defs) const;

  /// As above, into caller-owned buffers: \p Result is overwritten with
  /// the blocks, and \p Work and \p Mark are scratch that only grow, so a
  /// warm call allocates nothing. \p Mark must be all zero on entry (a
  /// fresh vector is), and the call leaves it so, whatever the size of the
  /// graph the buffers last served.
  void iterated(std::span<const NodeId> Defs, std::vector<NodeId> &Result,
                std::vector<NodeId> &Work, std::vector<uint8_t> &Mark) const;

  /// Heap footprint in bytes (for cache accounting).
  size_t bytes() const { return DF.bytes(); }

private:
  NodeCsr DF;
};

} // namespace pst

#endif // PST_DOM_DOMINATORS_H
