//===- pst/cycleequiv/CycleEquiv.h - Linear cycle equivalence ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's linear-time cycle equivalence algorithm (its Figure 4).
///
/// Two edges of a strongly connected graph are *cycle equivalent* iff every
/// cycle contains both or neither (Definition 4). Theorem 2 shows that edges
/// a, b of a CFG enclose a SESE region iff they are cycle equivalent in
/// S = G + (end -> start); Theorem 3 shows cycle equivalence in S equals
/// cycle equivalence in the *undirected* multigraph of S.
///
/// The algorithm runs one undirected DFS and, as the DFS finishes each
/// node, builds the node's *bracket list*: the backedges spanning the tree
/// edge into the node. Bracket sets are never compared wholesale;
/// each is compactly named by the pair <topmost bracket, set size>
/// (Theorem 6), with *capping backedges* inserted at branch nodes to keep
/// the name well-defined (Lemma 2). Every operation on the doubly-linked
/// bracket lists is O(1), giving O(E) total.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CYCLEEQUIV_CYCLEEQUIV_H
#define PST_CYCLEEQUIV_CYCLEEQUIV_H

#include "pst/graph/CfgView.h"

#include <cassert>
#include <span>
#include <vector>

namespace pst {

/// Sentinel class id meaning "not yet assigned".
inline constexpr uint32_t UndefinedClass = ~uint32_t(0);

/// Edge partition produced by the cycle equivalence algorithm.
struct CycleEquivResult {
  /// Class of each edge. Indexed by EdgeId; if the algorithm added the
  /// artificial return edge, its class is the extra last entry.
  std::vector<uint32_t> EdgeClass;
  /// Number of distinct classes.
  uint32_t NumClasses = 0;
  /// True if EdgeClass has the extra return-edge entry.
  bool HasReturnEdge = false;

  uint32_t classOf(EdgeId E) const {
    assert(E < EdgeClass.size() && "edge out of range");
    return EdgeClass[E];
  }

  /// Class of the artificial end->start edge.
  uint32_t returnEdgeClass() const {
    assert(HasReturnEdge && "no return edge was added");
    return EdgeClass.back();
  }
};

/// Reusable working memory for the Figure-4 solver.
///
/// Every transient array the solver needs — the CSR undirected adjacency,
/// the DFS stack of per-node frames, the bracket arena (cells + edge
/// records, stored structure-of-arrays), the capping backedge
/// registrations and the class renumbering — lives here instead of on the
/// solver's own stack. A run sizes each vector with assign/clear, which
/// reuses the capacity left by previous runs, so after warm-up a
/// scratch-backed run performs no heap allocations beyond the result
/// vector it returns (and none at all for the runs that leave their
/// classes here, see \c CycleEquivClasses).
///
/// Contents between runs are unspecified; the only contract is that a
/// scratch may be reused for inputs of any size (larger inputs grow the
/// buffers, smaller ones leave the excess capacity in place) and that runs
/// are bit-deterministic in the input regardless of what the scratch held
/// before. One scratch must not be used by two threads at once.
struct CycleEquivScratch {
  // CSR undirected adjacency: node V's incident (edge, other endpoint)
  // pairs sit at [AdjOff[V], AdjOff[V+1]).
  std::vector<uint32_t> AdjOff;
  std::vector<uint32_t> AdjEdge;
  std::vector<NodeId> AdjOther;
  std::vector<uint32_t> SelfLoops;

  // Undirected DFS: each node's depth in the DFS tree (its stack index
  // while it is on the stack) and the tree edge from its parent.
  std::vector<uint32_t> Depth;
  std::vector<uint32_t> ParentEdge;

  /// The DFS stack entry of a node on the current root path, holding all
  /// of the node's Figure-4 state: its next adjacency slot, its DFS
  /// (preorder) number, its children's highest and second-highest reach,
  /// its bracket list and the capping backedges registered on it (an
  /// intrusive singly linked list through \c CapNext).
  struct DfsFrame {
    NodeId Node;
    uint32_t Next, Pre;
    uint32_t Hi1, Hi2;
    uint32_t Head, Tail, Size;
    uint32_t CapHead;
  };
  std::vector<DfsFrame> Stack;
  std::vector<uint32_t> CapNext;

  // Edge records (real + capping), structure-of-arrays.
  std::vector<uint32_t> RecClass, RecRecentSize, RecRecentClass, RecCell;
  // Bracket arena cells.
  std::vector<uint32_t> CellRec, CellPrev, CellNext;
  // Per class: the DFS number of the node that created it, for the
  // renumbering at the end of a run.
  std::vector<uint32_t> ClassPre;

  // Partial T(S): each node's in and out half (one id unless the node is
  // split); then the per-node classes of the run.
  std::vector<NodeId> InHalf, OutHalf;
  std::vector<uint32_t> NodeClass;
  // Class id -> dense id map for consumers that renumber a run's classes.
  std::vector<uint32_t> ClassRemap;
};

/// The classes of a run that leaves its result in a \c CycleEquivScratch.
/// The spans point into that scratch and stay valid until its next run.
struct CycleEquivClasses {
  /// One class per edge of S = G + (exit -> entry), in EdgeId order with
  /// the return edge last (numEdges() + 1 entries).
  std::span<const uint32_t> EdgeClass;
  /// One class per node, comparable with \c EdgeClass (partial-T(S) runs
  /// only; empty otherwise).
  std::span<const uint32_t> NodeClass;
  /// Number of distinct classes; ids are dense in [0, NumClasses).
  uint32_t NumClasses = 0;
};

/// Computes edge cycle equivalence classes of the CFG viewed by \p V.
///
/// If \p AddReturnEdge is true, the artificial end -> start edge is added
/// (implicitly: it never appears in the view), making the graph strongly
/// connected as Theorem 2 requires; \p V must then view a valid CFG, and
/// the result's extra last entry is the return edge's class. If false, the
/// graph itself must already be strongly connected.
///
/// No counting pass runs: the solver's undirected incidence lists are
/// written directly by merging each node's succ and pred CSR segments.
/// O(N + E) time and space; allocation-free but for the returned vector
/// once \p Scratch is warm.
CycleEquivResult computeCycleEquivalence(const CfgView &V, bool AddReturnEdge,
                                         CycleEquivScratch &Scratch);

/// As above with a local scratch (for one-shot callers).
CycleEquivResult computeCycleEquivalence(const CfgView &V,
                                         bool AddReturnEdge = true);

/// The same run on S = G + (exit -> entry) (\p V must view a valid CFG),
/// with the classes left in \p Scratch: no allocation once it is warm.
/// This is the PST's own run (\c ProgramStructureTree::build).
CycleEquivClasses computeCycleEquivalenceInPlace(const CfgView &V,
                                                 CycleEquivScratch &Scratch);

/// One Figure-4 run that yields both S's edge classes and every node's
/// class (paper Theorems 7-8), over a *partial* node expansion of S.
///
/// Theorem 8 reads node classes off the representative edges of the
/// node-expanded graph T(S). Expansion preserves cycles, so an S edge's
/// class in T(S) is its class in S. And a node with exactly one in-edge
/// or exactly one out-edge in S (the return edge and self loops counted)
/// is cycle equivalent to that edge: one half of its expansion has degree
/// two. So only nodes with at least two in-edges and two out-edges are
/// split, into an in half and an out half joined by a representative edge
/// (id numEdges + 1 + k for the k-th split node, in node order). S edges
/// keep their ids and the return edge is id numEdges. Halves are numbered
/// in node order, a split node's two adjacent, so the solver's per-node
/// arrays keep the view's locality. \p V must view a valid CFG. The result
/// (both spans filled) stays in \p Scratch; no allocation once it is warm.
CycleEquivClasses
computeCycleEquivalencePartialTs(const CfgView &V, CycleEquivScratch &Scratch);

/// Cycle equivalence over the node-expanded graph T(S) of the paper's
/// control-region construction, in T(S)'s edge numbering: node V splits
/// into V_in = 2V and V_out = 2V+1 joined by representative edge id V;
/// original edge E becomes id numNodes+E from 2*src(E)+1 to 2*dst(E); the
/// return edge (id numNodes+numEdges) closes 2*exit+1 -> 2*entry. Runs
/// \c computeCycleEquivalencePartialTs and maps its classes onto those ids
/// (a representative edge takes its node's class), so the partition and
/// NumClasses are those of a run over the full T(S).
CycleEquivResult computeCycleEquivalenceTs(const CfgView &V,
                                           CycleEquivScratch &Scratch);

} // namespace pst

#endif // PST_CYCLEEQUIV_CYCLEEQUIV_H
