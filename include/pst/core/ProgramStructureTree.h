//===- pst/core/ProgramStructureTree.h - The PST ----------------*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical SESE regions and the program structure tree (Section 2/3.6).
///
/// A SESE region is an ordered edge pair (a, b) with a dominating b, b
/// postdominating a, and a, b cycle equivalent (Definition 3). *Canonical*
/// regions are the smallest region each edge opens or closes (Definition
/// 5); by Theorem 1 they never partially overlap, so they form a tree under
/// containment — the PST.
///
/// Construction (Section 3.6): compute edge cycle equivalence classes on
/// G + (end -> start); within a class, edges are totally ordered by
/// dominance and a directed DFS from entry visits them in that order, so
/// consecutive pairs are the canonical regions. The same DFS discovers
/// nesting: entering a region's entry edge makes it the current region and
/// the previous current region its parent.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_PROGRAMSTRUCTURETREE_H
#define PST_CORE_PROGRAMSTRUCTURETREE_H

#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/graph/CfgView.h"

#include <span>
#include <vector>

namespace pst {

/// Dense index of a PST region.
using RegionId = uint32_t;
/// Sentinel for "no region".
inline constexpr RegionId InvalidRegion = ~RegionId(0);

/// Reusable working memory for PST construction.
///
/// Owns the cycle-equivalence solver scratch and the builder's own
/// transients: the edge-traversal clock, the two DFS walks' visited/stack
/// arrays, and the CSR class->edges grouping. With the buffers warm, a
/// build allocates only what the returned tree owns.
/// Same contract as \c CycleEquivScratch: contents between builds are
/// unspecified, results are independent of prior use, and one scratch must
/// not be shared by two threads at once.
struct PstBuildScratch {
  CycleEquivScratch CE;
  std::vector<uint32_t> EdgeTime;
  std::vector<uint8_t> Visited;
  std::vector<std::pair<NodeId, uint32_t>> Stack;
  // CSR grouping of real edges by cycle-equivalence class, each segment
  // sorted by traversal time.
  std::vector<uint32_t> ClassOff, ClassCursor;
  std::vector<EdgeId> ClassEdges;
  // Region-entry sequence of the replay DFS (feeds the children CSR) and
  // the shared scatter cursor for the tree's per-region CSR arrays.
  std::vector<RegionId> EntrySeq;
  std::vector<uint32_t> RegionCursor;
};

/// One canonical SESE region (or the synthetic root).
///
/// Deliberately flat (16 bytes, no owned containers): child lists and
/// immediate-node lists live in tree-level CSR arrays, reachable through
/// \c ProgramStructureTree::children / \c immediateNodes, so building a
/// tree costs a fixed number of allocations regardless of region count.
struct SeseRegion {
  /// Entry/exit edges; InvalidEdge for the synthetic root region.
  EdgeId EntryEdge = InvalidEdge;
  EdgeId ExitEdge = InvalidEdge;
  /// Parent region; InvalidRegion for the root.
  RegionId Parent = InvalidRegion;
  /// Nesting depth; the root has depth 0, top-level regions depth 1.
  uint32_t Depth = 0;
};

/// The program structure tree of one CFG.
///
/// Region 0 is always a synthetic root that represents the whole procedure
/// (it has no entry/exit edges); real canonical regions are 1..numRegions-1.
///
/// Storage comes in two flavors behind one read API. A *built* tree owns
/// its arrays (the vectors below) and every accessor reads them through
/// bound spans. An *adopted* tree (\c adoptExternal) points the same spans
/// at externally-owned flat arrays — in practice slices of a mapped corpus
/// image (pst/image) — so a mapped PST answers every query with zero copy
/// and zero allocation; it is valid only while that storage lives, and its
/// \c cycleEquiv() is empty (the classes are construction input, not a
/// query surface, and are not serialized).
class ProgramStructureTree {
public:
  ProgramStructureTree() = default;
  /// Copying rebinds the span table: an owning tree's copy owns fresh
  /// arrays; an adopted tree's copy aliases the same external storage.
  ProgramStructureTree(const ProgramStructureTree &O);
  ProgramStructureTree &operator=(const ProgramStructureTree &O);
  /// Moves transfer vector buffers, so bound spans stay valid as-is.
  ProgramStructureTree(ProgramStructureTree &&O) noexcept = default;
  ProgramStructureTree &operator=(ProgramStructureTree &&O) noexcept = default;

  /// Builds the PST of the CFG viewed by \p V (which must satisfy
  /// \c validateCfg) in O(N + E). Cycle equivalence consumes the view's
  /// adjacency directly and both construction DFS walks iterate its flat
  /// succ segments. Repeated builds through one warm scratch perform no
  /// transient heap allocations; this is the serial kernel the batch
  /// analyzer (pst/runtime) runs per worker thread.
  static ProgramStructureTree build(const CfgView &V, PstBuildScratch &Scratch);

  /// As above with a local scratch (for one-shot callers).
  static ProgramStructureTree build(const CfgView &V);

  /// As \c build, but with the cycle-equivalence classes already computed
  /// (\p CE must come from a return-edge run on \p V).
  static ProgramStructureTree buildWithCycleEquiv(const CfgView &V,
                                                  CycleEquivResult CE,
                                                  PstBuildScratch &Scratch);

  /// Wraps externally-owned arrays (with exactly the layout a built tree's
  /// arrays have) as a tree, with no copy or validation. The frozen-PST
  /// entry point of the corpus image: \c CorpusImage::pst returns one of
  /// these over its mapped sections, and every existing consumer that
  /// takes a \c const \c ProgramStructureTree& runs on it unmodified.
  static ProgramStructureTree
  adoptExternal(std::span<const SeseRegion> Regions,
                std::span<const RegionId> NodeRegion,
                std::span<const RegionId> EdgeRegion,
                std::span<const RegionId> EntryOf,
                std::span<const RegionId> ExitOf,
                std::span<const uint32_t> ChildOff,
                std::span<const RegionId> ChildVal,
                std::span<const uint32_t> ImmOff,
                std::span<const NodeId> ImmVal);

  RegionId root() const { return 0; }
  uint32_t numRegions() const { return static_cast<uint32_t>(RegionsA.size()); }
  /// Number of real canonical regions (excludes the synthetic root).
  uint32_t numCanonicalRegions() const { return numRegions() - 1; }

  const SeseRegion &region(RegionId R) const { return RegionsA[R]; }

  /// Innermost region containing node \p N (Definition 6); never invalid
  /// (the root contains everything).
  RegionId regionOfNode(NodeId N) const { return NodeRegionA[N]; }

  /// Innermost region whose body contains edge \p E. By convention an entry
  /// edge belongs to the region it opens and an exit edge to the region
  /// that encloses the boundary (its region's parent, or the sequentially
  /// following region when the edge also opens one).
  RegionId regionOfEdge(EdgeId E) const { return EdgeRegionA[E]; }

  /// Region whose entry edge is \p E, or InvalidRegion.
  RegionId regionEnteredBy(EdgeId E) const { return EntryOfA[E]; }
  /// Region whose exit edge is \p E, or InvalidRegion.
  RegionId regionExitedBy(EdgeId E) const { return ExitOfA[E]; }

  /// Immediately nested regions of \p R, in entry-edge traversal order.
  /// (A CSR segment of the tree-level child array; stable while the tree
  /// lives.)
  std::span<const RegionId> children(RegionId R) const {
    return ChildValA.subspan(ChildOffA[R], ChildOffA[R + 1] - ChildOffA[R]);
  }

  /// Nodes whose *innermost* region is \p R (i.e. excluding nodes hidden
  /// inside nested regions), in discovery order.
  std::span<const NodeId> immediateNodes(RegionId R) const {
    return ImmValA.subspan(ImmOffA[R], ImmOffA[R + 1] - ImmOffA[R]);
  }

  /// All nodes contained in \p R, including those of nested regions.
  std::vector<NodeId> allNodes(RegionId R) const;

  /// True if \p Inner is \p Outer or nested (transitively) inside it.
  bool contains(RegionId Outer, RegionId Inner) const;

  /// \name Flat array access
  /// The tree's whole arrays (the per-region accessors above read segments
  /// of these). For bulk consumers — the corpus image serializer memcpys
  /// them into its arena — and for whole-tree comparisons in tests.
  /// @{
  std::span<const SeseRegion> regionTable() const { return RegionsA; }
  std::span<const RegionId> nodeRegionTable() const { return NodeRegionA; }
  std::span<const RegionId> edgeRegionTable() const { return EdgeRegionA; }
  std::span<const RegionId> entryOfTable() const { return EntryOfA; }
  std::span<const RegionId> exitOfTable() const { return ExitOfA; }
  std::span<const uint32_t> childOffTable() const { return ChildOffA; }
  std::span<const RegionId> childValTable() const { return ChildValA; }
  std::span<const uint32_t> immOffTable() const { return ImmOffA; }
  std::span<const NodeId> immValTable() const { return ImmValA; }
  /// @}

  /// The edge cycle equivalence classes the construction was based on.
  /// Empty for adopted (mapped) trees: the classes are construction input,
  /// not part of the serialized query surface.
  const CycleEquivResult &cycleEquiv() const { return CE; }

  /// True if this tree aliases external storage (\c adoptExternal) rather
  /// than owning its arrays.
  bool isExternal() const { return External; }

private:
  /// Points every accessor span at the owned vectors. Called once when a
  /// build finishes and again whenever an owning tree is copied.
  void bindOwned();

  std::vector<SeseRegion> Regions;
  std::vector<RegionId> NodeRegion;
  std::vector<RegionId> EdgeRegion;
  std::vector<RegionId> EntryOf, ExitOf;
  // Children and immediate nodes as tree-level CSR arrays (region R's
  // segment is [Off[R], Off[R+1])): two allocations each instead of one
  // vector per region.
  std::vector<uint32_t> ChildOff;
  std::vector<RegionId> ChildVal;
  std::vector<uint32_t> ImmOff;
  std::vector<NodeId> ImmVal;
  CycleEquivResult CE;

  // The accessor table: spans over either the vectors above (owning trees)
  // or external storage (adopted trees). Construction fills the vectors
  // first and binds these once at the end.
  std::span<const SeseRegion> RegionsA;
  std::span<const RegionId> NodeRegionA;
  std::span<const RegionId> EdgeRegionA;
  std::span<const RegionId> EntryOfA, ExitOfA;
  std::span<const uint32_t> ChildOffA;
  std::span<const RegionId> ChildValA;
  std::span<const uint32_t> ImmOffA;
  std::span<const NodeId> ImmValA;
  bool External = false;
};

} // namespace pst

#endif // PST_CORE_PROGRAMSTRUCTURETREE_H
