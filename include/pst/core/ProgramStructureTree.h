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
/// dominance and a directed DFS from entry traverses them in that order,
/// so consecutive pairs are the canonical regions. One such DFS pairs,
/// nests and places at once: a traversed edge closes the region its
/// class's previous edge opened (the current region pops to that region's
/// parent) and, unless it is its class's last edge, opens the next region
/// with the current region as parent; each node lands in the region
/// current when the DFS first reaches it.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_PROGRAMSTRUCTURETREE_H
#define PST_CORE_PROGRAMSTRUCTURETREE_H

#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/graph/CfgView.h"

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace pst {

/// Dense index of a PST region.
using RegionId = uint32_t;
/// Sentinel for "no region".
inline constexpr RegionId InvalidRegion = ~RegionId(0);

/// One canonical SESE region (or the synthetic root).
///
/// Deliberately flat (16 bytes, no owned containers): child lists and
/// immediate-node lists live in tree-level CSR arrays, reachable through
/// \c ProgramStructureTree::children / \c immediateNodes, so a built tree
/// is one allocation regardless of region count.
struct SeseRegion {
  /// Entry/exit edges; InvalidEdge for the synthetic root region.
  EdgeId EntryEdge = InvalidEdge;
  EdgeId ExitEdge = InvalidEdge;
  /// Parent region; InvalidRegion for the root.
  RegionId Parent = InvalidRegion;
  /// Nesting depth; the root has depth 0, top-level regions depth 1.
  uint32_t Depth = 0;
};

/// Reusable working memory for PST construction.
///
/// Owns the cycle-equivalence solver scratch (whose classes \c build
/// consumes in place) and the builder's own transients: the directed
/// DFS's stack, two per-class arrays, the regions in entry order and
/// the renumbering's per-region arrays; none is sized by the edge count.
/// With the buffers warm, a build allocates only the returned tree's one
/// buffer. Same contract as \c CycleEquivScratch: contents between builds
/// are unspecified, results are independent of prior use, and one scratch
/// must not be shared by two threads at once.
struct PstBuildScratch {
  CycleEquivScratch CE;
  std::vector<std::pair<NodeId, uint32_t>> Stack;
  // Per class: its real edges the DFS has yet to traverse, and the region
  // its last traversed edge opened (or InvalidRegion).
  std::vector<uint32_t> ClassLeft;
  std::vector<RegionId> ClassOpen;
  // Regions in entry order (the DFS's temporary ids) and each one's final
  // (preorder) id.
  std::vector<SeseRegion> Paired;
  std::vector<RegionId> PreorderId;
  // Subtree sizes / next free ids of the renumbering, then the scatter
  // cursor for the tree's per-region CSR arrays.
  std::vector<uint32_t> RegionCursor;
};

/// The program structure tree of one CFG.
///
/// Region 0 is always a synthetic root that represents the whole procedure
/// (it has no entry/exit edges); real canonical regions are 1..numRegions-1.
/// Ids follow a preorder of the tree, children in entry-edge traversal
/// order: they depend on the graph alone (not on how the cycle-equivalence
/// solver happened to number its classes), and every subtree occupies a
/// contiguous id range starting at its root.
///
/// Storage comes in two flavors behind one read API. A *built* tree owns
/// one byte buffer holding its six arrays back to back, in the order and
/// layout of the corpus image's per-function slices, and every accessor
/// reads it through bound spans. An *adopted* tree (\c adoptExternal)
/// points the same spans at externally-owned flat arrays — in practice
/// slices of a mapped corpus image (pst/image) — so a mapped PST answers
/// every query with zero copy and zero allocation; it is valid only while
/// that storage lives.
class ProgramStructureTree {
public:
  ProgramStructureTree() = default;
  /// Copying rebinds the span table: an owning tree's copy owns a fresh
  /// buffer (one allocation); an adopted tree's copy aliases the same
  /// external storage.
  ProgramStructureTree(const ProgramStructureTree &O);
  ProgramStructureTree &operator=(const ProgramStructureTree &O);
  /// Moves transfer the buffer, so bound spans stay valid as-is.
  ProgramStructureTree(ProgramStructureTree &&O) noexcept = default;
  ProgramStructureTree &operator=(ProgramStructureTree &&O) noexcept = default;

  /// Builds the PST of the CFG viewed by \p V (which must satisfy
  /// \c validateCfg) in O(N + E). Cycle equivalence consumes the view's
  /// adjacency directly and the one construction DFS iterates its flat
  /// succ segments. Through a warm scratch a build makes exactly one heap
  /// allocation, the tree's buffer.
  static ProgramStructureTree build(const CfgView &V, PstBuildScratch &Scratch);

  /// As above with a local scratch (for one-shot callers).
  static ProgramStructureTree build(const CfgView &V);

  /// As \c build, but with the cycle-equivalence classes already computed:
  /// \p EdgeClass holds one class per edge of S = G + (exit -> entry), the
  /// return edge last, with ids below \p NumClasses. Any solver's
  /// numbering of the same partition yields the same tree, ids included.
  /// The classes may live in \p Scratch.CE (the builder never touches it).
  static ProgramStructureTree
  buildWithCycleEquiv(const CfgView &V, std::span<const uint32_t> EdgeClass,
                      uint32_t NumClasses, PstBuildScratch &Scratch);

  /// As above, from a return-edge run's result on \p V.
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
                std::span<const uint32_t> ChildOff,
                std::span<const RegionId> ChildVal,
                std::span<const uint32_t> ImmOff,
                std::span<const NodeId> ImmVal);

  RegionId root() const { return 0; }
  uint32_t numRegions() const { return static_cast<uint32_t>(Arr.Regions.size()); }
  /// Number of real canonical regions (excludes the synthetic root).
  uint32_t numCanonicalRegions() const { return numRegions() - 1; }

  const SeseRegion &region(RegionId R) const { return Arr.Regions[R]; }

  /// Innermost region containing node \p N (Definition 6); never invalid
  /// (the root contains everything).
  RegionId regionOfNode(NodeId N) const { return Arr.NodeRegion[N]; }

  /// \name Per-edge queries
  /// Derived in O(1) from the node map, the region table and \p E's
  /// endpoints in \p V (the view the tree was built from). A region's
  /// entry edge is the only edge from outside into its body, so the
  /// region \p E opens can only be the innermost region of its target;
  /// dually, the region \p E closes can only be that of its source.
  /// @{

  /// Region whose entry edge is \p E, or InvalidRegion.
  RegionId regionEnteredBy(const CfgView &V, EdgeId E) const {
    RegionId R = Arr.NodeRegion[V.target(E)];
    return Arr.Regions[R].EntryEdge == E ? R : InvalidRegion;
  }
  /// Region whose exit edge is \p E, or InvalidRegion.
  RegionId regionExitedBy(const CfgView &V, EdgeId E) const {
    RegionId R = Arr.NodeRegion[V.source(E)];
    return Arr.Regions[R].ExitEdge == E ? R : InvalidRegion;
  }

  /// Innermost region whose body contains edge \p E. By convention an entry
  /// edge belongs to the region it opens and an exit edge to the region
  /// that encloses the boundary (its region's parent, or the sequentially
  /// following region when the edge also opens one). Any other edge lies
  /// in its source's innermost region.
  RegionId regionOfEdge(const CfgView &V, EdgeId E) const {
    if (RegionId Entered = regionEnteredBy(V, E); Entered != InvalidRegion)
      return Entered;
    RegionId R = Arr.NodeRegion[V.source(E)];
    return Arr.Regions[R].ExitEdge == E ? Arr.Regions[R].Parent : R;
  }
  /// @}

  /// Immediately nested regions of \p R, in entry-edge traversal order.
  /// (A CSR segment of the tree-level child array; stable while the tree
  /// lives.)
  std::span<const RegionId> children(RegionId R) const {
    return Arr.ChildVal.subspan(Arr.ChildOff[R], Arr.ChildOff[R + 1] - Arr.ChildOff[R]);
  }

  /// Nodes whose *innermost* region is \p R (i.e. excluding nodes hidden
  /// inside nested regions), in discovery order.
  std::span<const NodeId> immediateNodes(RegionId R) const {
    return Arr.ImmVal.subspan(Arr.ImmOff[R], Arr.ImmOff[R + 1] - Arr.ImmOff[R]);
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
  std::span<const SeseRegion> regionTable() const { return Arr.Regions; }
  std::span<const RegionId> nodeRegionTable() const { return Arr.NodeRegion; }
  std::span<const uint32_t> childOffTable() const { return Arr.ChildOff; }
  std::span<const RegionId> childValTable() const { return Arr.ChildVal; }
  std::span<const uint32_t> immOffTable() const { return Arr.ImmOff; }
  std::span<const NodeId> immValTable() const { return Arr.ImmVal; }
  /// @}

  /// True if this tree aliases external storage (\c adoptExternal) rather
  /// than owning its arrays.
  bool isExternal() const { return External; }

private:
  /// The tree's six arrays, in image-slice order.
  struct Arrays {
    std::span<const SeseRegion> Regions;
    std::span<const RegionId> NodeRegion;
    // Region R's children / immediate nodes are the CSR segment
    // [Off[R], Off[R+1]) of the *Val arrays.
    std::span<const uint32_t> ChildOff;
    std::span<const RegionId> ChildVal;
    std::span<const uint32_t> ImmOff;
    std::span<const NodeId> ImmVal;
  };

  /// Bytes of the buffer of a tree with \p N nodes and \p R regions.
  static size_t bufferBytes(size_t N, size_t R);

  /// Allocates the buffer for a tree of \p N nodes and \p R regions and
  /// points every array into it.
  void allocate(uint32_t N, uint32_t R);

  /// The owned buffer: the six arrays back to back. Null for adopted and
  /// default-constructed trees.
  std::unique_ptr<std::byte[]> Storage;
  /// The accessor table: spans into either Storage (built trees) or
  /// external storage (adopted trees).
  Arrays Arr;
  bool External = false;
};

} // namespace pst

#endif // PST_CORE_PROGRAMSTRUCTURETREE_H
