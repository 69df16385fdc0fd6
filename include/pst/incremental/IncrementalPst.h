//===- pst/incremental/IncrementalPst.h - PST over CFG edits ----*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A program structure tree maintained across a stream of CFG edits.
///
/// Theorem 1 (canonical SESE regions nest and never partially overlap) is a
/// locality guarantee: the smallest canonical region D whose body contains
/// both endpoints of an edit is a boundary the edit cannot see across. The
/// exterior observes D only through its entry and exit edges, neither of
/// which the edit touches, so cycle equivalence — and hence the PST —
/// outside D's subtree is unchanged. IncrementalPst exploits this by
///
///  1. locating D as the PST least common ancestor of the innermost regions
///     of the edit's endpoints,
///  2. marking D's subtree dirty (a \c commit coalesces the dirty regions
///     of a whole batch into the maximal antichain under containment),
///  3. per dirty region, extracting the body sub-CFG (the region's entry
///     and exit edges become the sub-problem's start and end), rebuilding
///     its PST from scratch, and splicing the rebuilt subtree in place.
///
/// Splicing must handle the region itself dissolving: an edit inside D can
/// make interior edges cycle equivalent to D's boundary (delete one arm of
/// a diamond and the remaining chain joins the boundary class), in which
/// case D is replaced in its parent by the chain of regions the sub-build
/// found at top level. When an edit's endpoints only share the root region,
/// there is no confining boundary and the maintainer falls back to one full
/// rebuild. \c stats() reports nodes actually reprocessed next to what
/// from-scratch rebuilds would have cost, so the savings are observable.
///
//===----------------------------------------------------------------------===//

#ifndef PST_INCREMENTAL_INCREMENTALPST_H
#define PST_INCREMENTAL_INCREMENTALPST_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/incremental/DynamicCfg.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace pst {

/// Observable cost counters. All counts start at attach time (the initial
/// full build is not included).
struct IncrementalPstStats {
  uint64_t EditsApplied = 0;
  uint64_t EditsRejected = 0; ///< Edits refused to keep the CFG valid.
  uint64_t Commits = 0;
  uint64_t SubtreesRebuilt = 0; ///< Dirty-region rebuilds (excludes full).
  uint64_t FullRebuilds = 0;    ///< Root-dirty fallbacks.
  /// CFG nodes fed to rebuilds (sub-CFG bodies, plus whole graphs for full
  /// rebuilds).
  uint64_t NodesReprocessed = 0;
  uint64_t EdgesReprocessed = 0;
  /// What from-scratch recomputation would have processed: the full node
  /// count, accumulated once per commit.
  uint64_t FullRecomputeNodes = 0;

  /// NodesReprocessed / FullRecomputeNodes (1.0 when nothing committed).
  double reprocessRatio() const {
    return FullRecomputeNodes
               ? static_cast<double>(NodesReprocessed) / FullRecomputeNodes
               : 1.0;
  }
};

/// A PST kept valid across edits on a \c DynamicCfg.
///
/// Region ids are stable while a region survives commits, but — unlike
/// \c ProgramStructureTree — they are not dense or ordered: slots of
/// dissolved regions are recycled. Use \c liveRegions to enumerate.
///
/// Edits may be applied through this class (preferred: \c deleteEdge then
/// checks validity locally on the dirty region instead of sweeping the
/// whole graph) or directly on the DynamicCfg; either way \c commit folds
/// everything journaled since the last commit into the tree. Queries
/// reflect the tree as of the last commit.
class IncrementalPst {
public:
  /// Attaches to \p DG (which must outlive this object) and runs the
  /// initial full build.
  explicit IncrementalPst(DynamicCfg &DG);

  // -- Edits (forwarded to the DynamicCfg + eager dirty marking) -----------

  /// \c DynamicCfg::insertEdge + dirty marking.
  EdgeId insertEdge(NodeId Src, NodeId Dst);
  /// Deletes \p E if validity is preserved, checking reachability only
  /// inside the dirty region's body. Returns false if rejected.
  bool deleteEdge(EdgeId E);
  /// \c DynamicCfg::splitBlock + dirty marking.
  NodeId splitBlock(EdgeId E, std::string Label = "");
  /// \c DynamicCfg::addBlock + dirty marking (InvalidNode if rejected).
  NodeId addBlock(NodeId Src, NodeId Dst, std::string Label = "");

  /// Folds all journaled edits since the last commit into the tree:
  /// coalesces dirty regions to the maximal antichain, rebuilds each dirty
  /// subtree from its extracted sub-CFG, and splices the results in place.
  /// Returns the number of subtree rebuilds (0 also when a full-rebuild
  /// fallback ran; check \c stats().FullRebuilds).
  uint32_t commit();

  /// Edits journaled but not yet committed.
  uint32_t pendingEdits() const;

  // -- Tree queries (valid as of the last commit) --------------------------

  RegionId root() const { return 0; }
  /// Live region slots, root first. O(#slots).
  std::vector<RegionId> liveRegions() const;
  uint32_t numCanonicalRegions() const { return NumLive - 1; }

  EdgeId entryEdge(RegionId R) const { return Regions[R].EntryEdge; }
  EdgeId exitEdge(RegionId R) const { return Regions[R].ExitEdge; }
  RegionId parent(RegionId R) const { return Regions[R].Parent; }
  uint32_t depth(RegionId R) const { return Regions[R].Depth; }
  const std::vector<RegionId> &children(RegionId R) const {
    return Regions[R].Children;
  }
  /// Nodes whose innermost region is \p R.
  const std::vector<NodeId> &immediateNodes(RegionId R) const {
    return Regions[R].Nodes;
  }

  RegionId regionOfNode(NodeId N) const { return NodeRegion[N]; }
  RegionId regionOfEdge(EdgeId E) const { return EdgeRegion[E]; }
  RegionId regionEnteredBy(EdgeId E) const { return EntryOf[E]; }
  RegionId regionExitedBy(EdgeId E) const { return ExitOf[E]; }

  const IncrementalPstStats &stats() const { return Stats; }

  /// Indented outline of the tree (regions with boundary edges and
  /// immediate nodes), for demos and debugging.
  std::string format() const;

  /// Debug: full structural comparison against a from-scratch build on the
  /// materialized graph. Returns true on match; on mismatch returns false
  /// and, if \p Why is non-null, a description of the first difference.
  /// O(full rebuild) — test/diagnostic use only.
  bool equalsFromScratch(std::string *Why = nullptr) const;

private:
  struct Slot {
    EdgeId EntryEdge = InvalidEdge;
    EdgeId ExitEdge = InvalidEdge;
    RegionId Parent = InvalidRegion;
    std::vector<RegionId> Children;
    uint32_t Depth = 0;
    std::vector<NodeId> Nodes; ///< Immediate nodes.
    bool Live = false;
  };

  RegionId allocSlot();
  void freeSubtreeSlots(RegionId R);
  RegionId lca(RegionId A, RegionId B) const;
  bool liveContains(RegionId Outer, RegionId Inner) const;
  RegionId currentRegionOfNode(NodeId N) const;

  /// Processes journal entries [JournalPos, end): computes each edit's
  /// dirty region against the pre-batch tree and folds it into DirtySet.
  void absorbJournal();
  void markDirty(RegionId D);
  /// The topmost already-dirty ancestor of \p D (or D itself): the sound
  /// scope for local validity checks mid-batch.
  RegionId dirtyScope(RegionId D) const;

  /// Body nodes of \p D's subtree in the *current* graph: committed
  /// immediate nodes of the subtree plus batch-created nodes provisionally
  /// inside it.
  std::vector<NodeId> collectBodyNodes(RegionId D) const;

  /// Local reachability check: with \p Skip removed, every body node of
  /// scope \p S stays reachable from S's entry and co-reachable from S's
  /// exit. Falls back to the whole-graph check when S is the root.
  bool deletePreservesValidity(RegionId S, EdgeId Skip) const;

  /// Extracts \p Body as a sub-CFG, rebuilds its PST, and splices the
  /// result in at \p D (replacing D itself when it dissolved). Returns
  /// false on a boundary violation, in which case the caller must fall
  /// back to \c fullRebuild.
  bool rebuildSubtree(RegionId D, const std::vector<NodeId> &Body);
  void fullRebuild();
  void ensureTablesSized();

  DynamicCfg &DG;
  // Rebuild working memory, reused across commits: every subtree rebuild
  // freezes its extracted sub-CFG into ViewScratch and builds through
  // BuildScratch (which holds the cycle-equivalence solver's scratch).
  CfgViewScratch ViewScratch;
  PstBuildScratch BuildScratch;

  std::vector<Slot> Regions;
  std::vector<RegionId> FreeSlots;
  uint32_t NumLive = 0;
  std::vector<RegionId> NodeRegion;
  std::vector<RegionId> EdgeRegion;
  std::vector<RegionId> EntryOf, ExitOf;

  // Batch state (valid between commits).
  size_t JournalPos = 0;
  std::vector<RegionId> DirtySet; ///< Maximal antichain, pre-batch ids.
  bool RootDirty = false;
  /// Provisional innermost region of nodes created this batch.
  std::unordered_map<NodeId, RegionId> PendingNodeRegion;

  IncrementalPstStats Stats;
};

} // namespace pst

#endif // PST_INCREMENTAL_INCREMENTALPST_H
