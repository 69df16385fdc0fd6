//===- pst/serve/Shard.h - One shard's writer + epoch table -----*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard of the analysis server: the single-writer edit/commit state
/// for its slice of the corpus, plus the EpochTable through which readers
/// see that slice.
///
/// Routing is by residue class: a server with S shards gives shard K
/// every function F with F % S == K (round-robin over function index, so
/// generated corpora — whose size correlates with index — spread evenly).
/// Function ids in this API are always *global* image indices.
///
/// A published \c ShardEpoch is an immutable overlay over the shared base
/// image: functions the shard has committed edits for resolve to their
/// latest \c FunctionSnapshot, everything else to the mapped base image's
/// zero-copy views. Readers pin an epoch, resolve functions against it,
/// and drop the pin; the writer applies edits to a per-function
/// `DynamicCfg` (which rejects any edit that would break Definition 1)
/// and, at \c commit, freezes each dirty function from scratch and
/// publishes a new epoch. So a published snapshot is by construction the
/// from-scratch freeze of the current graph, which \c verifyPublished
/// re-checks byte for byte against a freeze of the materialized graph.
///
/// The commit runs on one writer-owned scratch: the view is frozen
/// straight from the `DynamicCfg` (tombstoned edges dropped on the way,
/// no `Cfg` copy), the PST and the one-function image are built from it,
/// and, when the server's derived cache is on, the snapshot's bundle is
/// built before publish. Every published overlay slot is therefore ready:
/// readers never build or wait on an overlay bundle. Base-image bundles
/// stay lazy (DerivedCache.h). With the scratch warm, a commit allocates
/// only what it publishes, plus the PST's transient buffer. Its cost is
/// bounded by the dirty set, except the O(overlay) copy into each new
/// epoch.
///
//===----------------------------------------------------------------------===//

#ifndef PST_SERVE_SHARD_H
#define PST_SERVE_SHARD_H

#include "pst/dom/Dominators.h"
#include "pst/incremental/DynamicCfg.h"
#include "pst/serve/DerivedCache.h"
#include "pst/serve/EpochTable.h"
#include "pst/serve/Snapshot.h"

#include <map>
#include <string>
#include <vector>

namespace pst {
namespace serve {

/// Cap on each function's node count and on its edge count (tombstoned
/// edges included) under edits. An edit that would pass it is rejected
/// like any invalid edit, so protocol clients cannot grow a function
/// without bound.
inline constexpr uint32_t MaxFunctionSize = 1u << 16;

/// An immutable published view of one shard: version + overlay of
/// refrozen functions (sorted by function id) over the base image.
struct ShardEpoch {
  uint64_t Version = 0;
  std::vector<std::pair<uint64_t, std::shared_ptr<const FunctionSnapshot>>>
      Overlay;

  /// The overlay snapshot for \p Fn, or null if \p Fn resolves to the
  /// base image in this epoch.
  const FunctionSnapshot *find(uint64_t Fn) const;
};

/// A function resolved under a pinned epoch: zero-copy views into either
/// the base image or an overlay snapshot. Valid while the pin (and the
/// server) lives.
struct ResolvedFunction {
  CfgView View;
  ProgramStructureTree Pst;
  std::string_view Name;
  /// True when this epoch's overlay (not the base image) supplied it.
  bool FromOverlay = false;
  /// The overlay snapshot behind the views, or null for base-image
  /// functions. Carries the snapshot's derived-analysis slot (see
  /// DerivedCache.h); valid while the pin lives, like the views.
  const FunctionSnapshot *Snap = nullptr;
};

struct ShardStats {
  uint64_t Edits = 0;         ///< Accepted edits journaled so far.
  uint64_t EditsRejected = 0; ///< Edits refused by validity or size checks.
  uint64_t Commits = 0;       ///< Commit batches published (excl. epoch 0).
  uint64_t Refrozen = 0;      ///< Function snapshots rebuilt across commits.
  uint64_t Published = 0;     ///< EpochTable publishes (incl. epoch 0).
  uint64_t Reclaimed = 0;     ///< Snapshots reclaimed at quiescence.
};

/// One shard. Readers: \c pin / \c resolve / \c currentVersion from any
/// thread. Writer: the edit API and \c commit from one thread at a time.
class Shard {
public:
  /// \p Base must outlive the shard. Publishes epoch 0 (empty overlay)
  /// immediately, so \c pin never blocks. \p Derived, when non-null, is
  /// the server's derived-cache counters (and must outlive the shard):
  /// each commit then builds every refrozen snapshot's bundle before
  /// publishing it. Null means the cache is off and commits build none.
  Shard(const CorpusImage &Base, uint32_t Index, uint32_t NumShards,
        uint32_t EpochCapacity = 64, DerivedCacheCounters *Derived = nullptr);

  uint32_t index() const { return Index; }
  bool owns(uint64_t Fn) const { return Fn % NumShards == Index; }

  // -- Reader API ----------------------------------------------------------

  EpochTable<ShardEpoch>::Pin pin() const { return Epochs.pin(); }
  uint64_t currentVersion() const { return Epochs.currentVersion(); }
  /// Resolves global function \p Fn (which this shard must own) under
  /// \p E — overlay snapshot if the shard republished it, base image
  /// views otherwise.
  ResolvedFunction resolve(const ShardEpoch &E, uint64_t Fn) const;

  // -- Writer API (single-threaded) ----------------------------------------

  /// Journals an edit on \p Fn. Edge-addressed forms take (Src, Dst) and
  /// resolve to the first live edge with those endpoints in the writer's
  /// current graph. Rejected edits (validity, unknown edge, growth past
  /// \c MaxFunctionSize) return the Invalid sentinel / false and journal
  /// nothing.
  EdgeId insertEdge(uint64_t Fn, NodeId Src, NodeId Dst);
  bool deleteEdge(uint64_t Fn, NodeId Src, NodeId Dst);
  NodeId splitBlock(uint64_t Fn, NodeId Src, NodeId Dst);
  NodeId addBlock(uint64_t Fn, NodeId Src, NodeId Dst);

  /// Functions with journaled-but-unpublished edits.
  uint32_t pendingFunctions() const;

  /// Refreezes every dirty function from its writer graph, builds the new
  /// snapshots' bundles (derived cache on) and publishes a new epoch.
  /// Returns the published version (the current version unchanged if
  /// nothing was dirty). Reads no clock while telemetry is off.
  uint64_t commit();

  /// Re-checks the byte-identity invariant for every overlaid function
  /// of the *current* epoch: published snapshot == from-scratch freeze
  /// of the writer's current committed graph. Writer thread (or
  /// quiescence) only — it reads writer state.
  bool verifyPublished(std::string *Why = nullptr) const;

  /// The writer's current committed graph for \p Fn (materialized,
  /// compact). Writer thread or quiescence only. Used by tests/bench as
  /// the from-scratch oracle input.
  Cfg writerGraph(uint64_t Fn) const;

  ShardStats stats() const;

private:
  struct FunctionWriter {
    DynamicCfg Graph;
    std::string Name;
    bool Dirty = false;
  };

  /// The commit's working memory, reused by every commit: warm after the
  /// largest function the shard has refrozen.
  struct CommitScratch {
    CfgViewScratch View;
    PstBuildScratch Pst;
    DomScratch Dom;
  };

  /// Lazily materializes the writer state for \p Fn from the base image.
  FunctionWriter &writer(uint64_t Fn);
  /// First live edge Src -> Dst in \p W's graph, or InvalidEdge.
  static EdgeId findLiveEdge(const FunctionWriter &W, NodeId Src, NodeId Dst);
  /// Counts an edit on \p W as accepted (marking it dirty) or rejected;
  /// returns \p Accepted.
  bool record(FunctionWriter &W, bool Accepted);

  const CorpusImage &Base;
  uint32_t Index;
  uint32_t NumShards;
  // Ordered so commits refreeze in deterministic function order.
  std::map<uint64_t, FunctionWriter> Writers;
  /// The writer's working overlay; copied into each published epoch.
  std::vector<std::pair<uint64_t, std::shared_ptr<const FunctionSnapshot>>>
      WorkingOverlay;
  EpochTable<ShardEpoch> Epochs;
  DerivedCacheCounters *Derived;
  CommitScratch Scratch;
  uint64_t NextVersion = 0;
  uint64_t Edits = 0, EditsRejected = 0, Commits = 0, Refrozen = 0;

  // Per-shard telemetry probe names (leaked literals; see Shard.cpp).
  const char *ProbeCommitNs;
  const char *ProbeRefrozen;
};

} // namespace serve
} // namespace pst

#endif // PST_SERVE_SHARD_H
