//===- pst/serve/Snapshot.h - Frozen per-function snapshots -----*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The immutable unit the serving layer publishes: one function's CFG and
/// PST frozen at a commit point.
///
/// A FunctionSnapshot *is* a single-function corpus image — `freeze`
/// builds the committed graph's image straight from its frozen view
/// (`buildFunctionImage`) and adopts the result (`CfgView::adopt` /
/// `ProgramStructureTree::adoptExternal`) exactly the way
/// `CorpusImage::map` does for on-disk images. That buys the serving
/// layer the byte-identity invariant for free: the image format is byte-
/// deterministic for a given CFG, so "this published snapshot equals a
/// from-scratch rebuild of the shard's current graph" is a memcmp against
/// `buildCorpusImage` of the materialized graph (checked by
/// \c snapshotMatchesFromScratch, and enforced by the serve tests and
/// `time_serve`'s exit-1 gate), not a structural walk that could miss a
/// field. It also means snapshots are self-contained —
/// dropping one epoch's overlay frees everything that epoch pinned, with
/// no aliasing into writer state.
///
//===----------------------------------------------------------------------===//

#ifndef PST_SERVE_SNAPSHOT_H
#define PST_SERVE_SNAPSHOT_H

#include "pst/image/CorpusImage.h"
#include "pst/serve/DerivedCache.h"

#include <memory>

namespace pst {
namespace serve {

/// One function frozen at a commit point. Immutable after construction;
/// shared by every epoch overlay that includes it.
class FunctionSnapshot {
public:
  /// Freezes the graph \p V views (which must satisfy \c validateCfg)
  /// under \p Name, node labels from \p Labels (\c buildFunctionImage):
  /// builds its PST on \p Scratch and the single-function image straight
  /// from the view, so this is a full from-scratch analysis of the graph —
  /// the serving layer calls it once per dirtied function per commit, not
  /// per query. With \p Scratch warm it makes three allocations: the image
  /// bytes, the snapshot (one block with its control block) and the PST's
  /// transient buffer.
  static std::shared_ptr<const FunctionSnapshot>
  freeze(const CfgView &V, const Cfg &Labels, std::string_view Name,
         PstBuildScratch &Scratch);

  /// One-shot form: freezes \p G under \p Name with local scratch.
  static std::shared_ptr<const FunctionSnapshot> freeze(const Cfg &G,
                                                        std::string_view Name);

  /// The frozen CSR adjacency, adopted from the image bytes.
  const CfgView &cfg() const { return View; }
  /// The frozen PST, adopted from the image bytes.
  const ProgramStructureTree &pst() const { return Tree; }
  std::string_view name() const { return Img.functionName(0); }
  /// The underlying single-function image bytes (the byte-identity
  /// currency; see the file comment).
  std::span<const uint8_t> imageBytes() const { return Img.rawBytes(); }

  /// This snapshot's derived-analysis slot (DerivedCache.h). Riding on
  /// the snapshot ties the bundle's lifetime to the epoch lifecycle: a
  /// refreeze at commit publishes a *new* snapshot whose slot the writer
  /// filled first (derived cache on), and the stale bundle dies when the
  /// EpochTable reclaims this one at quiescence. The slot's own
  /// synchronization makes this const-safe (the snapshot's frozen bytes
  /// stay immutable).
  DerivedSlot &derivedSlot() const { return Derived; }

  FunctionSnapshot(const FunctionSnapshot &) = delete;
  FunctionSnapshot &operator=(const FunctionSnapshot &) = delete;

private:
  /// Only \c freeze can name the key, so only it constructs snapshots;
  /// the constructor is public for \c std::make_shared's sake.
  struct Key {
    explicit Key() = default;
  };

public:
  explicit FunctionSnapshot(Key) {}

private:

  CorpusImage Img;
  CfgView View;
  ProgramStructureTree Tree;
  mutable DerivedSlot Derived;
};

/// Checks that \p S is byte-for-byte the freeze of \p Current: rebuilds
/// the single-function image from scratch and memcmps. On mismatch
/// returns false and, when \p Why is non-null, a short diagnostic.
bool snapshotMatchesFromScratch(const FunctionSnapshot &S, const Cfg &Current,
                                std::string *Why = nullptr);

} // namespace serve
} // namespace pst

#endif // PST_SERVE_SNAPSHOT_H
