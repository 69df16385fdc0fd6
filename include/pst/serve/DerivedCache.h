//===- pst/serve/DerivedCache.h - Per-epoch derived analyses ----*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-epoch derived-analysis cache: bundles of exactly what the
/// dom/cdep/phi queries read beyond the frozen CFG/PST pair — the
/// immediate-dominator array, the dominance-frontier CSR and the
/// control-dependence CSR, all filled from the dominator kernel's idom
/// arrays. `region` and `regions` read the PST directly and never touch a
/// bundle.
///
/// One \c DerivedSlot guards one function's bundle with a single atomic
/// pointer in three states: null (empty), a sentinel (a build is in
/// flight), or the bundle. First touch CASes null -> sentinel; the winner
/// builds and publishes with a release store, losers `wait` on the
/// sentinel — so a bundle is built at most once per slot lifetime, and a
/// reader only ever waits for *its own* function's build, never another
/// function's (slots are independent). See DESIGN.md §15 for the
/// memory-ordering contract.
///
/// Lifecycle is the epoch lifecycle, by construction rather than by an
/// eviction policy: base-image slots live in a \c DerivedCache owned by
/// the server (the base image never changes, so they are valid forever),
/// and overlay slots live *inside* \c FunctionSnapshot. Base-image
/// bundles are built lazily, on the first query that needs one, because
/// an image can hold a million functions. Overlay bundles are built at
/// commit: the writer fills a refrozen snapshot's slot before publishing
/// the snapshot, so readers never build or wait on one. The stale bundle
/// is freed exactly when the EpochTable reclaims the old snapshot at
/// quiescence. No invalidation walk, no stale reads: a pinned epoch
/// resolves to the snapshot whose slot was filled for it.
///
/// Responses computed from a bundle are byte-identical to the uncached
/// per-query path (same algorithms, same orderings); `time_serve` and the
/// differential tests gate on that.
///
//===----------------------------------------------------------------------===//

#ifndef PST_SERVE_DERIVEDCACHE_H
#define PST_SERVE_DERIVEDCACHE_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/dom/ControlDependenceCsr.h"
#include "pst/dom/Dominators.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace pst {
namespace serve {

/// Exactly what the dom/cdep/phi queries read from one frozen function:
/// the immediate-dominator array (`dom`), the dominance frontiers (`phi`)
/// and the control-dependence CSR (`cdep`), all filled from the dominator
/// kernel's forward and reverse idom arrays (\c immediateDominators).
/// Immutable after construction; self-contained (no references into the
/// view it was built from). A bundle is four heap blocks, itself and one
/// per array, whatever the function's size, and with a warm scratch those
/// are the only allocations its build makes.
struct DerivedBundle {
  /// Builds \p V's bundle on \p S: the kernel forward, the frontier fill,
  /// the kernel on \c V.reversed(), the cdep fill.
  DerivedBundle(const CfgView &V, DomScratch &S);
  /// One-shot form with a local scratch. The tree is unused; the
  /// signature stays because perfbench/ builds bundles through it.
  DerivedBundle(const CfgView &V, const ProgramStructureTree &);

  /// Immediate dominator per node; InvalidNode for the entry and for
  /// nodes unreachable from it.
  std::vector<NodeId> Idom;
  DominanceFrontiers Df;
  ControlDependenceCsr Cdep;
  /// Exact footprint: sizeof(DerivedBundle) plus the three arrays.
  size_t Bytes = 0;

private:
  DerivedBundle(const CfgView &V, DomScratch &&S) : DerivedBundle(V, S) {}
};

/// Monotonic cache counters, shared by every slot of one server.
/// Readable at any time (relaxed); exact once readers quiesce.
class DerivedCacheCounters {
public:
  void recordHit() { Hits.fetch_add(1, std::memory_order_relaxed); }
  void recordWait() { Waits.fetch_add(1, std::memory_order_relaxed); }
  void recordBuild(uint64_t Ns, uint64_t BundleBytes) {
    Builds.fetch_add(1, std::memory_order_relaxed);
    BuildNs.fetch_add(Ns, std::memory_order_relaxed);
    BytesBuilt.fetch_add(BundleBytes, std::memory_order_relaxed);
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t waits() const { return Waits.load(std::memory_order_relaxed); }
  uint64_t builds() const { return Builds.load(std::memory_order_relaxed); }
  uint64_t buildNs() const { return BuildNs.load(std::memory_order_relaxed); }
  uint64_t bytesBuilt() const {
    return BytesBuilt.load(std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Waits{0};
  std::atomic<uint64_t> Builds{0};
  std::atomic<uint64_t> BuildNs{0};
  std::atomic<uint64_t> BytesBuilt{0};
};

/// Point-in-time snapshot of a server's cache counters (`--stats`
/// surface).
struct DerivedCacheStats {
  uint64_t Hits = 0;       ///< Queries answered from a ready bundle.
  uint64_t Waits = 0;      ///< Queries that waited on an in-flight build.
  uint64_t Builds = 0;     ///< Bundles materialized.
  uint64_t BuildNs = 0;    ///< Total ns spent building bundles.
  uint64_t BytesBuilt = 0; ///< Total bytes of bundles materialized.
};

/// One function's once-init bundle guard. Default-constructed empty;
/// immovable (the atomic is the synchronization point).
class DerivedSlot {
public:
  DerivedSlot() = default;
  DerivedSlot(const DerivedSlot &) = delete;
  DerivedSlot &operator=(const DerivedSlot &) = delete;
  ~DerivedSlot();

  /// The bundle for \p V, building it on \p S first-touch. Safe from any
  /// number of threads; exactly one caller builds, the rest reuse or wait
  /// (on this slot only). \p V must describe the same frozen function on
  /// every call for a given slot — true by construction here, since a slot
  /// is tied to one immutable snapshot or base-image entry.
  const DerivedBundle &get(const CfgView &V, DomScratch &S,
                           DerivedCacheCounters &C) const;

private:
  static const DerivedBundle *buildingSentinel();

  /// null = empty, sentinel = build in flight, else = published bundle.
  mutable std::atomic<const DerivedBundle *> Ptr{nullptr};
};

/// The base-image side of the cache: one slot per corpus function, owned
/// by the server (base-image views never change, so these live for the
/// server's lifetime). Overlay slots live in FunctionSnapshot instead —
/// see the file comment.
class DerivedCache {
public:
  explicit DerivedCache(uint64_t NumFunctions)
      : Slots(std::make_unique<DerivedSlot[]>(NumFunctions)),
        NumSlots(NumFunctions) {}

  DerivedSlot &slot(uint64_t Fn) const { return Slots[Fn]; }
  uint64_t numSlots() const { return NumSlots; }

private:
  std::unique_ptr<DerivedSlot[]> Slots;
  uint64_t NumSlots;
};

} // namespace serve
} // namespace pst

#endif // PST_SERVE_DERIVEDCACHE_H
