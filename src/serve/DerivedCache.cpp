//===- DerivedCache.cpp - Per-epoch derived analyses ----------------------===//
//
// Part of the PST library (see DerivedCache.h for the reference).
//
// The once-init protocol (DESIGN.md §15):
//
//   load(acquire)
//     ready   -> use it (hit)
//     null    -> CAS(null -> sentinel, acq_rel); winner builds, publishes
//                with store(release) + notify_all
//     sentinel-> atomic wait on the sentinel value, then reload
//
// The release store publishing the bundle pairs with every acquire load
// that observes it, so readers see a fully constructed bundle. The CAS
// claims exclusively, so at most one build runs per slot ever; the
// sentinel wait is per-slot, so nobody waits for a different function.
//
//===----------------------------------------------------------------------===//

#include "pst/serve/DerivedCache.h"

#include "pst/obs/Telemetry.h"

#include <chrono>

using namespace pst;
using namespace pst::serve;

namespace {

std::vector<NodeId> copyOf(std::span<const NodeId> Ids) {
  return std::vector<NodeId>(Ids.begin(), Ids.end());
}

} // namespace

// Member order is build order: the forward idoms are copied out before
// the reverse kernel run reuses the scratch's idom array.
DerivedBundle::DerivedBundle(const CfgView &V, DomScratch &S)
    : Idom(copyOf(immediateDominators(V, S))), Df(V, Idom, S),
      Cdep(V, immediateDominators(V.reversed(), S), S) {
  Bytes = sizeof(DerivedBundle) + Idom.size() * sizeof(NodeId) + Df.bytes() +
          Cdep.bytes();
}

DerivedBundle::DerivedBundle(const CfgView &V, const ProgramStructureTree &)
    : DerivedBundle(V, DomScratch()) {}

const DerivedBundle *DerivedSlot::buildingSentinel() {
  // Any non-null pointer that can never be a real bundle address works;
  // the static's address is stable and never dereferenced as a bundle.
  static const char Tag = 0;
  return reinterpret_cast<const DerivedBundle *>(&Tag);
}

DerivedSlot::~DerivedSlot() {
  const DerivedBundle *P = Ptr.load(std::memory_order_acquire);
  // No build can be in flight at destruction (slots die with their
  // snapshot at quiescence, or with the server), so sentinel here would
  // be a lifetime bug upstream.
  if (P && P != buildingSentinel())
    delete P;
}

const DerivedBundle &DerivedSlot::get(const CfgView &V, DomScratch &S,
                                      DerivedCacheCounters &C) const {
  const DerivedBundle *Sentinel = buildingSentinel();
  const DerivedBundle *P = Ptr.load(std::memory_order_acquire);
  if (P && P != Sentinel) {
    C.recordHit();
    PST_COUNTER("serve.cache.hits", 1);
    return *P;
  }
  for (;;) {
    if (P == nullptr) {
      if (Ptr.compare_exchange_strong(P, Sentinel, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        auto Start = std::chrono::steady_clock::now();
        const DerivedBundle *B = new DerivedBundle(V, S);
        uint64_t Ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - Start)
                .count());
        Ptr.store(B, std::memory_order_release);
        Ptr.notify_all();
        C.recordBuild(Ns, B->Bytes);
        PST_COUNTER("serve.cache.builds", 1);
        PST_VALUE("serve.cache.build_ns", Ns);
        PST_VALUE("serve.cache.bundle_bytes", B->Bytes);
        return *B;
      }
      // CAS failure reloaded P; fall through and reexamine.
      continue;
    }
    if (P == Sentinel) {
      C.recordWait();
      PST_COUNTER("serve.cache.waits", 1);
      Ptr.wait(Sentinel, std::memory_order_acquire);
      P = Ptr.load(std::memory_order_acquire);
      continue;
    }
    C.recordHit();
    PST_COUNTER("serve.cache.hits", 1);
    return *P;
  }
}
