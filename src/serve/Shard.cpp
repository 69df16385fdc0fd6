//===- Shard.cpp - One shard's writer + epoch table ---------------------------===//
//
// Part of the PST library (see Shard.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/serve/Shard.h"

#include "pst/obs/ScopedTimer.h"
#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>

using namespace pst;
using namespace pst::serve;

const FunctionSnapshot *ShardEpoch::find(uint64_t Fn) const {
  auto It = std::lower_bound(
      Overlay.begin(), Overlay.end(), Fn,
      [](const auto &Entry, uint64_t Key) { return Entry.first < Key; });
  if (It == Overlay.end() || It->first != Fn)
    return nullptr;
  return It->second.get();
}

Shard::Shard(const CorpusImage &Base, uint32_t Index, uint32_t NumShards,
             uint32_t EpochCapacity, DerivedCacheCounters *Derived)
    : Base(Base), Index(Index), NumShards(NumShards), Epochs(EpochCapacity),
      Derived(Derived),
      ProbeCommitNs(internTelemetryName("serve.shard" + std::to_string(Index) +
                                        ".commit_ns")),
      ProbeRefrozen(internTelemetryName("serve.shard" + std::to_string(Index) +
                                        ".refrozen")) {
  assert(NumShards > 0 && Index < NumShards && "bad shard routing");
  // Epoch 0: the pristine base image. Published before any reader can
  // exist, so pin() never spins on an empty table.
  auto E = std::make_unique<ShardEpoch>();
  E->Version = 0;
  Epochs.publish(std::move(E), 0);
  NextVersion = 1;
}

ResolvedFunction Shard::resolve(const ShardEpoch &E, uint64_t Fn) const {
  assert(owns(Fn) && "function routed to the wrong shard");
  ResolvedFunction Out;
  if (const FunctionSnapshot *S = E.find(Fn)) {
    Out.View = S->cfg();
    Out.Pst = S->pst();
    Out.Name = S->name();
    Out.FromOverlay = true;
    Out.Snap = S;
  } else {
    Out.View = Base.cfg(Fn);
    Out.Pst = Base.pst(Fn);
    Out.Name = Base.functionName(Fn);
  }
  return Out;
}

namespace {

bool inRange(const DynamicCfg &G, NodeId Src, NodeId Dst) {
  return Src < G.numNodes() && Dst < G.numNodes();
}

/// True if \p G can take \p Nodes more nodes and \p Edges more edges
/// without passing MaxFunctionSize.
bool fits(const DynamicCfg &G, uint32_t Nodes, uint32_t Edges) {
  return G.numNodes() + Nodes <= MaxFunctionSize &&
         G.graph().numEdges() + Edges <= MaxFunctionSize;
}

} // namespace

Shard::FunctionWriter &Shard::writer(uint64_t Fn) {
  assert(owns(Fn) && Fn < Base.numFunctions());
  auto It = Writers.find(Fn);
  if (It != Writers.end())
    return It->second;
  // First edit on this function: materialize the base image's graph
  // (node/edge ids carry over exactly).
  return Writers
      .emplace(Fn, FunctionWriter{DynamicCfg(Base.materializeCfg(Fn)),
                                  std::string(Base.functionName(Fn))})
      .first->second;
}

EdgeId Shard::findLiveEdge(const FunctionWriter &W, NodeId Src, NodeId Dst) {
  const Cfg &G = W.Graph.graph();
  if (!inRange(W.Graph, Src, Dst))
    return InvalidEdge;
  for (EdgeId E : G.node(Src).Succs)
    if (W.Graph.edgeLive(E) && G.target(E) == Dst)
      return E;
  return InvalidEdge;
}

bool Shard::record(FunctionWriter &W, bool Accepted) {
  if (!Accepted) {
    ++EditsRejected;
    return false;
  }
  W.Dirty = true;
  ++Edits;
  PST_COUNTER("serve.edits", 1);
  return true;
}

EdgeId Shard::insertEdge(uint64_t Fn, NodeId Src, NodeId Dst) {
  FunctionWriter &W = writer(Fn);
  EdgeId E = InvalidEdge;
  if (inRange(W.Graph, Src, Dst) && fits(W.Graph, 0, 1))
    E = W.Graph.insertEdge(Src, Dst);
  record(W, E != InvalidEdge);
  return E;
}

bool Shard::deleteEdge(uint64_t Fn, NodeId Src, NodeId Dst) {
  FunctionWriter &W = writer(Fn);
  EdgeId E = findLiveEdge(W, Src, Dst);
  return record(W, E != InvalidEdge && W.Graph.deleteEdge(E));
}

NodeId Shard::splitBlock(uint64_t Fn, NodeId Src, NodeId Dst) {
  FunctionWriter &W = writer(Fn);
  EdgeId E = findLiveEdge(W, Src, Dst);
  NodeId N = InvalidNode;
  if (E != InvalidEdge && fits(W.Graph, 1, 2))
    N = W.Graph.splitBlock(E);
  record(W, N != InvalidNode);
  return N;
}

NodeId Shard::addBlock(uint64_t Fn, NodeId Src, NodeId Dst) {
  FunctionWriter &W = writer(Fn);
  NodeId N = InvalidNode;
  if (inRange(W.Graph, Src, Dst) && fits(W.Graph, 1, 2))
    N = W.Graph.addBlock(Src, Dst);
  record(W, N != InvalidNode);
  return N;
}

uint32_t Shard::pendingFunctions() const {
  uint32_t N = 0;
  for (const auto &[Fn, W] : Writers)
    if (W.Dirty)
      ++N;
  return N;
}

namespace {

/// Splits a commit into phases. Reads the clock only when \p On, so an
/// untimed commit reads none; every lap is then 0.
class PhaseClock {
public:
  explicit PhaseClock(bool On) : On(On) {
    if (On)
      Start = Last = std::chrono::steady_clock::now();
  }

  /// Nanoseconds since the previous lap (or the start).
  uint64_t lap() {
    if (!On)
      return 0;
    auto Now = std::chrono::steady_clock::now();
    uint64_t Ns = nsBetween(Last, Now);
    Last = Now;
    return Ns;
  }

  /// Nanoseconds from the start to the last lap.
  uint64_t total() const { return On ? nsBetween(Start, Last) : 0; }

private:
  static uint64_t nsBetween(std::chrono::steady_clock::time_point A,
                            std::chrono::steady_clock::time_point B) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
  }

  bool On;
  std::chrono::steady_clock::time_point Start, Last;
};

} // namespace

uint64_t Shard::commit() {
  PST_SPAN("serve.commit");
  const bool Timed = telemetryRecording();
  PhaseClock Clock(Timed);
  [[maybe_unused]] uint64_t FreezeNs = 0, BundleNs = 0, PublishNs = 0;
  bool Any = false;
  for (auto &[Fn, W] : Writers) {
    if (!W.Dirty)
      continue;
    auto Snap = FunctionSnapshot::freeze(W.Graph.view(Scratch.View),
                                         W.Graph.graph(), W.Name, Scratch.Pst);
    assert(Snap && "refreeze of a validated graph cannot fail");
    FreezeNs += Clock.lap();
    if (Derived) {
      // The slot is empty, so this builds; the snapshot is published
      // with its bundle ready.
      Snap->derivedSlot().get(Snap->cfg(), Scratch.Dom, *Derived);
      BundleNs += Clock.lap();
    }
    auto It = std::lower_bound(
        WorkingOverlay.begin(), WorkingOverlay.end(), Fn,
        [](const auto &Entry, uint64_t Key) { return Entry.first < Key; });
    if (It != WorkingOverlay.end() && It->first == Fn)
      It->second = std::move(Snap);
    else
      WorkingOverlay.insert(It, {Fn, std::move(Snap)});
    W.Dirty = false;
    ++Refrozen;
    PST_COUNTER("serve.functions_refrozen", 1);
    PST_COUNTER(ProbeRefrozen, 1);
    Any = true;
    PublishNs += Clock.lap();
  }
  if (!Any)
    return Epochs.currentVersion();
  auto E = std::make_unique<ShardEpoch>();
  E->Version = NextVersion;
  E->Overlay = WorkingOverlay;
  uint64_t V = NextVersion++;
  Epochs.publish(std::move(E), V);
  ++Commits;
  PST_COUNTER("serve.commits", 1);
  if (Timed) {
    PublishNs += Clock.lap();
    PST_VALUE("serve.commit.freeze_ns", FreezeNs);
    if (Derived)
      PST_VALUE("serve.commit.bundle_ns", BundleNs);
    PST_VALUE("serve.commit.publish_ns", PublishNs);
    PST_VALUE("serve.commit_ns", Clock.total());
    PST_VALUE(ProbeCommitNs, Clock.total());
  }
  return V;
}

bool Shard::verifyPublished(std::string *Why) const {
  auto Pinned = Epochs.pin();
  for (const auto &[Fn, Snap] : Pinned->Overlay) {
    auto It = Writers.find(Fn);
    if (It == Writers.end()) {
      if (Why)
        *Why = "overlaid function " + std::to_string(Fn) +
               " has no writer state";
      return false;
    }
    if (It->second.Dirty) {
      if (Why)
        *Why = "function " + std::to_string(Fn) +
               " has journaled edits not yet committed; the invariant is "
               "defined at commit points";
      return false;
    }
    std::string Inner;
    if (!snapshotMatchesFromScratch(*Snap, It->second.Graph.materialize(),
                                    &Inner)) {
      if (Why)
        *Why = "function " + std::to_string(Fn) + ": " + Inner;
      return false;
    }
  }
  return true;
}

Cfg Shard::writerGraph(uint64_t Fn) const {
  auto It = Writers.find(Fn);
  if (It == Writers.end())
    return Base.materializeCfg(Fn);
  return It->second.Graph.materialize();
}

ShardStats Shard::stats() const {
  ShardStats S;
  S.Edits = Edits;
  S.EditsRejected = EditsRejected;
  S.Commits = Commits;
  S.Refrozen = Refrozen;
  S.Published = Epochs.publishCount();
  S.Reclaimed = Epochs.reclaimCount();
  return S;
}
