//===- PstServer.cpp - Sharded snapshot analysis server -----------------------===//
//
// Part of the PST library (see PstServer.h for the reference).
//
// Query execution: every query pins its shard's current epoch, resolves
// the function to zero-copy views, computes against those views only,
// and formats one deterministic response line. `region` and `regions`
// read the frozen PST directly: PSTs are shallow, so the parent walk is
// already effectively constant time. `dom`, `cdep` and `phi` go through
// the per-epoch DerivedCache by default: first touch of a function
// materializes its idom/frontier/cdep-CSR bundle once, and every later
// query is a lookup. With the cache disabled
// (ServeOptions::DerivedCache = false) each query derives what it needs
// from the frozen views on the spot; both paths format byte-identical
// responses, which tests and time_serve gate on.
//
//===----------------------------------------------------------------------===//

#include "pst/serve/PstServer.h"

#include "pst/dom/Dominators.h"
#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace pst;
using namespace pst::serve;

namespace {

std::vector<const char *> queryProbes(uint32_t NumShards) {
  std::vector<const char *> Probes;
  Probes.reserve(NumShards);
  for (uint32_t I = 0; I < NumShards; ++I)
    Probes.push_back(
        internTelemetryName("serve.shard" + std::to_string(I) + ".query_ns"));
  return Probes;
}

void appendNode(std::string &Out, NodeId N) {
  if (N == InvalidNode)
    Out += '-';
  else
    Out += std::to_string(N);
}

/// Walks both regions to their least common ancestor: the innermost
/// region containing both nodes.
RegionId regionLca(const ProgramStructureTree &T, RegionId A, RegionId B) {
  while (T.region(A).Depth > T.region(B).Depth)
    A = T.region(A).Parent;
  while (T.region(B).Depth > T.region(A).Depth)
    B = T.region(B).Parent;
  while (A != B) {
    A = T.region(A).Parent;
    B = T.region(B).Parent;
  }
  return A;
}

void runRegion(const ResolvedFunction &F, const Request &R, QueryScratch &Sc) {
  const ProgramStructureTree &T = F.Pst;
  RegionId L = regionLca(T, T.regionOfNode(R.A), T.regionOfNode(R.B));
  const SeseRegion &Reg = T.region(L);
  Sc.Out += "ok region fn=" + std::to_string(R.Fn) +
            " a=" + std::to_string(R.A) + " b=" + std::to_string(R.B) +
            " region=" + std::to_string(L) +
            " depth=" + std::to_string(Reg.Depth) + " entry=";
  if (Reg.EntryEdge == InvalidEdge)
    Sc.Out += '-';
  else
    Sc.Out += std::to_string(Reg.EntryEdge);
  Sc.Out += " exit=";
  if (Reg.ExitEdge == InvalidEdge)
    Sc.Out += '-';
  else
    Sc.Out += std::to_string(Reg.ExitEdge);
}

void runRegions(const ResolvedFunction &F, const Request &R,
                QueryScratch &Sc) {
  const ProgramStructureTree &T = F.Pst;
  uint32_t MaxDepth = 0;
  for (const SeseRegion &Reg : T.regionTable())
    MaxDepth = std::max(MaxDepth, Reg.Depth);
  Sc.Out += "ok regions fn=" + std::to_string(R.Fn) +
            " count=" + std::to_string(T.numRegions()) +
            " canonical=" + std::to_string(T.numCanonicalRegions()) +
            " maxdepth=" + std::to_string(MaxDepth);
}

void runCdep(const ResolvedFunction &F, const Request &R, QueryScratch &Sc,
             const DerivedBundle *B) {
  // Classic control dependence via postdominators (Ferrante/Ottenstein/
  // Warren): node N is control dependent on edge (C, M) iff N
  // postdominates M and does not strictly postdominate C. The bundle's
  // CSR holds the whole relation with each slice ascending by edge id —
  // the same set, in the same order, as this scan (ControlDependenceCsr.h
  // spells out the equivalence).
  Sc.Edges.clear();
  if (B) {
    std::span<const EdgeId> Slice = B->Cdep.controllingEdges(R.A);
    Sc.Edges.assign(Slice.begin(), Slice.end());
  } else {
    DomTree Pdt = DomTree::buildPostDom(F.View);
    for (EdgeId E = 0; E < F.View.numEdges(); ++E) {
      NodeId C = F.View.source(E), M = F.View.target(E);
      if (Pdt.dominates(R.A, M) && !(R.A != C && Pdt.dominates(R.A, C)))
        Sc.Edges.push_back(E);
    }
  }
  Sc.Out += "ok cdep fn=" + std::to_string(R.Fn) +
            " node=" + std::to_string(R.A) + " edges=[";
  for (size_t I = 0; I < Sc.Edges.size(); ++I) {
    if (I)
      Sc.Out += ',';
    EdgeId E = Sc.Edges[I];
    Sc.Out += std::to_string(E) + ":" + std::to_string(F.View.source(E)) +
              "->" + std::to_string(F.View.target(E));
  }
  Sc.Out += ']';
}

void runDom(const ResolvedFunction &F, const Request &R, QueryScratch &Sc,
            const DerivedBundle *B) {
  NodeId Idom;
  if (B) {
    Idom = B->Idom[R.A];
  } else {
    DomTree Dt = DomTree::buildIterative(F.View);
    Idom = Dt.idom(R.A);
  }
  Sc.Out += "ok dom fn=" + std::to_string(R.Fn) +
            " node=" + std::to_string(R.A) + " idom=";
  appendNode(Sc.Out, Idom);
}

void runPhi(const ResolvedFunction &F, const Request &R, QueryScratch &Sc,
            const DerivedBundle *B) {
  // iterated() dedups the defs and returns the blocks sorted.
  std::vector<NodeId> Blocks;
  if (B) {
    Blocks = B->Df.iterated(R.Defs);
  } else {
    DomTree Dt = DomTree::buildIterative(F.View);
    Blocks = DominanceFrontiers(F.View, Dt).iterated(R.Defs);
  }
  Sc.Out += "ok phi fn=" + std::to_string(R.Fn) + " defs=[";
  for (size_t I = 0; I < R.Defs.size(); ++I) {
    if (I)
      Sc.Out += ',';
    Sc.Out += std::to_string(R.Defs[I]);
  }
  Sc.Out += "] blocks=[";
  for (size_t I = 0; I < Blocks.size(); ++I) {
    if (I)
      Sc.Out += ',';
    Sc.Out += std::to_string(Blocks[I]);
  }
  Sc.Out += ']';
}

} // namespace

PstServer::PstServer(CorpusImage Image, ServeOptions Options)
    : Img(std::move(Image)), Opts(Options),
      Pool(Options.NumThreads) {
  assert(Img.valid() && "serving an invalid image");
  if (Opts.NumShards == 0)
    Opts.NumShards = 1;
  Shards.reserve(Opts.NumShards);
  for (uint32_t I = 0; I < Opts.NumShards; ++I)
    Shards.push_back(
        std::make_unique<Shard>(Img, I, Opts.NumShards, Opts.EpochCapacity));
  Scratches.resize(Pool.numWorkers());
  ShardQueryProbes = queryProbes(Opts.NumShards);
  if (Opts.DerivedCache)
    Cache = std::make_unique<class DerivedCache>(Img.numFunctions());
}

std::unique_ptr<PstServer> PstServer::open(const std::string &Path,
                                           ServeOptions Opts,
                                           std::string *Error) {
  CorpusImage Img = CorpusImage::map(Path, Error);
  if (!Img.valid())
    return nullptr;
  return std::make_unique<PstServer>(std::move(Img), Opts);
}

namespace {

std::string runQuery(const PstServer &S, const Request &R, QueryScratch &Sc,
                     const std::vector<const char *> &ShardQueryProbes) {
  Sc.Out.clear();
  if (R.Kind == RequestKind::Invalid) {
    Sc.Out = "err " + (R.Error.empty() ? "invalid request" : R.Error);
    return Sc.Out;
  }
  if (R.Fn >= S.numFunctions()) {
    Sc.Out = "err fn " + std::to_string(R.Fn) + " out of range (corpus has " +
             std::to_string(S.numFunctions()) + " functions)";
    return Sc.Out;
  }
  auto Start = std::chrono::steady_clock::now();
  const Shard &Sh = S.shardOf(R.Fn);
  auto Pin = Sh.pin();
  uint64_t Lag = Sh.currentVersion() - Pin.version();
  ResolvedFunction F = Sh.resolve(*Pin, R.Fn);

  // Node-argument validation against the *resolved* graph (edits may
  // have grown it past the base image's node count).
  auto NodeOk = [&](NodeId N) { return N < F.View.numNodes(); };

  // dom/cdep/phi share the function's derived bundle: overlay functions
  // carry their slot in the snapshot (so it retires with the epoch),
  // base-image functions use the server-lifetime cache. region, regions,
  // name and error paths never touch (or build) a bundle.
  auto Bundle = [&]() -> const DerivedBundle * {
    if (!S.derivedCache())
      return nullptr;
    const DerivedSlot &Slot =
        F.Snap ? F.Snap->derivedSlot() : S.derivedCache()->slot(R.Fn);
    return &Slot.get(F.View, F.Pst, S.cacheCounters());
  };

  switch (R.Kind) {
  case RequestKind::Region:
    if (!NodeOk(R.A) || !NodeOk(R.B)) {
      Sc.Out = "err node out of range";
      return Sc.Out;
    }
    runRegion(F, R, Sc);
    break;
  case RequestKind::Regions:
    runRegions(F, R, Sc);
    break;
  case RequestKind::Cdep:
    if (!NodeOk(R.A)) {
      Sc.Out = "err node out of range";
      return Sc.Out;
    }
    runCdep(F, R, Sc, Bundle());
    break;
  case RequestKind::Dom:
    if (!NodeOk(R.A)) {
      Sc.Out = "err node out of range";
      return Sc.Out;
    }
    runDom(F, R, Sc, Bundle());
    break;
  case RequestKind::Phi:
    for (NodeId D : R.Defs)
      if (!NodeOk(D)) {
        Sc.Out = "err node out of range";
        return Sc.Out;
      }
    runPhi(F, R, Sc, Bundle());
    break;
  case RequestKind::Name:
    Sc.Out = "ok name fn=" + std::to_string(R.Fn) + " " + std::string(F.Name);
    break;
  case RequestKind::Invalid:
    break; // Handled above.
  }

  uint64_t DurNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  PST_COUNTER("serve.queries", 1);
  PST_VALUE("serve.query_ns", DurNs);
  PST_VALUE(ShardQueryProbes[Sh.index()], DurNs);
  PST_VALUE("serve.epoch_lag", Lag);
  return Sc.Out;
}

} // namespace

std::string PstServer::execute(const Request &R) {
  return runQuery(*this, R, Scratches[0], ShardQueryProbes);
}

std::string PstServer::execute(const Request &R, QueryScratch &Sc) const {
  return runQuery(*this, R, Sc, ShardQueryProbes);
}

void PstServer::executeBatch(std::span<const Request> Batch,
                             std::vector<std::string> &Responses) {
  Responses.clear();
  Responses.resize(Batch.size());
  // Small chunks: queries are independent and latency-heterogeneous
  // (cdep builds a postdominator tree, name is a table lookup).
  Pool.run(Batch.size(), /*ChunkSize=*/4,
           [&](size_t Begin, size_t End, unsigned Worker) {
             for (size_t I = Begin; I < End; ++I)
               Responses[I] = runQuery(*this, Batch[I], Scratches[Worker],
                                       ShardQueryProbes);
           });
}
