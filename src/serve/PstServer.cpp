//===- PstServer.cpp - Sharded snapshot analysis server -----------------------===//
//
// Part of the PST library (see PstServer.h for the reference).
//
// Query execution: every query pins its shard's current epoch, resolves
// the function to zero-copy views, computes against those views only,
// and formats one deterministic response line. `region` and `regions`
// read the frozen PST directly: PSTs are shallow, so the parent walk is
// already effectively constant time. `dom`, `cdep` and `phi` go through
// the per-epoch DerivedCache by default: a function's idom/frontier/
// cdep-CSR bundle is built once (on the query's DomScratch at first touch
// of a base-image function; by the committing writer for a refrozen
// one), and every later query is a lookup. With the cache disabled
// (ServeOptions::DerivedCache = false) each query derives what it needs
// from the frozen views on the spot; both paths format byte-identical
// responses, which tests and time_serve gate on.
//
// A warm query allocates only the string it returns: responses are
// appended to the worker's QueryScratch::Out with std::to_chars, `cdep`
// formats straight from the bundle's CSR slice, and `phi` runs in the
// scratch's buffers. The clock and the epoch lag are read only when
// telemetry is on, since nothing else consumes them.
//
//===----------------------------------------------------------------------===//

#include "pst/serve/PstServer.h"

#include "pst/dom/Dominators.h"
#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <iterator>

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

/// Appends the decimal digits of \p V: no temporary string.
void appendNum(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends a node or edge id, or '-' for \p Invalid.
void appendId(std::string &Out, uint32_t Id, uint32_t Invalid) {
  if (Id == Invalid)
    Out += '-';
  else
    appendNum(Out, Id);
}

/// Appends a comma-separated list of ids.
void appendList(std::string &Out, std::span<const NodeId> Ids) {
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (I)
      Out += ',';
    appendNum(Out, Ids[I]);
  }
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
  Sc.Out += "ok region fn=";
  appendNum(Sc.Out, R.Fn);
  Sc.Out += " a=";
  appendNum(Sc.Out, R.A);
  Sc.Out += " b=";
  appendNum(Sc.Out, R.B);
  Sc.Out += " region=";
  appendNum(Sc.Out, L);
  Sc.Out += " depth=";
  appendNum(Sc.Out, Reg.Depth);
  Sc.Out += " entry=";
  appendId(Sc.Out, Reg.EntryEdge, InvalidEdge);
  Sc.Out += " exit=";
  appendId(Sc.Out, Reg.ExitEdge, InvalidEdge);
}

void runRegions(const ResolvedFunction &F, const Request &R,
                QueryScratch &Sc) {
  const ProgramStructureTree &T = F.Pst;
  uint32_t MaxDepth = 0;
  for (const SeseRegion &Reg : T.regionTable())
    MaxDepth = std::max(MaxDepth, Reg.Depth);
  Sc.Out += "ok regions fn=";
  appendNum(Sc.Out, R.Fn);
  Sc.Out += " count=";
  appendNum(Sc.Out, T.numRegions());
  Sc.Out += " canonical=";
  appendNum(Sc.Out, T.numCanonicalRegions());
  Sc.Out += " maxdepth=";
  appendNum(Sc.Out, MaxDepth);
}

void runCdep(const ResolvedFunction &F, const Request &R, QueryScratch &Sc,
             const DerivedBundle *B) {
  // Classic control dependence via postdominators (Ferrante/Ottenstein/
  // Warren): node N is control dependent on edge (C, M) iff N
  // postdominates M and does not strictly postdominate C. The bundle's
  // CSR holds the whole relation with each slice ascending by edge id —
  // the same set, in the same order, as this scan (ControlDependenceCsr.h
  // spells out the equivalence).
  std::span<const EdgeId> Edges;
  if (B) {
    Edges = B->Cdep.controllingEdges(R.A);
  } else {
    Sc.Edges.clear();
    DomTree Pdt = DomTree::buildPostDom(F.View);
    for (EdgeId E = 0; E < F.View.numEdges(); ++E) {
      NodeId C = F.View.source(E), M = F.View.target(E);
      if (Pdt.dominates(R.A, M) && !(R.A != C && Pdt.dominates(R.A, C)))
        Sc.Edges.push_back(E);
    }
    Edges = Sc.Edges;
  }
  Sc.Out += "ok cdep fn=";
  appendNum(Sc.Out, R.Fn);
  Sc.Out += " node=";
  appendNum(Sc.Out, R.A);
  Sc.Out += " edges=[";
  for (size_t I = 0; I < Edges.size(); ++I) {
    if (I)
      Sc.Out += ',';
    EdgeId E = Edges[I];
    appendNum(Sc.Out, E);
    Sc.Out += ':';
    appendNum(Sc.Out, F.View.source(E));
    Sc.Out += "->";
    appendNum(Sc.Out, F.View.target(E));
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
  Sc.Out += "ok dom fn=";
  appendNum(Sc.Out, R.Fn);
  Sc.Out += " node=";
  appendNum(Sc.Out, R.A);
  Sc.Out += " idom=";
  appendId(Sc.Out, Idom, InvalidNode);
}

void runPhi(const ResolvedFunction &F, const Request &R, QueryScratch &Sc,
            const DerivedBundle *B) {
  // iterated() dedups the defs and returns the blocks sorted.
  if (B) {
    B->Df.iterated(R.Defs, Sc.Blocks, Sc.Work, Sc.Mark);
  } else {
    DomTree Dt = DomTree::buildIterative(F.View);
    DominanceFrontiers(F.View, Dt).iterated(R.Defs, Sc.Blocks, Sc.Work,
                                            Sc.Mark);
  }
  Sc.Out += "ok phi fn=";
  appendNum(Sc.Out, R.Fn);
  Sc.Out += " defs=[";
  appendList(Sc.Out, R.Defs);
  Sc.Out += "] blocks=[";
  appendList(Sc.Out, Sc.Blocks);
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
    Shards.push_back(std::make_unique<Shard>(
        Img, I, Opts.NumShards, Opts.EpochCapacity,
        Opts.DerivedCache ? &CacheCounters : nullptr));
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

/// Per-kind latency probes, indexed by RequestKind.
constexpr const char *KindQueryProbes[] = {
    "serve.query_ns.region", "serve.query_ns.regions", "serve.query_ns.cdep",
    "serve.query_ns.dom",    "serve.query_ns.phi",     "serve.query_ns.name"};
static_assert(std::size(KindQueryProbes) ==
              static_cast<size_t>(RequestKind::Invalid));

std::string
runQuery(const PstServer &S, const Request &R, QueryScratch &Sc,
         [[maybe_unused]] const std::vector<const char *> &ShardQueryProbes) {
  Sc.Out.clear();
  if (R.Kind == RequestKind::Invalid) {
    Sc.Out += "err ";
    Sc.Out += R.Error.empty() ? std::string_view("invalid request")
                              : std::string_view(R.Error);
    return Sc.Out;
  }
  if (R.Fn >= S.numFunctions()) {
    Sc.Out += "err fn ";
    appendNum(Sc.Out, R.Fn);
    Sc.Out += " out of range (corpus has ";
    appendNum(Sc.Out, S.numFunctions());
    Sc.Out += " functions)";
    return Sc.Out;
  }
  // Only a recorded query reads the clock and the epoch lag.
  const bool Timed = telemetryRecording();
  std::chrono::steady_clock::time_point Start;
  if (Timed)
    Start = std::chrono::steady_clock::now();
  const Shard &Sh = S.shardOf(R.Fn);
  auto Pin = Sh.pin();
  [[maybe_unused]] const uint64_t Lag =
      Timed ? Sh.currentVersion() - Pin.version() : 0;
  ResolvedFunction F = Sh.resolve(*Pin, R.Fn);

  // Node-argument validation against the *resolved* graph (edits may
  // have grown it past the base image's node count).
  auto NodeOk = [&](NodeId N) { return N < F.View.numNodes(); };
  auto NodeErr = [&] {
    Sc.Out += "err node out of range";
    return Sc.Out;
  };

  // dom/cdep/phi share the function's derived bundle: overlay functions
  // carry their slot in the snapshot (so it retires with the epoch),
  // base-image functions use the server-lifetime cache. region, regions,
  // name and error paths never touch (or build) a bundle.
  auto Bundle = [&]() -> const DerivedBundle * {
    if (!S.derivedCache())
      return nullptr;
    const DerivedSlot &Slot =
        F.Snap ? F.Snap->derivedSlot() : S.derivedCache()->slot(R.Fn);
    return &Slot.get(F.View, Sc.Dom, S.cacheCounters());
  };

  switch (R.Kind) {
  case RequestKind::Region:
    if (!NodeOk(R.A) || !NodeOk(R.B))
      return NodeErr();
    runRegion(F, R, Sc);
    break;
  case RequestKind::Regions:
    runRegions(F, R, Sc);
    break;
  case RequestKind::Cdep:
    if (!NodeOk(R.A))
      return NodeErr();
    runCdep(F, R, Sc, Bundle());
    break;
  case RequestKind::Dom:
    if (!NodeOk(R.A))
      return NodeErr();
    runDom(F, R, Sc, Bundle());
    break;
  case RequestKind::Phi:
    for (NodeId D : R.Defs)
      if (!NodeOk(D))
        return NodeErr();
    runPhi(F, R, Sc, Bundle());
    break;
  case RequestKind::Name:
    Sc.Out += "ok name fn=";
    appendNum(Sc.Out, R.Fn);
    Sc.Out += ' ';
    Sc.Out += F.Name;
    break;
  case RequestKind::Invalid:
    break; // Handled above.
  }

  if (Timed) {
    [[maybe_unused]] uint64_t DurNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    PST_COUNTER("serve.queries", 1);
    PST_VALUE("serve.query_ns", DurNs);
    PST_VALUE(KindQueryProbes[static_cast<size_t>(R.Kind)], DurNs);
    PST_VALUE(ShardQueryProbes[Sh.index()], DurNs);
    PST_VALUE("serve.epoch_lag", Lag);
  }
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
