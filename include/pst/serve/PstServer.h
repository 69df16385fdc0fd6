//===- pst/serve/PstServer.h - Sharded snapshot analysis server -*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving engine: a mapped corpus image split into shards
/// (round-robin by function index), each with its own writer state and
/// epoch table, plus a ThreadPool that fans query batches out across
/// workers with per-worker scratch.
///
/// Queries are pure functions of one pinned epoch: each one pins its
/// target shard's current epoch, resolves the function to zero-copy
/// views (base image or overlay snapshot), computes, formats, and
/// unpins. Responses are deterministic — for a given image + edit
/// history, the response text is identical at any worker count and
/// regardless of concurrent commits on *other* functions, because a
/// query sees exactly one published snapshot, never intermediate writer
/// state. (Concurrent commits on the *same* function change which epoch
/// a query pins — that ordering is the client's to control, which the
/// line protocol does by committing synchronously.)
///
/// Division of labor with Protocol.h: this header owns the query
/// *semantics* (Request in, response line out); Protocol.h owns the text
/// protocol (request parsing and the session loop with its
/// deterministic batching of reads between write barriers).
///
//===----------------------------------------------------------------------===//

#ifndef PST_SERVE_PSTSERVER_H
#define PST_SERVE_PSTSERVER_H

#include "pst/serve/DerivedCache.h"
#include "pst/serve/Shard.h"
#include "pst/support/ThreadPool.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pst {
namespace serve {

/// Read-only query kinds a worker can execute against a pinned epoch.
/// Edits, commits and introspection are session-level barrier commands
/// (Protocol.h) — they never enter a parallel batch.
enum class RequestKind {
  Region,  ///< Innermost region containing nodes A and B (their LCA).
  Regions, ///< Region count / max depth summary for a function.
  Cdep,    ///< Control-dependence edge set of node A.
  Dom,     ///< Immediate dominator of node A.
  Phi,     ///< Iterated dominance frontier of a def-block set.
  Name,    ///< Function name lookup.
  Invalid, ///< Parse error; Error carries the message.
};

/// One parsed query. Fn is a global function index.
struct Request {
  RequestKind Kind = RequestKind::Invalid;
  uint64_t Fn = 0;
  NodeId A = InvalidNode;
  NodeId B = InvalidNode;
  /// Phi def blocks.
  std::vector<NodeId> Defs;
  /// Parse diagnostic for Invalid requests.
  std::string Error;
};

/// Per-worker reusable query state. Every buffer only grows, so a query
/// on a warm scratch allocates nothing but the string it returns.
struct QueryScratch {
  /// The uncached `cdep` scan's edges (cached queries read the bundle).
  std::vector<EdgeId> Edges;
  /// `phi`: the result, worklist and mark buffers of
  /// DominanceFrontiers::iterated.
  std::vector<NodeId> Blocks, Work;
  std::vector<uint8_t> Mark;
  /// The response being formatted.
  std::string Out;
  /// Dominator-kernel scratch for a base-image bundle's first-touch build
  /// (overlay bundles are built by the committing writer).
  DomScratch Dom;
};

struct ServeOptions {
  /// Shards (single-writer domains). Edits to different shards may
  /// commit from different threads; within a shard, writes are serial.
  uint32_t NumShards = 4;
  /// Query-pool workers; 0 = hardware concurrency (ThreadPool default).
  unsigned NumThreads = 0;
  /// Epoch table capacity per shard (see EpochTable.h on sizing).
  uint32_t EpochCapacity = 64;
  /// Per-epoch derived-analysis cache (DerivedCache.h): every function's
  /// idom/frontier/cdep-CSR bundle is built once per epoch — a base-image
  /// function's by the first dom/cdep/phi query on it, a refrozen
  /// function's by the commit that publishes it — and queries reuse it.
  /// Commits of a server with the cache off build nothing. Responses are
  /// byte-identical either way (gated by tests and `time_serve`); disable
  /// (`pstserve --no-derived-cache`) to force per-query recomputation.
  bool DerivedCache = true;
};

/// The server engine. Readers (`executeBatch`) and per-shard writers may
/// run concurrently; see Shard.h for the per-shard writer contract.
class PstServer {
public:
  /// Takes ownership of a mapped or memory-backed image.
  explicit PstServer(CorpusImage Image, ServeOptions Opts = {});

  /// Maps \p Path (CorpusImage::map zero-parse cold start) and serves it.
  static std::unique_ptr<PstServer>
  open(const std::string &Path, ServeOptions Opts = {},
       std::string *Error = nullptr);

  uint64_t numFunctions() const { return Img.numFunctions(); }
  uint32_t numShards() const { return static_cast<uint32_t>(Shards.size()); }
  unsigned numWorkers() const { return Pool.numWorkers(); }
  const CorpusImage &image() const { return Img; }

  Shard &shard(uint32_t I) { return *Shards[I]; }
  const Shard &shard(uint32_t I) const { return *Shards[I]; }
  Shard &shardOf(uint64_t Fn) { return *Shards[Fn % Shards.size()]; }
  const Shard &shardOf(uint64_t Fn) const { return *Shards[Fn % Shards.size()]; }

  /// Executes one query serially on the calling thread.
  std::string execute(const Request &R);

  /// As \c execute with caller-provided scratch: safe to call from any
  /// number of threads concurrently, each with its own \p Sc (this is the
  /// path external reader threads — e.g. the serve bench — use without
  /// going through the pool).
  std::string execute(const Request &R, QueryScratch &Sc) const;

  /// Executes a batch on the pool; \p Responses comes back in request
  /// order (responses are position-stable regardless of worker count).
  void executeBatch(std::span<const Request> Batch,
                    std::vector<std::string> &Responses);

  /// Null when the derived cache is disabled; otherwise one slot per
  /// base-image function (overlay slots live in their snapshots).
  const DerivedCache *derivedCache() const { return Cache.get(); }
  /// Aggregated cache counters across base-image and overlay slots.
  DerivedCacheCounters &cacheCounters() const { return CacheCounters; }
  DerivedCacheStats derivedCacheStats() const {
    DerivedCacheStats S;
    S.Hits = CacheCounters.hits();
    S.Waits = CacheCounters.waits();
    S.Builds = CacheCounters.builds();
    S.BuildNs = CacheCounters.buildNs();
    S.BytesBuilt = CacheCounters.bytesBuilt();
    return S;
  }

private:
  CorpusImage Img;
  ServeOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  ThreadPool Pool;
  std::vector<QueryScratch> Scratches;
  /// Interned per-shard "serve.shardK.query_ns" probe names.
  std::vector<const char *> ShardQueryProbes;
  /// Base-image derived-analysis slots (null with Opts.DerivedCache off).
  std::unique_ptr<DerivedCache> Cache;
  mutable DerivedCacheCounters CacheCounters;
};

} // namespace serve
} // namespace pst

#endif // PST_SERVE_PSTSERVER_H
