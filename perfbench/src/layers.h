//===- layers.h - Serve mix and per-layer passes ----------------*- C++ -*-===//
//
// The serve-mixed traffic loop (shared by the serve-mixed workload and the
// small serve run every other traced run makes) and the per-layer passes
// every traced run executes after its workload.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "common.h"

#include "pst/runtime/BatchAnalyzer.h"
#include "pst/serve/PstServer.h"

#include <string>
#include <vector>

namespace perfbench {

/// Order- and content-sensitive hash of one function's analysis (PST
/// region table, node-to-region map and control-region partition).
uint64_t analysisChecksum(const pst::FunctionAnalysis &A);

/// Number of query kinds in the serve mix: region, regions, cdep, dom,
/// phi, name (in that order).
constexpr unsigned NumQueryKinds = 6;
extern const char *const QueryKindNames[NumQueryKinds];

/// Seed of the stream corpus behind image-build, serve-mixed and the
/// layer passes: all three use prefixes of one seeded stream.
uint64_t streamSeed(uint64_t Seed);

/// Builds the image of the first \p Count stream-corpus functions at
/// \p Path with a 4-worker BatchAnalyzer. Throws on I/O failure.
void buildStreamImage(uint64_t Seed, uint64_t Count, const std::string &Path);

/// One writer edit: addBlock(Fn, Src, Dst) and then commit.
struct Edit {
  uint64_t Fn;
  pst::NodeId Src, Dst;
};

/// What one run of the serve mix observed.
struct ServeMixResult {
  uint64_t Queries = 0;
  uint64_t BadResponses = 0;
  std::string FirstBad;
  uint64_t Allocs = 0;
  /// Every query's latency, by the window of the run it started in.
  std::vector<LatencyHistogram> Windows;
  uint64_t WindowNs = 0;
  /// Traced run only: the odd-numbered queries of each reader, by kind
  /// (their "span" records), and the untraced even ones for comparison.
  LatencyHistogram PerKind[NumQueryKinds];
  LatencyHistogram TracedQueries, UntracedQueries;
  /// Per commit: from the scheduled time, and from the edit call, to
  /// commit() returning.
  std::vector<double> CommitFromDueUs, CommitExecUs;
  uint64_t Late = 0;
  uint64_t EditsRejected = 0;
  std::vector<Edit> EditLog;
  pst::serve::DerivedCacheStats CacheBefore, CacheAfter;
};

/// The server plus the seeded popularity order over its functions.
struct ServeHarness {
  std::unique_ptr<pst::serve::PstServer> Server;
  /// Popularity rank -> function index (a seeded permutation, so hot
  /// functions spread over shards).
  std::vector<uint64_t> ByRank;
};

/// Maps \p Path into an 8-shard server (query pool of 1: readers are
/// the caller's threads) and, when \p Warm, builds every base-image
/// bundle. Throws if the image does not map.
ServeHarness openServer(const std::string &Path, uint64_t Seed,
                        bool DerivedCache, bool Warm);

/// Runs two closed-loop readers and one open-loop writer at 200 commits/s
/// against \p H for \p Seconds. \p Traced also keeps per-kind latencies of
/// every other query.
ServeMixResult runServeMix(ServeHarness &H, uint64_t Seed, bool Traced,
                           double Seconds);

/// After a serve mix: every shard passes verifyPublished, and a seeded
/// sample of queries answers identically on a cache-disabled server over
/// \p Path that replays the same edits.
void checkServeRun(ServeHarness &H, const ServeMixResult &Res,
                   const std::string &Path, uint64_t Seed, Report &R);

/// Every per-layer metric. \p Main, when non-null, is the traced run's own
/// serve mix (serve-mixed) to read the serve rows from; otherwise a short
/// serve mix over the layer image supplies them.
struct ServeRun {
  ServeHarness *Harness;
  const ServeMixResult *Result;
};
void measureAllLayers(const Options &O, Report &R, const ServeRun *Main);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
