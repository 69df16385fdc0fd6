//===- serve_mixed.cpp - Workload serve-mixed and the serve mix -----------===//
//
// A PstServer (8 shards) over the image of a seeded 20k-function stream
// corpus, every base-image bundle warmed in setup. Two closed-loop reader
// threads call execute(R, Scratch) with an even region/regions/cdep/dom/
// phi/name mix over Zipf-skewed function popularity, while one writer
// thread runs an open loop at 200 commits/s, each step one addBlock edit
// on a hot function and then commit. Commits are timed from their
// scheduled time; the writer sleeps only until 200 us before a due time
// and spins the rest, so timer slack does not land in the commit latency.
//
// An op is one query.
//
//===----------------------------------------------------------------------===//

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace pst;
using namespace pst::serve;

namespace perfbench {

const char *const QueryKindNames[NumQueryKinds] = {"region", "regions", "cdep",
                                                   "dom",    "phi",     "name"};

namespace {

constexpr uint64_t ServeFunctions = 20000;
constexpr unsigned SetupRepeats = 5;
constexpr size_t CheckedQueries = 2000;
constexpr unsigned Readers = 2;
constexpr double CommitsPerSec = 200;
/// Edits go to functions drawn uniformly from this many of the most
/// popular ones.
constexpr uint64_t HotFunctions = 256;

using std::chrono::microseconds;
using std::chrono::nanoseconds;

double usBetween(Clock::time_point A, Clock::time_point B) {
  return double(nsBetween(A, B)) / 1e3;
}

/// Fills \p Req with the next query of a reader's stream and returns its
/// kind. Node arguments come from the base image: edits only add nodes,
/// so base node ids stay valid in every epoch.
unsigned nextRequest(const CorpusImage &Img,
                     const std::vector<uint64_t> &ByRank, uint64_t &Rng,
                     Request &Req) {
  const uint64_t Fn = ByRank[zipfRank(ByRank.size(), xorshift(Rng))];
  const uint32_t Nodes = Img.func(Fn).NumNodes;
  const unsigned Kind = unsigned(xorshift(Rng) % NumQueryKinds);
  Req.Fn = Fn;
  Req.A = Req.B = InvalidNode;
  Req.Defs.clear();
  switch (Kind) {
  case 0:
    Req.Kind = RequestKind::Region;
    Req.A = NodeId(xorshift(Rng) % Nodes);
    Req.B = NodeId(xorshift(Rng) % Nodes);
    break;
  case 1:
    Req.Kind = RequestKind::Regions;
    break;
  case 2:
    Req.Kind = RequestKind::Cdep;
    Req.A = NodeId(xorshift(Rng) % Nodes);
    break;
  case 3:
    Req.Kind = RequestKind::Dom;
    Req.A = NodeId(xorshift(Rng) % Nodes);
    break;
  case 4:
    Req.Kind = RequestKind::Phi;
    Req.Defs.push_back(NodeId(xorshift(Rng) % Nodes));
    Req.Defs.push_back(NodeId(xorshift(Rng) % Nodes));
    break;
  default:
    Req.Kind = RequestKind::Name;
    break;
  }
  return Kind;
}

bool isOk(const std::string &Resp) { return Resp.compare(0, 3, "ok ") == 0; }

} // namespace

ServeHarness openServer(const std::string &Path, uint64_t Seed,
                        bool DerivedCache, bool Warm) {
  ServeOptions SO;
  SO.NumShards = 8;
  SO.NumThreads = 1;
  SO.DerivedCache = DerivedCache;
  std::string Error;
  ServeHarness H;
  H.Server = PstServer::open(Path, SO, &Error);
  if (!H.Server)
    throw std::runtime_error("cannot serve " + Path + ": " + Error);
  const uint64_t N = H.Server->numFunctions();
  H.ByRank.resize(N);
  std::iota(H.ByRank.begin(), H.ByRank.end(), uint64_t(0));
  uint64_t Rng = mixSeed(Seed, 300);
  for (uint64_t I = N; I > 1; --I)
    std::swap(H.ByRank[I - 1], H.ByRank[xorshift(Rng) % I]);
  if (Warm) {
    QueryScratch Sc;
    Request Req;
    Req.Kind = RequestKind::Dom;
    for (uint64_t Fn = 0; Fn < N; ++Fn) {
      Req.Fn = Fn;
      Req.A = 0;
      (void)H.Server->execute(Req, Sc);
    }
  }
  return H;
}

ServeMixResult runServeMix(ServeHarness &H, uint64_t Seed, bool Traced,
                           double Seconds) {
  PstServer &S = *H.Server;
  const CorpusImage &Img = S.image();
  ServeMixResult Res;
  Res.CacheBefore = S.derivedCacheStats();

  const size_t NumWin = numWindows(Seconds);
  Res.WindowNs = windowNs(Seconds);
  struct ReaderOut {
    std::vector<LatencyHistogram> Windows;
    LatencyHistogram Traced, Untraced;
    LatencyHistogram Kind[NumQueryKinds];
    uint64_t Queries = 0, Bad = 0;
    std::string FirstBad;
  };
  std::vector<ReaderOut> Outs(Readers);
  std::atomic<bool> Stop{false};

  const uint64_t A0 = allocCount();
  const Clock::time_point Start = Clock::now();
  const Clock::time_point End =
      Start + nanoseconds(int64_t(Seconds * 1e9));

  std::vector<std::thread> Threads;
  for (unsigned Rd = 0; Rd < Readers; ++Rd)
    Threads.emplace_back([&, Rd] {
      ReaderOut &Out = Outs[Rd];
      Out.Windows.resize(NumWin);
      QueryScratch Sc;
      Request Req;
      uint64_t Rng = mixSeed(Seed, 100 + Rd);
      uint64_t Q = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        const unsigned Kind = nextRequest(Img, H.ByRank, Rng, Req);
        const Clock::time_point T0 = Clock::now();
        std::string Resp = S.execute(Req, Sc);
        const uint64_t Ns = nsBetween(T0, Clock::now());
        Out.Windows[std::min<size_t>(nsBetween(Start, T0) / Res.WindowNs,
                                     NumWin - 1)]
            .add(Ns);
        if (Traced) {
          // Odd queries are the traced ones: their latency is also kept
          // as a per-kind span record.
          if (Q & 1) {
            Out.Kind[Kind].add(Ns);
            Out.Traced.add(Ns);
          } else {
            Out.Untraced.add(Ns);
          }
        }
        if (!isOk(Resp) && Out.Bad++ == 0)
          Out.FirstBad = Resp;
        ++Q;
      }
      Out.Queries = Q;
    });

  // The open-loop writer: commit K is due at Start + K * Period whether or
  // not the previous one finished on time.
  Threads.emplace_back([&] {
    const nanoseconds Period(int64_t(1e9 / CommitsPerSec));
    const uint64_t Hot = std::min<uint64_t>(HotFunctions, H.ByRank.size());
    uint64_t Rng = mixSeed(Seed, 200);
    for (uint64_t K = 1;; ++K) {
      const Clock::time_point Due = Start + Period * K;
      if (Due >= End)
        break;
      // Pick the edit before waiting: a new block beside an existing
      // edge Src -> Dst of a hot function.
      const uint64_t Fn = H.ByRank[xorshift(Rng) % Hot];
      const CfgView V = Img.cfg(Fn);
      NodeId Src = NodeId(xorshift(Rng) % V.numNodes());
      if (Src == V.exit())
        Src = V.entry();
      const NodeId Dst = V.succNodes(Src)[0];
      if (Due - Clock::now() > microseconds(300))
        std::this_thread::sleep_until(Due - microseconds(200));
      while (Clock::now() < Due) {
      }
      const Clock::time_point Begun = Clock::now();
      if (Begun - Due > microseconds(20))
        ++Res.Late;
      Shard &Sh = S.shardOf(Fn);
      if (Sh.addBlock(Fn, Src, Dst) == InvalidNode)
        ++Res.EditsRejected;
      Sh.commit();
      const Clock::time_point Done = Clock::now();
      Res.CommitFromDueUs.push_back(usBetween(Due, Done));
      Res.CommitExecUs.push_back(usBetween(Begun, Done));
      Res.EditLog.push_back({Fn, Src, Dst});
    }
  });

  std::this_thread::sleep_until(End);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();
  Res.Allocs = allocCount() - A0;
  Res.CacheAfter = S.derivedCacheStats();

  Res.Windows.resize(NumWin);
  for (ReaderOut &Out : Outs) {
    Res.Queries += Out.Queries;
    Res.BadResponses += Out.Bad;
    if (Res.FirstBad.empty())
      Res.FirstBad = Out.FirstBad;
    for (size_t W = 0; W < NumWin; ++W)
      Res.Windows[W].merge(Out.Windows[W]);
    Res.TracedQueries.merge(Out.Traced);
    Res.UntracedQueries.merge(Out.Untraced);
    for (unsigned K = 0; K < NumQueryKinds; ++K)
      Res.PerKind[K].merge(Out.Kind[K]);
  }
  return Res;
}

void checkServeRun(ServeHarness &H, const ServeMixResult &Res,
                   const std::string &Path, uint64_t Seed, Report &R) {
  PstServer &S = *H.Server;
  R.attempt(Res.Queries + Res.EditLog.size());
  if (Res.BadResponses)
    R.fail("query answered '" + Res.FirstBad + "'", Res.BadResponses);
  if (Res.EditsRejected)
    R.fail("addBlock edit rejected", Res.EditsRejected);

  for (uint32_t Sh = 0; Sh < S.numShards(); ++Sh) {
    std::string Why;
    R.attempt();
    if (!S.shard(Sh).verifyPublished(&Why))
      R.fail("shard " + std::to_string(Sh) + " verifyPublished: " + Why);
  }

  // A cache-disabled server that received the same edits must answer a
  // seeded sample of queries byte for byte the same.
  ServeHarness Shadow = openServer(Path, Seed, /*DerivedCache=*/false,
                                   /*Warm=*/false);
  for (const Edit &E : Res.EditLog) {
    Shard &Sh = Shadow.Server->shardOf(E.Fn);
    (void)Sh.addBlock(E.Fn, E.Src, E.Dst);
    Sh.commit();
  }
  QueryScratch A, B;
  Request Req;
  uint64_t Rng = mixSeed(Seed, 400);
  for (size_t I = 0; I < CheckedQueries; ++I) {
    (void)nextRequest(S.image(), H.ByRank, Rng, Req);
    if (I % 2 && !Res.EditLog.empty())
      Req.Fn = Res.EditLog[xorshift(Rng) % Res.EditLog.size()].Fn;
    const uint32_t Nodes = S.image().func(Req.Fn).NumNodes;
    if (Req.A != InvalidNode)
      Req.A %= Nodes;
    if (Req.B != InvalidNode)
      Req.B %= Nodes;
    for (NodeId &D : Req.Defs)
      D %= Nodes;
    std::string Cached = S.execute(Req, A);
    std::string Uncached = Shadow.Server->execute(Req, B);
    R.attempt();
    if (!isOk(Cached) || Cached != Uncached)
      R.fail("cached '" + Cached + "' vs uncached '" + Uncached + "'");
  }
}

void runServeMixed(const Options &O, Report &R) {
  const std::string Path = O.WorkDir + "/serve-mixed.img";
  std::vector<double> SetupSec;
  ServeHarness H;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    H = ServeHarness();
    Clock::time_point T0 = Clock::now();
    std::remove(Path.c_str());
    buildStreamImage(O.Seed, ServeFunctions, Path);
    H = openServer(Path, O.Seed, /*DerivedCache=*/true, /*Warm=*/true);
    SetupSec.push_back(secondsSince(T0));
  }
  const double BytesPerFn =
      double(H.Server->image().fileBytes()) / double(ServeFunctions);

  ServeMixResult Res = runServeMix(H, O.Seed, O.Trace, O.Seconds);
  const double PeakMb = double(peakRssBytes()) / 1e6;
  checkServeRun(H, Res, Path, O.Seed, R);

  std::vector<double> WinQps, WinP50, WinP90, WinP99;
  for (const LatencyHistogram &W : Res.Windows) {
    WinQps.push_back(double(W.count()) * 1e9 / double(Res.WindowNs));
    WinP50.push_back(W.percentileNs(0.5) / 1e3);
    WinP90.push_back(W.percentileNs(0.9) / 1e3);
    WinP99.push_back(W.percentileNs(0.99) / 1e3);
  }
  const double Qps = median(WinQps), P50 = median(WinP50),
               P90 = median(WinP90), P99 = median(WinP99);
  const double AllocsPerQuery = double(Res.Allocs) / double(Res.Queries);
  const double Commits = double(Res.CommitFromDueUs.size());
  R.detail("queries_per_s", Qps, "q/s");
  R.detail("query_p50_us", P50, "us");
  R.detail("query_p90_us", P90, "us");
  R.detail("query_p99_us", P99, "us");
  R.detail("commit_p50_us", percentile(Res.CommitFromDueUs, 0.5), "us");
  R.detail("commit_p99_us", percentile(Res.CommitFromDueUs, 0.99), "us");
  R.detail("commit_exec_p50_us", percentile(Res.CommitExecUs, 0.5), "us");
  R.detail("writer_late_share", Commits ? double(Res.Late) / Commits : 0,
           "ratio");
  R.detail("commits", Commits, "count");
  R.detail("allocs_per_query", AllocsPerQuery, "count");
  R.detail("image_bytes_per_fn", BytesPerFn, "bytes");

  if (!O.Trace) {
    R.endToEnd("setup_s", median(SetupSec), "s");
    R.endToEnd("peak_rss_mb", PeakMb, "MB");
    R.endToEnd("ops_per_s", Qps, "1/s");
    R.endToEnd("latency_p50_us", P50, "us");
    R.endToEnd("latency_tail_us", P90, "us");
    R.endToEnd("allocs_per_op", AllocsPerQuery, "count");
    R.endToEnd("bytes_per_fn", BytesPerFn, "bytes");
  } else {
    R.layer("obs.trace_overhead",
            Res.TracedQueries.meanNs() / Res.UntracedQueries.meanNs(),
            "ratio");
    ServeRun Main{&H, &Res};
    measureAllLayers(O, R, &Main);
  }
  H = ServeHarness();
  std::remove(Path.c_str());
}

} // namespace perfbench
