//===- time_serve.cpp - Serving-layer latency and throughput ------------------===//
//
// Measures the serving layer's read path under write pressure: reader
// threads issue a deterministic query mix against a PstServer while
// 0 / 1 / 8 writers journal edits and commit epochs as fast as they can.
// Per phase it reports query latency (p50/p99), throughput two ways —
// wall-clock and *in-query* (queries divided by the summed per-query
// latencies, which is the number that stays meaningful when the host has
// fewer cores than threads) — and the mean/max epoch lag readers actually
// observed (from the serve.epoch_lag telemetry probe).
//
// Acceptance gates, all exit 1 on violation:
//
//   * snapshot integrity — after every phase, each shard's published
//     overlay must be byte-identical to a from-scratch freeze of its
//     writer's committed graph (Shard::verifyPublished);
//   * read isolation — with one writer committing continuously, pinned
//     readers must sustain at least MIN_RATIO (80%) of the zero-writer
//     in-query throughput: publication must never block the read path;
//   * derived-cache payoff — warm dom/cdep/phi queries (bundle already
//     built) must be at least WARM_SPEEDUP_GATE (5x) faster than the
//     cache-disabled path, and the cache must build each touched
//     function's bundle exactly once;
//   * cached/uncached equivalence — a scripted session's transcript must
//     be byte-identical with the cache on and off, at every --threads and
//     --batch setting crossed here.
//
// A read-scaling sweep (--threads list) additionally reports wall/in-query
// throughput per reader-thread count, so multicore read-path numbers land
// in BENCH_serve.json on hosts that have the cores.
//
// Each phase runs against a fresh server over the same in-memory image,
// so edit histories never leak across phases. Emits a human-readable
// table on stdout and machine-readable BENCH_serve.json.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "pst/obs/Telemetry.h"
#include "pst/serve/Protocol.h"
#include "pst/serve/PstServer.h"
#include "pst/workload/CfgGenerators.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pst;
using namespace pst::serve;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double MIN_RATIO = 0.80;
constexpr double WARM_SPEEDUP_GATE = 5.0;

/// Same generator mix as time_batch_throughput / time_corpus_image.
std::vector<Cfg> generatedCorpus(size_t Count) {
  std::vector<Cfg> Out;
  Out.reserve(Count);
  Rng R(0xba7c4);
  while (Out.size() < Count) {
    switch (Out.size() % 8) {
    case 0:
      Out.push_back(diamondLadderCfg(2 + static_cast<uint32_t>(R.nextBelow(12))));
      break;
    case 1:
      Out.push_back(nestedWhileCfg(1 + static_cast<uint32_t>(R.nextBelow(5)),
                                   1 + static_cast<uint32_t>(R.nextBelow(3))));
      break;
    case 2:
      Out.push_back(
          nestedRepeatUntilCfg(2 + static_cast<uint32_t>(R.nextBelow(10))));
      break;
    case 3:
      Out.push_back(irreducibleCfg(1 + static_cast<uint32_t>(R.nextBelow(4))));
      break;
    default: {
      RandomCfgOptions O;
      O.NumNodes = 8 + static_cast<uint32_t>(R.nextBelow(56));
      O.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(O.NumNodes));
      Out.push_back(randomBackboneCfg(R, O));
      break;
    }
    }
  }
  return Out;
}

struct PhaseResult {
  unsigned Writers = 0;
  uint64_t Queries = 0;
  double WallSec = 0;
  double InQuerySec = 0; ///< Sum of per-query latencies across readers.
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  double MeanEpochLag = 0;
  uint64_t MaxEpochLag = 0;
  uint64_t Commits = 0;
  uint64_t Published = 0;
  uint64_t Reclaimed = 0;

  double qpsWall() const { return Queries / WallSec; }
  double qpsInQuery() const { return Queries / InQuerySec; }
};

/// Deterministic per-reader request stream: every reader walks its own
/// xorshift sequence over the query kinds and functions, with node
/// arguments drawn from the *base* image (edits only ever add nodes, so
/// base node ids stay valid in every epoch).
Request nextRequest(const CorpusImage &Img, uint64_t &Rng) {
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  Request R;
  uint64_t Fn = Next() % Img.numFunctions();
  uint32_t Nodes = Img.cfg(Fn).numNodes();
  R.Fn = Fn;
  switch (Next() % 6) {
  case 0:
    R.Kind = RequestKind::Region;
    R.A = static_cast<NodeId>(Next() % Nodes);
    R.B = static_cast<NodeId>(Next() % Nodes);
    break;
  case 1:
    R.Kind = RequestKind::Regions;
    break;
  case 2:
    R.Kind = RequestKind::Cdep;
    R.A = static_cast<NodeId>(Next() % Nodes);
    break;
  case 3:
    R.Kind = RequestKind::Dom;
    R.A = static_cast<NodeId>(Next() % Nodes);
    break;
  case 4:
    R.Kind = RequestKind::Phi;
    R.Defs.push_back(static_cast<NodeId>(Next() % Nodes));
    R.Defs.push_back(static_cast<NodeId>(Next() % Nodes));
    break;
  default:
    R.Kind = RequestKind::Name;
    break;
  }
  return R;
}

PhaseResult runPhase(std::vector<uint8_t> ImageBytes, unsigned NumWriters,
                     unsigned NumReaders, uint64_t QueriesPerReader,
                     uint32_t NumShards) {
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(ImageBytes), &Error);
  if (!Img.valid()) {
    std::cerr << "error: " << Error << "\n";
    std::exit(1);
  }
  ServeOptions Opts;
  Opts.NumShards = NumShards;
  Opts.NumThreads = 1; // Readers are external threads; no pool fan-out.
  PstServer Server(std::move(Img), Opts);

  TelemetryRegistry::global().reset();

  std::atomic<bool> StopWriters{false};
  std::atomic<unsigned> ReadersDone{0};

  // Writers: each owns one shard (single-writer contract) and loops
  // edit-batch -> commit, so a stopped writer never leaves journaled
  // edits behind (verifyPublished requires commit-point state).
  std::vector<std::thread> Writers;
  for (unsigned W = 0; W < NumWriters; ++W) {
    Writers.emplace_back([&, W] {
      Shard &Sh = Server.shard(W % NumShards);
      uint64_t Iter = 0;
      while (!StopWriters.load(std::memory_order_relaxed)) {
        // Rotate over a few of the shard's functions.
        uint64_t Fn = (W % NumShards) + NumShards * (Iter % 8);
        if (Fn < Server.numFunctions()) {
          Sh.addBlock(Fn, 0, 1);
          Sh.commit();
        }
        ++Iter;
        std::this_thread::yield();
      }
    });
  }

  // Readers: deterministic streams, per-query latency sampled.
  std::vector<std::vector<uint64_t>> Latencies(NumReaders);
  std::vector<std::thread> Readers;
  auto WallStart = Clock::now();
  for (unsigned R = 0; R < NumReaders; ++R) {
    Readers.emplace_back([&, R] {
      std::vector<uint64_t> &Lat = Latencies[R];
      Lat.reserve(QueriesPerReader);
      QueryScratch Scratch;
      uint64_t Rng = 0x9e3779b97f4a7c15ull ^ (uint64_t(R + 1) << 32);
      for (uint64_t Q = 0; Q < QueriesPerReader; ++Q) {
        Request Req = nextRequest(Server.image(), Rng);
        auto T0 = Clock::now();
        std::string Resp = Server.execute(Req, Scratch);
        auto T1 = Clock::now();
        if (Resp.rfind("ok ", 0) != 0 && Resp.rfind("err node", 0) != 0) {
          std::cerr << "error: unexpected response: " << Resp << "\n";
          std::exit(1);
        }
        Lat.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
                .count()));
      }
      ReadersDone.fetch_add(1);
    });
  }
  for (std::thread &T : Readers)
    T.join();
  double WallSec =
      std::chrono::duration<double>(Clock::now() - WallStart).count();
  StopWriters.store(true);
  for (std::thread &T : Writers)
    T.join();

  // Quiescent: gate 1 — byte identity of every published snapshot.
  for (uint32_t S = 0; S < Server.numShards(); ++S) {
    std::string Why;
    if (!Server.shard(S).verifyPublished(&Why)) {
      std::cerr << "FAIL: snapshot byte-identity violated on shard " << S
                << ": " << Why << "\n";
      std::exit(1);
    }
  }

  PhaseResult Res;
  Res.Writers = NumWriters;
  Res.WallSec = WallSec;
  std::vector<uint64_t> All;
  for (const auto &Lat : Latencies)
    All.insert(All.end(), Lat.begin(), Lat.end());
  Res.Queries = All.size();
  uint64_t SumNs = 0;
  for (uint64_t L : All)
    SumNs += L;
  Res.InQuerySec = double(SumNs) / 1e9;
  std::sort(All.begin(), All.end());
  Res.P50Ns = All[All.size() / 2];
  Res.P99Ns = All[All.size() * 99 / 100];

  TelemetrySnapshot Snap = TelemetryRegistry::global().snapshot();
  const ValueStats &Lag = Snap.Values["serve.epoch_lag"];
  Res.MeanEpochLag = Lag.mean();
  Res.MaxEpochLag = Lag.Count ? Lag.Max : 0;

  for (uint32_t S = 0; S < Server.numShards(); ++S) {
    ShardStats St = Server.shard(S).stats();
    Res.Commits += St.Commits;
    Res.Published += St.Published;
    Res.Reclaimed += St.Reclaimed;
  }
  return Res;
}

// -- Cold-vs-warm derived-cache phase ---------------------------------------

struct KindTiming {
  const char *Name;
  RequestKind Kind;
  uint64_t Count = 0;
  uint64_t UncachedNs = 0; ///< Best-of-passes total ns, cache disabled.
  uint64_t ColdNs = 0;     ///< Total ns, first cached pass (builds bundles).
  uint64_t WarmNs = 0;     ///< Best-of-passes total ns, warm cached passes.

  double uncachedMeanNs() const { return double(UncachedNs) / Count; }
  double coldMeanNs() const { return double(ColdNs) / Count; }
  double warmMeanNs() const { return double(WarmNs) / Count; }
  double warmSpeedup() const { return double(UncachedNs) / double(WarmNs); }
};

/// One deterministic request per function for \p Kind, with node args
/// derived from the base image (always valid: functions have >= 2 nodes).
std::vector<Request> kindRequests(const CorpusImage &Img, RequestKind Kind) {
  std::vector<Request> Out;
  Out.reserve(Img.numFunctions());
  for (uint64_t Fn = 0; Fn < Img.numFunctions(); ++Fn) {
    uint32_t Nodes = Img.cfg(Fn).numNodes();
    Request R;
    R.Kind = Kind;
    R.Fn = Fn;
    switch (Kind) {
    case RequestKind::Cdep:
    case RequestKind::Dom:
      R.A = Nodes / 2;
      break;
    case RequestKind::Phi:
      R.Defs = {1u % Nodes, Nodes - 1};
      break;
    default:
      break;
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

uint64_t timeRequests(const PstServer &S, const std::vector<Request> &Reqs,
                      std::vector<std::string> *Responses) {
  QueryScratch Sc;
  auto T0 = Clock::now();
  for (const Request &R : Reqs) {
    std::string Resp = S.execute(R, Sc);
    if (Responses)
      Responses->push_back(std::move(Resp));
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
}

PstServer makeServer(std::vector<uint8_t> ImageBytes, uint32_t NumShards,
                     bool DerivedCache, unsigned NumThreads = 1) {
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(ImageBytes), &Error);
  if (!Img.valid()) {
    std::cerr << "error: " << Error << "\n";
    std::exit(1);
  }
  ServeOptions Opts;
  Opts.NumShards = NumShards;
  Opts.NumThreads = NumThreads;
  Opts.DerivedCache = DerivedCache;
  return PstServer(std::move(Img), Opts);
}

/// Runs each bundle-backed query kind (dom, cdep, phi) over every function
/// three ways — cache disabled,
/// cache cold (first touch builds), cache warm — and checks the response
/// strings agree across all three. Gates: warm dom/cdep/phi means must
/// beat the uncached means by WARM_SPEEDUP_GATE, and the cached server
/// must have built exactly one bundle per function.
std::vector<KindTiming> runColdWarm(const std::vector<uint8_t> &Bytes,
                                    uint32_t NumShards) {
  // region and regions read the PST directly and never touch a bundle, so
  // their cached and uncached runs are the same code; dom is the cold pass.
  std::vector<KindTiming> Kinds = {
      {"dom", RequestKind::Dom},
      {"cdep", RequestKind::Cdep},
      {"phi", RequestKind::Phi},
  };

  PstServer Uncached = makeServer(Bytes, NumShards, /*DerivedCache=*/false);
  PstServer Cached = makeServer(Bytes, NumShards, /*DerivedCache=*/true);

  for (KindTiming &K : Kinds) {
    std::vector<Request> Reqs = kindRequests(Cached.image(), K.Kind);
    K.Count = Reqs.size();
    std::vector<std::string> UncachedResp, ColdResp, WarmResp;
    UncachedResp.reserve(Reqs.size());
    ColdResp.reserve(Reqs.size());
    WarmResp.reserve(Reqs.size());
    K.UncachedNs = timeRequests(Uncached, Reqs, &UncachedResp);
    K.ColdNs = timeRequests(Cached, Reqs, &ColdResp);
    K.WarmNs = timeRequests(Cached, Reqs, &WarmResp);
    // The cold pass is definitionally one-shot (first touch builds), but
    // the uncached and warm passes are steady-state: take the best of a
    // few so scheduler noise on a shared single-core container cannot
    // flip the ratio gate on sub-microsecond per-request times.
    for (int Pass = 1; Pass < 3; ++Pass) {
      K.UncachedNs =
          std::min(K.UncachedNs, timeRequests(Uncached, Reqs, nullptr));
      K.WarmNs = std::min(K.WarmNs, timeRequests(Cached, Reqs, nullptr));
    }
    if (UncachedResp != ColdResp || ColdResp != WarmResp) {
      std::cerr << "FAIL: cached responses diverge from uncached for "
                << K.Name << "\n";
      std::exit(1);
    }
  }

  // Every function's bundle was needed by all three kind passes but must
  // have been built exactly once (the once-init contract at bench scale).
  DerivedCacheStats CS = Cached.derivedCacheStats();
  if (CS.Builds != Cached.numFunctions()) {
    std::cerr << "FAIL: expected exactly one bundle build per function ("
              << Cached.numFunctions() << "), saw " << CS.Builds << "\n";
    std::exit(1);
  }
  std::printf("derived cache: %llu builds, %llu hits, %.1f MB built, "
              "%.2f ms total build time\n",
              static_cast<unsigned long long>(CS.Builds),
              static_cast<unsigned long long>(CS.Hits),
              double(CS.BytesBuilt) / 1e6, double(CS.BuildNs) / 1e6);

  bool GateOk = true;
  for (const KindTiming &K : Kinds) {
    std::printf("%-8s uncached=%.0fns  cold=%.0fns  warm=%.0fns  "
                "speedup=%.1fx\n",
                K.Name, K.uncachedMeanNs(), K.coldMeanNs(), K.warmMeanNs(),
                K.warmSpeedup());
    if (K.warmSpeedup() < WARM_SPEEDUP_GATE)
      GateOk = false;
  }
  if (!GateOk) {
    std::cerr << "FAIL: warm cached latency did not beat the uncached path "
              << "by at least " << WARM_SPEEDUP_GATE
              << "x for every kind\n";
    std::exit(1);
  }
  return Kinds;
}

// -- Cached-vs-uncached transcript identity ---------------------------------

/// A deterministic scripted session: a query mix over the whole corpus
/// with edits, commits, and verify barriers interleaved, ending in quit.
std::string transcriptScript(const CorpusImage &Img, size_t NumLines) {
  std::string S;
  uint64_t Rng = 0xfeedface5eed1234ull;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (size_t I = 0; I < NumLines; ++I) {
    uint64_t Fn = Next() % Img.numFunctions();
    uint32_t Nodes = Img.cfg(Fn).numNodes();
    std::string F = std::to_string(Fn);
    switch (Next() % 8) {
    case 0:
      S += "region " + F + " " + std::to_string(Next() % Nodes) + " " +
           std::to_string(Next() % Nodes) + "\n";
      break;
    case 1:
      S += "regions " + F + "\n";
      break;
    case 2:
      S += "cdep " + F + " " + std::to_string(Next() % Nodes) + "\n";
      break;
    case 3:
      S += "dom " + F + " " + std::to_string(Next() % Nodes) + "\n";
      break;
    case 4:
      S += "phi " + F + " " + std::to_string(Next() % Nodes) + "," +
           std::to_string(Next() % Nodes) + "\n";
      break;
    case 5:
      S += "name " + F + "\n";
      break;
    case 6:
      S += "edit " + F + " addblock 0 1\n";
      break;
    default:
      S += "commit\n";
      break;
    }
    if (I % 40 == 39)
      S += "verify\n";
  }
  S += "commit\nverify\nquit\n";
  return S;
}

/// Runs \p Script against fresh servers across the full cache x threads x
/// batch cross product; every transcript must be byte-identical.
void checkTranscriptIdentity(const std::vector<uint8_t> &Bytes,
                             uint32_t NumShards, const std::string &Script) {
  std::string Reference;
  bool First = true;
  for (bool Cache : {true, false}) {
    for (unsigned Threads : {1u, 4u}) {
      for (size_t Batch : {size_t(1), size_t(7), size_t(256)}) {
        PstServer Server = makeServer(Bytes, NumShards, Cache, Threads);
        ServerSession Session(Server, Batch);
        std::istringstream In(Script);
        std::ostringstream Out;
        Session.run(In, Out);
        if (First) {
          Reference = Out.str();
          First = false;
        } else if (Out.str() != Reference) {
          std::cerr << "FAIL: transcript diverged at cache="
                    << (Cache ? "on" : "off") << " threads=" << Threads
                    << " batch=" << Batch << "\n";
          std::exit(1);
        }
      }
    }
  }
  std::printf("transcripts byte-identical across cache on/off x threads "
              "{1,4} x batch {1,7,256}\n");
}

void writeJson(const std::string &Path, size_t NumFns, uint32_t NumShards,
               unsigned NumReaders, uint64_t QueriesPerReader,
               const std::vector<PhaseResult> &Phases, double Ratio,
               const std::vector<KindTiming> &Kinds,
               const std::vector<std::pair<unsigned, PhaseResult>> &Scaling) {
  std::ofstream OS(Path, std::ios::binary);
  OS << "{\n";
  std::string Corpus = "gen" + std::to_string(NumFns);
  pstbench::writeSchemaPreamble(OS, "serve", Corpus.c_str(),
                                Phases.front().qpsInQuery());
  OS << "  \"shards\": " << NumShards << ",\n";
  OS << "  \"readers\": " << NumReaders << ",\n";
  OS << "  \"queries_per_reader\": " << QueriesPerReader << ",\n";
  OS << "  \"phases\": [\n";
  for (size_t I = 0; I < Phases.size(); ++I) {
    const PhaseResult &P = Phases[I];
    OS << "    {\"writers\": " << P.Writers << ", \"queries\": " << P.Queries
       << ", \"qps_wall\": " << P.qpsWall()
       << ", \"qps_inquery\": " << P.qpsInQuery()
       << ", \"p50_ns\": " << P.P50Ns << ", \"p99_ns\": " << P.P99Ns
       << ", \"mean_epoch_lag\": " << P.MeanEpochLag
       << ", \"max_epoch_lag\": " << P.MaxEpochLag
       << ", \"commits\": " << P.Commits
       << ", \"published\": " << P.Published
       << ", \"reclaimed\": " << P.Reclaimed << "}"
       << (I + 1 < Phases.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"derived_cache\": {\n";
  for (size_t I = 0; I < Kinds.size(); ++I) {
    const KindTiming &K = Kinds[I];
    OS << "    \"" << K.Name << "\": {\"uncached_ns\": " << K.uncachedMeanNs()
       << ", \"cold_ns\": " << K.coldMeanNs()
       << ", \"warm_ns\": " << K.warmMeanNs()
       << ", \"warm_speedup\": " << K.warmSpeedup() << "}"
       << (I + 1 < Kinds.size() ? "," : "") << "\n";
  }
  OS << "  },\n";
  OS << "  \"warm_speedup_gate\": " << WARM_SPEEDUP_GATE << ",\n";
  OS << "  \"read_scaling\": [\n";
  for (size_t I = 0; I < Scaling.size(); ++I) {
    const PhaseResult &P = Scaling[I].second;
    OS << "    {\"reader_threads\": " << Scaling[I].first
       << ", \"queries\": " << P.Queries << ", \"qps_wall\": " << P.qpsWall()
       << ", \"qps_inquery\": " << P.qpsInQuery()
       << ", \"p50_ns\": " << P.P50Ns << ", \"p99_ns\": " << P.P99Ns << "}"
       << (I + 1 < Scaling.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"one_writer_throughput_ratio\": " << Ratio << ",\n";
  OS << "  \"min_ratio_gate\": " << MIN_RATIO << ",\n";
  OS << "  \"transcript_identity\": \"ok\",\n";
  OS << "  \"byte_identity\": \"ok\"\n";
  OS << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  size_t NumFns = 2000;
  uint64_t QueriesPerReader = 4000;
  unsigned NumReaders = 2;
  uint32_t NumShards = 8;
  std::string ThreadList = "1,2,4";
  std::string OutPath = "BENCH_serve.json";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << Flag << " needs an argument\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--fns")
      NumFns = std::strtoull(Next("--fns"), nullptr, 0);
    else if (A == "--queries")
      QueriesPerReader = std::strtoull(Next("--queries"), nullptr, 0);
    else if (A == "--readers")
      NumReaders = static_cast<unsigned>(std::strtoul(Next("--readers"),
                                                      nullptr, 0));
    else if (A == "--shards")
      NumShards = static_cast<uint32_t>(std::strtoul(Next("--shards"),
                                                     nullptr, 0));
    else if (A == "--threads")
      ThreadList = Next("--threads");
    else if (A == "--out")
      OutPath = Next("--out");
    else {
      std::cerr << "usage: time_serve [--fns n] [--queries n] [--readers n]"
                   " [--shards n] [--threads list] [--out f]\n";
      return 2;
    }
  }

  // Parse the read-scaling sweep's reader-thread counts.
  std::vector<unsigned> SweepThreads;
  for (size_t Pos = 0; Pos < ThreadList.size();) {
    size_t Comma = ThreadList.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ThreadList.size();
    unsigned T = static_cast<unsigned>(
        std::strtoul(ThreadList.substr(Pos, Comma - Pos).c_str(), nullptr, 0));
    if (T)
      SweepThreads.push_back(T);
    Pos = Comma + 1;
  }

  // The epoch-lag probe is the only telemetry consumer here; enabling it
  // costs one relaxed load per probe on the query path for every phase
  // equally, so the ratio gate is unaffected.
  Telemetry::setEnabled(true);

  std::cout << "Building " << NumFns << "-function corpus image...\n";
  std::vector<Cfg> Corpus = generatedCorpus(NumFns);
  std::vector<const Cfg *> Ptrs;
  Ptrs.reserve(Corpus.size());
  for (const Cfg &G : Corpus)
    Ptrs.push_back(&G);
  std::vector<uint8_t> Bytes = buildCorpusImage(Ptrs);
  std::cout << "Image: " << Bytes.size() << " bytes, " << NumShards
            << " shards, " << NumReaders << " readers x " << QueriesPerReader
            << " queries\n\n";

  std::vector<PhaseResult> Phases;
  for (unsigned W : {0u, 1u, 8u}) {
    Phases.push_back(runPhase(Bytes, W, NumReaders, QueriesPerReader,
                              NumShards));
    const PhaseResult &P = Phases.back();
    std::printf("writers=%u  queries=%llu  qps(wall)=%.0f  qps(in-query)=%.0f"
                "  p50=%lluns  p99=%lluns  lag(mean)=%.2f  commits=%llu\n",
                P.Writers, static_cast<unsigned long long>(P.Queries),
                P.qpsWall(), P.qpsInQuery(),
                static_cast<unsigned long long>(P.P50Ns),
                static_cast<unsigned long long>(P.P99Ns), P.MeanEpochLag,
                static_cast<unsigned long long>(P.Commits));
  }

  // Gate 2: one continuously committing writer must not cost pinned
  // readers more than (1 - MIN_RATIO) of their in-query throughput.
  double Ratio = Phases[1].qpsInQuery() / Phases[0].qpsInQuery();
  std::printf("\n1-writer/0-writer in-query throughput ratio: %.3f"
              " (gate: >= %.2f)\n\n",
              Ratio, MIN_RATIO);

  // Cold-vs-warm derived-cache phase (gates >=5x warm speedup on
  // dom/cdep/phi and exactly-once bundle builds; exits 1 itself).
  std::vector<KindTiming> Kinds = runColdWarm(Bytes, NumShards);
  std::cout << "\n";

  // Cached-vs-uncached transcript identity at every threads/batch setting
  // (exits 1 on divergence).
  {
    std::string Error;
    CorpusImage ScriptImg = CorpusImage::fromBytes(Bytes, &Error);
    if (!ScriptImg.valid()) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    checkTranscriptIdentity(Bytes, NumShards,
                            transcriptScript(ScriptImg, /*NumLines=*/600));
  }
  std::cout << "\n";

  // Read-scaling sweep: zero-writer phases at each reader-thread count.
  std::vector<std::pair<unsigned, PhaseResult>> Scaling;
  for (unsigned T : SweepThreads) {
    Scaling.emplace_back(T,
                         runPhase(Bytes, 0, T, QueriesPerReader, NumShards));
    const PhaseResult &P = Scaling.back().second;
    std::printf("readers=%u  queries=%llu  qps(wall)=%.0f  "
                "qps(in-query)=%.0f  p50=%lluns  p99=%lluns\n",
                T, static_cast<unsigned long long>(P.Queries), P.qpsWall(),
                P.qpsInQuery(), static_cast<unsigned long long>(P.P50Ns),
                static_cast<unsigned long long>(P.P99Ns));
  }

  writeJson(OutPath, NumFns, NumShards, NumReaders, QueriesPerReader, Phases,
            Ratio, Kinds, Scaling);
  std::cout << "Wrote " << OutPath << "\n";

  if (Ratio < MIN_RATIO) {
    std::cerr << "FAIL: reader throughput under one writer dropped below "
              << MIN_RATIO << " of the zero-writer baseline\n";
    return 1;
  }
  return 0;
}
