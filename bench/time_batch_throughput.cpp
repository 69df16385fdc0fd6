//===- time_batch_throughput.cpp - Batch engine throughput --------------------===//
//
// Measures the parallel batch analysis engine: corpus throughput
// (functions/sec) at 1, 2, 4 and hardware-concurrency threads, on the
// paper corpus and on a 10k-function generated corpus, plus the
// single-thread pipeline (analyzeFunction on one warm scratch):
// throughput and steady-state heap allocations per analysis.
//
// Emits a human-readable table on stdout and machine-readable
// BENCH_batch.json + BENCH_pipeline.json in the working directory.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "pst/runtime/BatchAnalyzer.h"

#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace pst;

//===----------------------------------------------------------------------===//
// Global allocation counter. Replacing the global operator new/delete pair
// counts every heap allocation in the process; measurement windows
// snapshot the counter before and after.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocs{0};
std::atomic<uint64_t> GAllocBytes{0};
} // namespace

void *operator new(size_t Size) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// A 10k-function corpus from the fast structural generators: mostly
/// small random graphs (the realistic size profile), salted with the
/// structured families at varied sizes.
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

/// Order-independent checksum of a corpus analysis, for the determinism
/// cross-check between thread counts.
uint64_t checksum(const std::vector<FunctionAnalysis> &As) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const FunctionAnalysis &A : As) {
    auto Mix = [&H](uint64_t V) {
      H ^= V;
      H *= 0x100000001b3ULL;
    };
    Mix(A.Pst.numRegions());
    for (size_t N = 0; N < A.ControlRegions.NodeClass.size(); ++N) {
      Mix(A.ControlRegions.NodeClass[N]);
      Mix(A.Pst.regionOfNode(static_cast<NodeId>(N)));
    }
  }
  return H;
}

struct ThreadResult {
  unsigned Threads;
  double Seconds;
  double FnsPerSec;
};

struct CorpusReport {
  std::string Name;
  size_t Functions = 0;
  std::vector<ThreadResult> Results;
};

/// Times analyzeCorpus at each thread count, repeating the corpus until
/// the timed region is long enough to trust.
CorpusReport sweepThreads(const std::string &Name,
                          std::span<const Cfg *const> Fns,
                          const std::vector<unsigned> &ThreadCounts) {
  CorpusReport Report;
  Report.Name = Name;
  Report.Functions = Fns.size();

  uint64_t Reference = 0;
  for (unsigned Threads : ThreadCounts) {
    BatchOptions Opts;
    Opts.NumThreads = Threads;
    BatchAnalyzer Engine(Opts);

    // Warm-up: grows every worker scratch to steady state.
    uint64_t Sum = checksum(Engine.analyzeCorpus(Fns));
    if (Reference == 0)
      Reference = Sum;
    if (Sum != Reference) {
      std::cerr << "FATAL: thread count " << Threads
                << " changed the analysis result\n";
      std::exit(1);
    }

    const double MinSeconds = 0.5;
    size_t Rounds = 0;
    Clock::time_point Start = Clock::now();
    double Elapsed = 0;
    do {
      std::vector<FunctionAnalysis> Out = Engine.analyzeCorpus(Fns);
      ++Rounds;
      Elapsed = secondsSince(Start);
    } while (Elapsed < MinSeconds);

    double FnsPerSec = static_cast<double>(Fns.size()) * Rounds / Elapsed;
    Report.Results.push_back(ThreadResult{Threads, Elapsed / Rounds, FnsPerSec});
    std::printf("  %-10s %2u threads  %10.0f fns/sec  (%.3fs/corpus, %zu rounds)\n",
                Name.c_str(), Threads, FnsPerSec, Elapsed / Rounds, Rounds);
  }
  return Report;
}

struct PipelineReport {
  size_t Functions = 0;
  double FnsPerSec = 0;
  double AllocsPerBuild = 0;
};

/// Times the single-thread pipeline (analyzeFunction on one warm scratch)
/// over the corpus, counting heap allocations over the same window the
/// throughput is measured in.
PipelineReport measurePipeline(std::span<const Cfg *const> Fns) {
  PipelineReport R;
  R.Functions = Fns.size();
  PstScratch Scratch;
  for (const Cfg *G : Fns) // Warm-up: grows the scratch to steady state.
    (void)analyzeFunction(*G, Scratch);

  const double MinSeconds = 0.5;
  size_t Rounds = 0;
  uint64_t AllocsBefore = GAllocs.load();
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  do {
    for (const Cfg *G : Fns)
      (void)analyzeFunction(*G, Scratch);
    ++Rounds;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  R.FnsPerSec = static_cast<double>(Fns.size()) * Rounds / Elapsed;
  R.AllocsPerBuild = static_cast<double>(GAllocs.load() - AllocsBefore) /
                     (Rounds * Fns.size());
  return R;
}

void writePipelineJson(const std::string &Path, const PipelineReport &R) {
  std::ofstream OS(Path);
  OS << "{\n";
  pstbench::writeSchemaPreamble(OS, "pipeline", "paper", R.FnsPerSec);
  OS << "  \"functions\": " << R.Functions << ",\n";
  OS << "  \"single_thread\": {\"functions_per_sec\": " << R.FnsPerSec
     << ", \"allocations_per_build\": " << R.AllocsPerBuild << "}\n";
  OS << "}\n";
}

void writeJson(const std::string &Path, unsigned HwThreads,
               const std::vector<CorpusReport> &Corpora,
               const PipelineReport &Pipeline) {
  (void)HwThreads; // Part of the shared schema preamble now.
  // Headline throughput: the paper corpus's best sweep result.
  double BestFnsPerSec = 0;
  for (const ThreadResult &R : Corpora.front().Results)
    BestFnsPerSec = std::max(BestFnsPerSec, R.FnsPerSec);
  std::ofstream OS(Path);
  OS << "{\n";
  pstbench::writeSchemaPreamble(OS, "batch_throughput",
                                Corpora.front().Name.c_str(), BestFnsPerSec);
  OS << "  \"corpora\": [\n";
  for (size_t I = 0; I < Corpora.size(); ++I) {
    const CorpusReport &C = Corpora[I];
    OS << "    {\n";
    OS << "      \"name\": \"" << C.Name << "\",\n";
    OS << "      \"functions\": " << C.Functions << ",\n";
    OS << "      \"results\": [\n";
    for (size_t J = 0; J < C.Results.size(); ++J) {
      const ThreadResult &R = C.Results[J];
      OS << "        {\"threads\": " << R.Threads
         << ", \"seconds_per_corpus\": " << R.Seconds
         << ", \"functions_per_sec\": " << R.FnsPerSec << "}"
         << (J + 1 < C.Results.size() ? "," : "") << "\n";
    }
    OS << "      ]\n";
    OS << "    }" << (I + 1 < Corpora.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"allocations_per_build\": " << Pipeline.AllocsPerBuild << "\n";
  OS << "}\n";
}

} // namespace

int main(int argc, char **argv) {
  bool WantTelemetry = false;
  std::string TraceFile;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--telemetry") {
      WantTelemetry = true;
    } else if (Arg == "--trace-out") {
      if (I + 1 >= argc) {
        std::cerr << "error: --trace-out needs a file argument\n";
        return 1;
      }
      TraceFile = argv[++I];
    } else {
      std::cerr << "unknown option: " << Arg
                << "\nusage: time_batch_throughput [--telemetry] "
                   "[--trace-out <file>]\n";
      return 1;
    }
  }
  if (WantTelemetry || !TraceFile.empty())
    Telemetry::setEnabled(true);
  if (!TraceFile.empty())
    Telemetry::setTraceEnabled(true);

  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> ThreadCounts = {1, 2, 4};
  if (Hw != 1 && Hw != 2 && Hw != 4)
    ThreadCounts.push_back(Hw);

  std::cout << "=== Batch analysis throughput (hardware_concurrency=" << Hw
            << ") ===\n\n";

  // The paper corpus: 254 realistic lowered procedures.
  std::vector<CorpusFunction> Paper = generatePaperCorpus(/*Seed=*/1994);
  std::vector<const Cfg *> PaperPtrs;
  PaperPtrs.reserve(Paper.size());
  for (const CorpusFunction &F : Paper)
    PaperPtrs.push_back(&F.Fn.Graph);

  // A 10k-function generated corpus: enough items that scheduling and
  // scratch reuse, not generation noise, dominate.
  std::vector<Cfg> Generated = generatedCorpus(10000);
  std::vector<const Cfg *> GenPtrs;
  GenPtrs.reserve(Generated.size());
  for (const Cfg &G : Generated)
    GenPtrs.push_back(&G);

  std::vector<CorpusReport> Corpora;
  Corpora.push_back(sweepThreads(
      "paper", std::span<const Cfg *const>(PaperPtrs), ThreadCounts));
  Corpora.push_back(sweepThreads(
      "gen10k", std::span<const Cfg *const>(GenPtrs), ThreadCounts));

  std::cout << "\n=== Single-thread pipeline (warm scratch) ===\n";
  PipelineReport Pipeline =
      measurePipeline(std::span<const Cfg *const>(PaperPtrs));
  std::printf("  paper       : %10.0f fns/sec  %8.1f allocations/build\n",
              Pipeline.FnsPerSec, Pipeline.AllocsPerBuild);

  writeJson("BENCH_batch.json", Hw, Corpora, Pipeline);
  writePipelineJson("BENCH_pipeline.json", Pipeline);
  std::cout << "\nwrote BENCH_batch.json and BENCH_pipeline.json\n";

  if (!TraceFile.empty()) {
    TraceWriter Writer;
    if (!Writer.writeFile(TraceFile)) {
      std::cerr << "error: cannot write trace to '" << TraceFile << "'\n";
      return 1;
    }
    std::cout << "wrote chrome trace to " << TraceFile << "\n";
  }
  if (WantTelemetry)
    std::cout << "\n-- telemetry --\n"
              << TelemetryRegistry::global().toJson();
  return 0;
}
