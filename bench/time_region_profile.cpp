//===- time_region_profile.cpp - Region profiler throughput -------------------===//
//
// Measures the dynamic region profiler (pst/prof):
//
//  * interpreter overhead of per-edge traversal counting (runLowered with
//    CountEdges off vs on) on a loop-heavy kernel;
//  * end-to-end profiling throughput (attribute a workload of runs onto
//    the PST, finalize, plan) over a generated MiniLang corpus;
//  * byte-determinism of the JSON report: two independently built
//    profiles of the same workload must serialize identically (the bench
//    exits 1 otherwise).
//
// Emits a human-readable table on stdout and machine-readable
// BENCH_profile.json in the working directory.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "pst/core/ProgramStructureTree.h"
#include "pst/lang/Interp.h"
#include "pst/lang/Lower.h"
#include "pst/prof/ParallelismPlanner.h"
#include "pst/prof/ProfileReport.h"
#include "pst/prof/RegionProfile.h"
#include "pst/support/Rng.h"
#include "pst/workload/ProgramGenerator.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace pst;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

const char *HotLoopSource = R"(
func hotloop(n, m) {
  var i = 0;
  var j = 0;
  var acc = 0;
  if (n < 0) { n = 0; }
  if (m < 0) { m = 0; }
  while (i < n) {
    j = 0;
    while (j < m) {
      acc = acc + (i * m + j) % 7;
      j = j + 1;
    }
    i = i + 1;
  }
  if (acc % 2 == 1) { acc = acc + 1; }
  return acc;
}
)";

/// Steps per second of repeated hotloop(64, 64) runs.
double interpStepsPerSec(const LoweredFunction &F, bool CountEdges,
                         uint64_t *StepsOut) {
  const std::vector<int64_t> Args{64, 64};
  const double MinSeconds = 0.4;
  uint64_t Steps = 0;
  size_t Rounds = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  do {
    CfgExecResult R = runLowered(F, Args, 1 << 24, CountEdges);
    Steps += R.Steps;
    ++Rounds;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  if (StepsOut)
    *StepsOut = Steps / Rounds;
  return static_cast<double>(Steps) / Elapsed;
}

/// One profiled corpus function with its ready-to-run workload.
struct CorpusItem {
  LoweredFunction F;
  ProgramStructureTree T;
  std::vector<std::vector<int64_t>> Workload;
};

std::vector<CorpusItem> buildCorpus(size_t Count) {
  std::vector<CorpusItem> Out;
  Rng R(0x9f0f11e);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 60;
  Opts.WhileProb = 0.14;
  Opts.ForProb = 0.12;
  while (Out.size() < Count) {
    Function Fn = generateFunction(R, Opts, "gen" + std::to_string(Out.size()));
    auto Lowered = lowerFunction(Fn);
    if (!Lowered)
      continue;
    ProgramStructureTree T =
        ProgramStructureTree::build(FrozenCfg(Lowered->Graph));
    CorpusItem Item{std::move(*Lowered), std::move(T), {}};
    for (uint64_t Run = 0; Run < 8; ++Run) {
      std::vector<int64_t> Args(Opts.NumParams);
      for (uint32_t K = 0; K < Opts.NumParams; ++K)
        Args[K] = static_cast<int64_t>((7 * Run + 3 * K + 5) % 23);
      Item.Workload.push_back(std::move(Args));
    }
    Out.push_back(std::move(Item));
  }
  return Out;
}

struct ProfileMetrics {
  double ProfilesPerSec = 0;
  double RunsPerSec = 0;
};

/// Full pipeline per corpus item: construct the profile (region shapes),
/// attribute the 8-run workload, finalize, plan.
ProfileMetrics profileThroughput(const std::vector<CorpusItem> &Corpus) {
  const double MinSeconds = 0.5;
  size_t Rounds = 0;
  uint64_t Runs = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  do {
    for (const CorpusItem &Item : Corpus) {
      RegionProfile P(Item.F, Item.T);
      for (const std::vector<int64_t> &Args : Item.Workload)
        if (P.runAndAdd(Args, 200000).Finished)
          ++Runs;
      P.finalize();
      ParallelismPlan Plan = planParallelism(P);
      (void)Plan;
    }
    ++Rounds;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  ProfileMetrics M;
  M.ProfilesPerSec = static_cast<double>(Corpus.size()) * Rounds / Elapsed;
  M.RunsPerSec = static_cast<double>(Runs) / Elapsed;
  return M;
}

/// Builds one hotloop profile over the canonical 8-run workload and
/// returns its JSON report.
std::string hotloopJson(const LoweredFunction &F,
                        const ProgramStructureTree &T) {
  RegionProfile P(F, T);
  for (uint64_t Run = 0; Run < 8; ++Run)
    P.runAndAdd({static_cast<int64_t>((7 * Run + 5) % 23),
                 static_cast<int64_t>((7 * Run + 8) % 23)},
                1 << 22);
  P.finalize();
  ParallelismPlan Plan = planParallelism(P);
  return profileToJson(P, Plan);
}

} // namespace

int main() {
  auto Fns = compile(HotLoopSource);
  if (!Fns || Fns->size() != 1) {
    std::cerr << "FATAL: demo kernel failed to compile\n";
    return 1;
  }
  const LoweredFunction &Hot = (*Fns)[0];
  ProgramStructureTree HotT = ProgramStructureTree::build(FrozenCfg(Hot.Graph));

  std::cout << "=== Interpreter edge-counting overhead (hotloop 64x64) ===\n";
  uint64_t StepsPerRun = 0;
  double PlainSps = interpStepsPerSec(Hot, /*CountEdges=*/false, &StepsPerRun);
  double CountSps = interpStepsPerSec(Hot, /*CountEdges=*/true, nullptr);
  double Overhead = PlainSps > 0 ? PlainSps / CountSps - 1.0 : 0.0;
  std::printf("  edges off: %12.0f steps/sec (%llu steps/run)\n", PlainSps,
              static_cast<unsigned long long>(StepsPerRun));
  std::printf("  edges on : %12.0f steps/sec (%+.1f%% overhead)\n", CountSps,
              Overhead * 100.0);

  std::cout << "\n=== Profile + plan throughput (generated corpus) ===\n";
  std::vector<CorpusItem> Corpus = buildCorpus(64);
  ProfileMetrics M = profileThroughput(Corpus);
  std::printf("  %zu functions, 8-run workloads: %8.1f profiles/sec "
              "(%8.1f runs/sec)\n",
              Corpus.size(), M.ProfilesPerSec, M.RunsPerSec);

  std::cout << "\n=== JSON determinism cross-check ===\n";
  std::string A = hotloopJson(Hot, HotT);
  std::string B = hotloopJson(Hot, HotT);
  if (A != B) {
    std::cerr << "FATAL: two profiles of the same workload serialized "
                 "differently\n";
    return 1;
  }
  std::printf("  two independent profiles serialize identically (%zu bytes)\n",
              A.size());

  std::ofstream OS("BENCH_profile.json");
  OS << "{\n";
  pstbench::writeSchemaPreamble(OS, "region_profile", "generated",
                                M.ProfilesPerSec);
  OS << "  \"interp\": {\n";
  OS << "    \"steps_per_run\": " << StepsPerRun << ",\n";
  OS << "    \"steps_per_sec_edges_off\": " << PlainSps << ",\n";
  OS << "    \"steps_per_sec_edges_on\": " << CountSps << ",\n";
  OS << "    \"edge_counting_overhead\": " << Overhead << "\n";
  OS << "  },\n";
  OS << "  \"pipeline\": {\n";
  OS << "    \"functions\": " << Corpus.size() << ",\n";
  OS << "    \"runs_per_workload\": 8,\n";
  OS << "    \"profiles_per_sec\": " << M.ProfilesPerSec << ",\n";
  OS << "    \"runs_per_sec\": " << M.RunsPerSec << "\n";
  OS << "  },\n";
  OS << "  \"json_deterministic\": true,\n";
  OS << "  \"report_bytes\": " << A.size() << "\n";
  OS << "}\n";
  std::cout << "\nwrote BENCH_profile.json\n";
  return 0;
}
