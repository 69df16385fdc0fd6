//===- main.cpp - The repository benchmark entry point --------------------===//
//
// Usage:
//   pst_perfbench --workload <analyze-paper|image-build|serve-mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs one workload for the given time and prints a human-readable table
// followed, as the last line, by one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set measured by the benchmark's own timers around
// public library calls. See README.md.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

constexpr double SettleSeconds = 2.0;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "pst_perfbench: %s\n"
               "usage: pst_perfbench --workload <analyze-paper|image-build|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n",
               Why);
  std::exit(2);
}

/// Shortest round-trip decimal form of \p V. JSON has no NaN or infinity;
/// a ratio whose base was empty prints as 0.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  if (Ec != std::errc())
    return "0";
  return std::string(Buf, End);
}

void printMetrics(const std::vector<Metric> &Ms, const Report &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.failed() == 0 && R.attempted() > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.attempted()),
              static_cast<unsigned long long>(R.failed()));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", I ? ", " : "",
                Ms[I].Name.c_str(), jsonNumber(Ms[I].Value).c_str(),
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

/// Keeps every core busy for \p Seconds before anything is timed, so the
/// run starts from a steady CPU allocation instead of an idle one: on a
/// virtual machine the host takes about a second to give a suddenly busy
/// guest its full share of cores, and frequency scaling lags likewise.
void settleCpus(double Seconds) {
  const unsigned N = std::max(1u, std::thread::hardware_concurrency());
  const Clock::time_point End =
      Clock::now() + std::chrono::nanoseconds(int64_t(Seconds * 1e9));
  std::vector<std::thread> Spinners;
  for (unsigned I = 0; I < N; ++I)
    Spinners.emplace_back([End] {
      while (Clock::now() < End) {
      }
    });
  for (std::thread &T : Spinners)
    T.join();
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "pst_perfbench: refusing to report from a build with "
                       "assertions enabled (configure with "
                       "-DCMAKE_BUILD_TYPE=Release)\n");
  return 1;
#endif
  Options O;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 0);
      if (End == V || *End)
        usage("--seed expects an integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(O.Seconds > 0) || O.Seconds > 120)
        usage("--seconds expects a number in (0, 120]");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace expects 0 or 1");
      O.Trace = V[0] == '1';
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    usage("--workload and --seed are required");

  // The library's own telemetry stays off in both the end-to-end and the
  // traced run: every number here comes from timers outside the library.
  pst::Telemetry::setEnabled(false);

  settleCpus(SettleSeconds);
  Report R;
  try {
    if (O.Workload == "analyze-paper")
      runAnalyzePaper(O, R);
    else if (O.Workload == "image-build")
      runImageBuild(O, R);
    else if (O.Workload == "serve-mixed")
      runServeMixed(O, R);
    else
      usage(("unknown workload " + O.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pst_perfbench: %s\n", E.what());
    return 1;
  }

  R.detail("failed_share",
           R.attempted() ? double(R.failed()) / double(R.attempted()) : 1.0,
           "failed/attempted");
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "build_type=%s pst_telemetry=%d ndebug=1\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, PST_TELEMETRY);
  for (const std::string &L : R.details())
    std::printf("# %s\n", L.c_str());
  const std::vector<Metric> &Ms = O.Trace ? R.layerMetrics()
                                          : R.endToEndMetrics();
  for (const Metric &M : Ms)
    std::printf("%-36s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  printMetrics(Ms, R);
  return 0;
}
