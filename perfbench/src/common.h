//===- common.h - Shared plumbing of the repository benchmark ---*- C++ -*-===//
//
// Clocks, the process-wide allocation counter, peak RSS, percentiles, the
// latency histogram for high-volume samples, and the result record every
// workload fills in. See README.md for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

inline uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

/// Heap allocations made by every thread of the process so far. The
/// benchmark binary replaces the global operator new to count them.
uint64_t allocCount();

/// Peak resident set of the process in bytes (getrusage high-water mark).
uint64_t peakRssBytes();

/// Linear-interpolated percentile (P in [0, 1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Log-linear latency histogram (128 buckets per power of two, under 1%
/// relative bucket width) for sample streams too long to keep: serve
/// queries run at millions per second. Percentiles interpolate inside
/// the bucket that holds the rank.
class LatencyHistogram {
public:
  LatencyHistogram();
  void add(uint64_t Ns) {
    ++Counts[index(Ns)];
    ++Total;
    SumNs += Ns;
  }
  void merge(const LatencyHistogram &O);
  uint64_t count() const { return Total; }
  double meanNs() const { return Total ? double(SumNs) / double(Total) : 0; }
  /// Percentile in ns, P in [0, 1]; 0 when empty.
  double percentileNs(double P) const;

private:
  static size_t index(uint64_t V);
  static uint64_t lowerBound(size_t I);
  static uint64_t bucketWidth(size_t I);

  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
  uint64_t SumNs = 0;
};

/// Timed end-to-end metrics are medians over fixed windows of the run
/// (one second each, or a quarter of a shorter run), so a stretch of
/// interference from outside the process moves a few windows rather than
/// the whole result.
size_t numWindows(double RunSeconds);
inline uint64_t windowNs(double RunSeconds) {
  return uint64_t(RunSeconds * 1e9 / double(numWindows(RunSeconds))) + 1;
}

/// Samples grouped by the window their operation started in.
class WindowedSamples {
public:
  explicit WindowedSamples(double RunSeconds)
      : WindowNs(windowNs(RunSeconds)), Windows(numWindows(RunSeconds)) {}
  /// Records \p Value for an operation that started \p OffsetNs into the run.
  void add(uint64_t OffsetNs, double Value) {
    Windows[std::min<size_t>(OffsetNs / WindowNs, Windows.size() - 1)]
        .push_back(Value);
  }
  /// Median over the non-empty windows of \p Fn(samples of the window).
  template <class F> double medianOver(F &&Fn) const {
    std::vector<double> PerWindow;
    for (const std::vector<double> &W : Windows)
      if (!W.empty())
        PerWindow.push_back(Fn(W));
    return percentile(std::move(PerWindow), 0.5);
  }

private:
  uint64_t WindowNs;
  std::vector<std::vector<double>> Windows;
};

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for image files (inside the checkout's build tree).
  std::string WorkDir = ".";
};

/// One named metric with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a run reports: end-to-end metrics (untraced run), per-layer
/// metrics (traced run), and the output checks behind attempted/failed.
class Report {
public:
  void endToEnd(std::string Name, double Value, std::string Unit);
  void layer(std::string Name, double Value, std::string Unit);
  /// Counts \p N checked operations.
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Records \p N wrong or failed results (the first few reasons go to
  /// stderr).
  void fail(const std::string &Why, uint64_t N = 1);
  /// A named figure of the workload, printed in the human-readable table
  /// before the result line (the metric names of the workload's own
  /// vocabulary, e.g. job_p50_ms or build_fns_per_s).
  void detail(const std::string &Name, double Value, const std::string &Unit);

  const std::vector<Metric> &endToEndMetrics() const { return E2E; }
  const std::vector<Metric> &layerMetrics() const { return Layers; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &details() const { return Details; }

private:
  std::vector<Metric> E2E, Layers;
  std::vector<std::string> Details;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Rank-skewed function popularity: rank K is drawn with probability
/// proportional to ln((K + 2) / (K + 1)), i.e. roughly 1 / (K + 1) —
/// Zipf with exponent 1 — from one uniform draw, no table needed.
uint64_t zipfRank(uint64_t N, uint64_t UniformBits);

/// xorshift64 step (never returns 0 from a nonzero state).
inline uint64_t xorshift(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

/// SplitMix64 finalizer: derives independent stream seeds from one seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Runs \p Fn repeatedly for at least \p MinSeconds (at least once) and
/// returns the median ns of one repetition. For the layer timers.
template <class F> double medianNsPerRep(double MinSeconds, F &&Fn) {
  std::vector<double> Ns;
  Clock::time_point Start = Clock::now();
  do {
    Clock::time_point T0 = Clock::now();
    Fn();
    Ns.push_back(double(nsBetween(T0, Clock::now())));
  } while (secondsSince(Start) < MinSeconds);
  return median(std::move(Ns));
}

// -- Workloads (one file each) ---------------------------------------------

void runAnalyzePaper(const Options &O, Report &R);
void runImageBuild(const Options &O, Report &R);
void runServeMixed(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
