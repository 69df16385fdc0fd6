//===- analyze_paper.cpp - Workload analyze-paper -------------------------===//
//
// One closed-loop client issues back-to-back BatchAnalyzer::analyzeCorpus
// jobs over the seeded 254-procedure paper corpus (lowered MiniLang), with
// control regions on and 4 workers. Every job's result checksum must equal
// the serial analyzeFunction reference computed in setup.
//
// An op is one analyzed function; the latency is one job.
//
//===----------------------------------------------------------------------===//

#include "common.h"
#include "layers.h"

#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/Corpus.h"

#include <cstdio>
#include <memory>

using namespace pst;

namespace perfbench {

uint64_t analysisChecksum(const FunctionAnalysis &A) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  };
  Mix(A.Pst.numRegions());
  Mix(A.ControlRegions.NumClasses);
  for (const SeseRegion &Reg : A.Pst.regionTable()) {
    Mix(Reg.EntryEdge);
    Mix(Reg.ExitEdge);
    Mix(Reg.Parent);
  }
  for (RegionId Reg : A.Pst.nodeRegionTable())
    Mix(Reg);
  for (uint32_t C : A.ControlRegions.NodeClass)
    Mix(C);
  return H;
}

namespace {

constexpr unsigned Workers = 4;
constexpr unsigned SetupRepeats = 5;
constexpr unsigned WarmupJobs = 100;

uint64_t jobChecksum(const std::vector<FunctionAnalysis> &Out) {
  uint64_t H = 0;
  for (const FunctionAnalysis &A : Out)
    H = H * 0x9e3779b97f4a7c15ull + analysisChecksum(A);
  return H;
}

/// Everything the timed loop needs; rebuilt from the seed by each setup.
struct PaperSetup {
  std::vector<Cfg> Graphs;
  uint64_t Reference = 0;
  uint64_t ImageBytes = 0;
  std::unique_ptr<BatchAnalyzer> Engine;
};

PaperSetup setUp(uint64_t Seed) {
  PaperSetup S;
  std::vector<CorpusFunction> Paper = generatePaperCorpus(Seed);
  std::vector<std::string> Names;
  for (CorpusFunction &F : Paper) {
    Names.push_back(F.Program + "." + F.Fn.Name);
    S.Graphs.push_back(std::move(F.Fn.Graph));
  }
  // The serial reference every job is checked against.
  PstScratch Scratch;
  std::vector<FunctionAnalysis> Ref;
  for (const Cfg &G : S.Graphs)
    Ref.push_back(analyzeFunction(G, Scratch));
  S.Reference = jobChecksum(Ref);

  BatchOptions BO;
  BO.NumThreads = Workers;
  BO.ComputeControlRegions = true;
  S.Engine = std::make_unique<BatchAnalyzer>(BO);
  S.ImageBytes = S.Engine->buildImage(S.Graphs, Names).size();
  // Warm-up jobs grow every worker's scratch to steady state.
  for (unsigned I = 0; I < WarmupJobs; ++I)
    (void)S.Engine->analyzeCorpus(std::span<const Cfg>(S.Graphs));
  return S;
}

} // namespace

void runAnalyzePaper(const Options &O, Report &R) {
  std::vector<double> SetupSec;
  PaperSetup S;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    S = PaperSetup();
    Clock::time_point T0 = Clock::now();
    S = setUp(O.Seed);
    SetupSec.push_back(secondsSince(T0));
  }
  const size_t NumFns = S.Graphs.size();
  std::span<const Cfg> Corpus(S.Graphs);

  // Closed loop. In the traced run every other job also records a span
  // (start, duration) in memory; comparing the two halves gives the cost
  // of the benchmark's own tracing.
  WindowedSamples JobUs(O.Seconds);
  struct Span {
    uint64_t StartNs, DurNs;
  };
  std::vector<Span> Spans;
  double TracedNs = 0, UntracedNs = 0;
  uint64_t Traced = 0, Untraced = 0;
  uint64_t Jobs = 0, Allocs = 0;
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < O.Seconds) {
    const bool TraceThis = O.Trace && (Jobs & 1);
    uint64_t A0 = allocCount();
    Clock::time_point T0 = Clock::now();
    std::vector<FunctionAnalysis> Out = S.Engine->analyzeCorpus(Corpus);
    Clock::time_point T1 = Clock::now();
    uint64_t Ns = nsBetween(T0, T1);
    Allocs += allocCount() - A0;
    JobUs.add(nsBetween(Start, T0), double(Ns) / 1e3);
    if (TraceThis)
      Spans.push_back({nsBetween(Start, T0), Ns});
    (TraceThis ? TracedNs : UntracedNs) += double(Ns);
    ++(TraceThis ? Traced : Untraced);
    ++Jobs;
    R.attempt();
    if (Out.size() != NumFns || jobChecksum(Out) != S.Reference)
      R.fail("analyzeCorpus job result differs from the serial reference");
  }

  // Throughput of a window: its functions over its jobs' busy time.
  const double FnsPerSec = JobUs.medianOver([&](const std::vector<double> &W) {
    double Us = 0;
    for (double X : W)
      Us += X;
    return double(W.size() * NumFns) / Us * 1e6;
  });
  const double P50 = JobUs.medianOver(
      [](const std::vector<double> &W) { return percentile(W, 0.5); });
  const double P90 = JobUs.medianOver(
      [](const std::vector<double> &W) { return percentile(W, 0.9); });
  const double P99 = JobUs.medianOver(
      [](const std::vector<double> &W) { return percentile(W, 0.99); });
  const double AllocsPerFn = double(Allocs) / double(Jobs * NumFns);
  const double BytesPerFn = double(S.ImageBytes) / double(NumFns);
  R.detail("analyze_fns_per_s", FnsPerSec, "fns/s");
  R.detail("job_p50_ms", P50 / 1e3, "ms");
  R.detail("job_p90_ms", P90 / 1e3, "ms");
  R.detail("job_p99_ms", P99 / 1e3, "ms");
  R.detail("allocs_per_fn", AllocsPerFn, "count");
  R.detail("image_bytes_per_fn", BytesPerFn, "bytes");
  R.detail("jobs", double(Jobs), "count");

  if (!O.Trace) {
    R.endToEnd("setup_s", median(SetupSec), "s");
    R.endToEnd("peak_rss_mb", double(peakRssBytes()) / 1e6, "MB");
    R.endToEnd("ops_per_s", FnsPerSec, "1/s");
    R.endToEnd("latency_p50_us", P50, "us");
    R.endToEnd("latency_tail_us", P90, "us");
    R.endToEnd("allocs_per_op", AllocsPerFn, "count");
    R.endToEnd("bytes_per_fn", BytesPerFn, "bytes");
    return;
  }
  R.layer("obs.trace_overhead",
          Traced && Untraced ? (TracedNs / double(Traced)) /
                                   (UntracedNs / double(Untraced))
                             : 1.0,
          "ratio");
  S = PaperSetup(); // Free the workload's pool before the layer passes.
  measureAllLayers(O, R, nullptr);
}

} // namespace perfbench
