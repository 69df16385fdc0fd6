//===- TelemetryTest.cpp - pst/obs counters, spans, exporters ------------------===//
//
// Part of the PST library (see Telemetry.h for the reference).
//
// Covers the observability substrate: counter and histogram arithmetic,
// thread-local sink merging (live sinks, retired threads, pool workers),
// span nesting within and across threads, both exporters (flat toJson and
// chrome-trace), the runtime gates, the span retention cap, and the
// contract that matters most: enabling telemetry must not change any
// analysis result (byte identity on the paper corpus).
//
// Assertions on probe content produced by PST_SPAN/PST_COUNTER sites in
// the pipeline are gated on PST_TELEMETRY, so the suite also passes in a
// -DPST_TELEMETRY=OFF build (where those macros compile away while the
// registry, facade and exporters remain functional).
//
//===----------------------------------------------------------------------===//

#include "pst/obs/ScopedTimer.h"
#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"

#include "pst/core/RegionAnalysis.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/support/ThreadPool.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"
#include "pst/workload/CorpusStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pst;

namespace {

/// Every test starts and ends with telemetry off and the registry empty,
/// so suites can run in any order without leaking probes into each other.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::setEnabled(false);
    Telemetry::setTraceEnabled(false);
    Telemetry::setSpanSampleEvery(0);
    TelemetryRegistry::global().reset();
  }
  void TearDown() override {
    Telemetry::setEnabled(false);
    Telemetry::setTraceEnabled(false);
    Telemetry::setSpanSampleEvery(0);
    TelemetryRegistry::global().reset();
  }
};

//===----------------------------------------------------------------------===//
// ValueStats arithmetic
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, BucketBoundaries) {
  EXPECT_EQ(ValueStats::bucketOf(0), 0u);
  EXPECT_EQ(ValueStats::bucketOf(1), 0u);
  EXPECT_EQ(ValueStats::bucketOf(2), 1u);
  EXPECT_EQ(ValueStats::bucketOf(3), 1u);
  EXPECT_EQ(ValueStats::bucketOf(4), 2u);
  EXPECT_EQ(ValueStats::bucketOf(1023), 9u);
  EXPECT_EQ(ValueStats::bucketOf(1024), 10u);
  EXPECT_EQ(ValueStats::bucketOf(~uint64_t(0)), 63u);
}

TEST_F(TelemetryTest, RecordAndMerge) {
  ValueStats A;
  A.record(3);
  A.record(100);
  EXPECT_EQ(A.Count, 2u);
  EXPECT_EQ(A.Sum, 103u);
  EXPECT_EQ(A.Min, 3u);
  EXPECT_EQ(A.Max, 100u);
  EXPECT_DOUBLE_EQ(A.mean(), 51.5);
  EXPECT_EQ(A.Buckets[1], 1u);
  EXPECT_EQ(A.Buckets[6], 1u);

  ValueStats B;
  B.record(1);
  A.merge(B);
  EXPECT_EQ(A.Count, 3u);
  EXPECT_EQ(A.Min, 1u);
  EXPECT_EQ(A.Max, 100u);

  // Merging an empty side must not clobber min/max with its sentinels.
  ValueStats Empty;
  A.merge(Empty);
  EXPECT_EQ(A.Count, 3u);
  EXPECT_EQ(A.Min, 1u);
  EXPECT_EQ(A.Max, 100u);
}

//===----------------------------------------------------------------------===//
// Counters and value histograms through the facade
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, CountersRespectRuntimeGate) {
  Telemetry::addCounter("test.gated", 5); // Disabled: must not record.
  Telemetry::setEnabled(true);
  Telemetry::addCounter("test.gated", 2);
  Telemetry::addCounter("test.gated", 3);
  Telemetry::setEnabled(false);
  Telemetry::addCounter("test.gated", 100); // Disabled again.

  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  ASSERT_TRUE(S.Counters.count("test.gated"));
  EXPECT_EQ(S.Counters["test.gated"], 5u);
}

TEST_F(TelemetryTest, ValueHistogramThroughFacade) {
  Telemetry::setEnabled(true);
  Telemetry::recordValue("test.hist", 1);
  Telemetry::recordValue("test.hist", 1024);
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  ASSERT_TRUE(S.Values.count("test.hist"));
  const ValueStats &V = S.Values["test.hist"];
  EXPECT_EQ(V.Count, 2u);
  EXPECT_EQ(V.Sum, 1025u);
  EXPECT_EQ(V.Buckets[0], 1u);
  EXPECT_EQ(V.Buckets[10], 1u);
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  Telemetry::addCounter("test.reset", 1);
  { ScopedTimer T("test.reset_span"); }
  TelemetryRegistry::global().reset();
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_TRUE(S.Counters.empty());
  EXPECT_TRUE(S.Timers.empty());
  EXPECT_TRUE(S.Spans.empty());
}

TEST_F(TelemetryTest, CountersMergeAcrossPoolWorkers) {
  Telemetry::setEnabled(true);
  ThreadPool Pool(4);
  const size_t Items = 1000;
  Pool.run(Items, /*ChunkSize=*/16,
           [&](size_t Begin, size_t End, unsigned) {
             for (size_t I = Begin; I < End; ++I)
               Telemetry::addCounter("test.pool_items", 1);
           });
  // The pool has joined its jobs: quiescent, safe to report.
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Counters["test.pool_items"], Items);
}

TEST_F(TelemetryTest, RetiredThreadStateSurvives) {
  Telemetry::setEnabled(true);
  std::thread T([] { Telemetry::addCounter("test.retired", 7); });
  T.join(); // Thread exit retires its sink into the registry.
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Counters["test.retired"], 7u);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, SpanNestingSingleThread) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  {
    ScopedTimer Outer("test.outer");
    {
      ScopedTimer Mid("test.mid");
      ScopedTimer Inner("test.inner");
      (void)Inner;
      (void)Mid;
    }
    (void)Outer;
  }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  ASSERT_EQ(S.Spans.size(), 3u);

  auto Find = [&](const std::string &Name) -> const SpanEvent & {
    for (const SpanEvent &E : S.Spans)
      if (Name == E.Name)
        return E;
    static SpanEvent None;
    ADD_FAILURE() << "span not found: " << Name;
    return None;
  };
  const SpanEvent &Outer = Find("test.outer");
  const SpanEvent &Mid = Find("test.mid");
  const SpanEvent &Inner = Find("test.inner");
  EXPECT_EQ(Outer.Depth, 0u);
  EXPECT_EQ(Mid.Depth, 1u);
  EXPECT_EQ(Inner.Depth, 2u);
  EXPECT_EQ(Outer.ThreadIndex, Inner.ThreadIndex);

  // Temporal containment: each child lies inside its parent's extent.
  EXPECT_GE(Mid.StartNs, Outer.StartNs);
  EXPECT_LE(Mid.StartNs + Mid.DurNs, Outer.StartNs + Outer.DurNs);
  EXPECT_GE(Inner.StartNs, Mid.StartNs);
  EXPECT_LE(Inner.StartNs + Inner.DurNs, Mid.StartNs + Mid.DurNs);

  // Durations also fold into the per-name timer statistics.
  EXPECT_EQ(S.Timers["test.outer"].Count, 1u);
  EXPECT_EQ(S.Timers["test.inner"].Count, 1u);
}

TEST_F(TelemetryTest, SpanNestingAcrossPoolThreads) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  ThreadPool Pool(4);
  Pool.run(64, /*ChunkSize=*/4, [&](size_t Begin, size_t End, unsigned) {
    ScopedTimer Chunk("test.chunk");
    for (size_t I = Begin; I < End; ++I) {
      ScopedTimer Item("test.item");
      (void)Item;
    }
    (void)Chunk;
  });

  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  size_t Chunks = 0, Items = 0;
  for (const SpanEvent &E : S.Spans) {
    if (std::string("test.chunk") == E.Name) {
      ++Chunks;
      EXPECT_EQ(E.Depth, 0u);
    } else if (std::string("test.item") == E.Name) {
      ++Items;
      EXPECT_EQ(E.Depth, 1u);
      // Its enclosing chunk ran on the same thread and contains it.
      bool Contained = false;
      for (const SpanEvent &P : S.Spans)
        if (std::string("test.chunk") == P.Name &&
            P.ThreadIndex == E.ThreadIndex && P.StartNs <= E.StartNs &&
            E.StartNs + E.DurNs <= P.StartNs + P.DurNs)
          Contained = true;
      EXPECT_TRUE(Contained);
    }
  }
  EXPECT_EQ(Items, 64u);
  EXPECT_GE(Chunks, 1u);
  EXPECT_EQ(S.Timers["test.item"].Count, 64u);
}

TEST_F(TelemetryTest, SpanConstructedDisabledStaysInert) {
  {
    ScopedTimer T("test.inert"); // Telemetry off at construction.
    Telemetry::setEnabled(true); // Flipping mid-extent must not record.
  }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_FALSE(S.Timers.count("test.inert"));
}

TEST_F(TelemetryTest, SpansWithoutTraceGateFoldIntoTimersOnly) {
  Telemetry::setEnabled(true); // Trace retention stays off.
  { ScopedTimer T("test.stats_only"); }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Timers["test.stats_only"].Count, 1u);
  EXPECT_TRUE(S.Spans.empty());
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, ToJsonGolden) {
  Telemetry::setEnabled(true);
  Telemetry::addCounter("t.alpha", 3);
  Telemetry::addCounter("t.beta", 1);
  Telemetry::recordValue("t.v", 1);
  Telemetry::recordValue("t.v", 1024);

  std::string Expected = std::string("{\n") +
                         "  \"telemetry_compiled\": " +
                         (PST_TELEMETRY ? "true" : "false") +
                         ",\n"
                         "  \"telemetry_enabled\": true,\n"
                         "  \"spans_retained\": 0,\n"
                         "  \"spans_dropped\": 0,\n"
                         "  \"spans_sampled_out\": 0,\n"
                         "  \"counters\": {\n"
                         "    \"t.alpha\": 3,\n"
                         "    \"t.beta\": 1\n"
                         "  },\n"
                         "  \"timers_ns\": {},\n"
                         "  \"values\": {\n"
                         "    \"t.v\": {\"count\": 2, \"sum\": 1025, "
                         "\"min\": 1, \"max\": 1024, \"mean\": 512.5, "
                         "\"log2_buckets\": [[0, 1], [10, 1]]}\n"
                         "  }\n"
                         "}\n";
  EXPECT_EQ(TelemetryRegistry::global().toJson(), Expected);
}

TEST_F(TelemetryTest, TraceWriterGolden) {
  // A hand-built snapshot pins the exporter's exact byte output: thread
  // metadata first, complete events with fractional-microsecond
  // timestamps, the counter summary last.
  TelemetrySnapshot Snap;
  Snap.Spans.push_back(SpanEvent{"alpha", 0, 0, 1500, 250000});
  Snap.Spans.push_back(SpanEvent{"beta", 0, 1, 2000, 100000});
  Snap.Spans.push_back(SpanEvent{"gamma", 1, 0, 0, 999});
  Snap.Counters["a.count"] = 7;
  Snap.Counters["b.count"] = 9;

  std::ostringstream OS;
  TraceWriter(Snap).write(OS);
  std::string Expected =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"pst-worker-0\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"pst-worker-1\"}},\n"
      "  {\"name\": \"alpha\", \"cat\": \"pst\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 1.500, \"dur\": 250.000, \"args\": {\"depth\": "
      "0}},\n"
      "  {\"name\": \"beta\", \"cat\": \"pst\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 2.000, \"dur\": 100.000, \"args\": {\"depth\": "
      "1}},\n"
      "  {\"name\": \"gamma\", \"cat\": \"pst\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 1, \"ts\": 0.000, \"dur\": 0.999, \"args\": {\"depth\": "
      "0}},\n"
      "  {\"name\": \"pst.counters\", \"cat\": \"pst\", \"ph\": \"i\", "
      "\"s\": \"g\", \"pid\": 1, \"tid\": 0, \"ts\": 0, \"args\": "
      "{\"a.count\": 7, \"b.count\": 9}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  EXPECT_EQ(OS.str(), Expected);
}

TEST_F(TelemetryTest, TraceWriterEmptySnapshot) {
  std::ostringstream OS;
  TraceWriter(TelemetrySnapshot{}).write(OS);
  EXPECT_EQ(OS.str(), "{\"traceEvents\": [\n\n], \"displayTimeUnit\": \"ms\"}\n");
}

TEST_F(TelemetryTest, TraceWriterEscapesNames) {
  TelemetrySnapshot Snap;
  Snap.Counters["quote\"back\\slash"] = 1;
  std::ostringstream OS;
  TraceWriter(Snap).write(OS);
  EXPECT_NE(OS.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span retention sampling
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, SpanSamplingKeepsEveryNth) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  Telemetry::setSpanSampleEvery(4);
  for (int I = 0; I < 100; ++I) {
    ScopedTimer T("test.sampled");
  }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  // Retention is decimated 1-in-4 (spans 0, 4, 8, ... kept)...
  EXPECT_EQ(S.Spans.size(), 25u);
  EXPECT_EQ(S.SampledOutSpans, 75u);
  EXPECT_EQ(S.DroppedSpans, 0u);
  // ...while duration statistics still saw every span.
  EXPECT_EQ(S.Timers["test.sampled"].Count, 100u);

  // The dump reports the decimation.
  EXPECT_NE(TelemetryRegistry::global().toJson().find(
                "\"spans_sampled_out\": 75"),
            std::string::npos);
}

TEST_F(TelemetryTest, SpanSamplingOffRetainsEverySpan) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  for (int I = 0; I < 10; ++I) {
    ScopedTimer T("test.unsampled");
  }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Spans.size(), 10u);
  EXPECT_EQ(S.SampledOutSpans, 0u);
}

TEST_F(TelemetryTest, SpanSamplingPhaseRestartsOnReset) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  Telemetry::setSpanSampleEvery(3);
  { ScopedTimer T("test.phase"); } // Span 0: kept.
  { ScopedTimer T("test.phase"); } // Span 1: sampled out.
  TelemetryRegistry::global().reset();
  { ScopedTimer T("test.phase"); } // Span 0 again after reset: kept.
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Spans.size(), 1u);
  EXPECT_EQ(S.SampledOutSpans, 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline instrumentation
//===----------------------------------------------------------------------===//

#if PST_TELEMETRY
/// Dumps the global counter totals as canonical JSON and diffs them
/// against tests/golden/<FileName>; with PST_UPDATE_TELEMETRY_GOLDEN set,
/// rewrites the golden instead (and skips).
void checkCounterGolden(const char *FileName) {
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  std::ostringstream OS;
  OS << "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : S.Counters) {
    OS << (First ? "\n    \"" : ",\n    \"") << Name << "\": " << Value;
    First = false;
  }
  OS << "\n  }\n}\n";
  std::string Actual = OS.str();

  const std::string Path = std::string(PST_GOLDEN_DIR) + "/" + FileName;
  if (const char *Update = std::getenv("PST_UPDATE_TELEMETRY_GOLDEN");
      Update && *Update) {
    std::ofstream Out(Path);
    Out << Actual;
    ASSERT_TRUE(Out.good()) << "cannot write golden: " << Path;
    GTEST_SKIP() << "regenerated " << Path;
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden: " << Path;
  std::stringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str())
      << "telemetry counters drifted from " << Path
      << "; if the pipeline change is intentional, regenerate with "
         "PST_UPDATE_TELEMETRY_GOLDEN=1";
}

TEST_F(TelemetryTest, PipelineProbesPopulate) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  Cfg G = paperFigure1Cfg();
  FrozenCfg FV(G);
  ProgramStructureTree T = ProgramStructureTree::build(FV);
  ControlRegionsResult CR = computeControlRegionsLinearImplicit(FV);
  (void)T;
  (void)CR;

  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_GE(S.Counters["pst.builds"], 1u);
  EXPECT_GE(S.Counters["cycleequiv.runs"], 1u);
  EXPECT_GE(S.Counters["cdg.runs"], 1u);
  EXPECT_GE(S.Timers["pst.build"].Count, 1u);
  EXPECT_GE(S.Timers["cycleequiv.run"].Count, 1u);

  // The acceptance-criterion nesting: a cycleequiv.run span sits inside a
  // pst.build span (depth > 0 on the same thread).
  bool NestedCycleEquiv = false;
  for (const SpanEvent &E : S.Spans)
    if (std::string("cycleequiv.run") == E.Name && E.Depth > 0)
      NestedCycleEquiv = true;
  EXPECT_TRUE(NestedCycleEquiv);
}
/// The telemetry-diff regression gate: analyzing the 254-procedure paper
/// corpus must produce exactly the pinned counter totals. Counters are
/// work-proportional (runs, nodes, edges, classes, regions), so any change
/// to what the pipeline computes — a stage silently running twice, a
/// fast path skipping work, the CfgView path diverging from the legacy
/// path — shows up as a diff here even when every oracle test still
/// passes. Timers and span retention are deliberately excluded: they
/// drift with machine speed; counters must not.
///
/// Regenerate after an intentional pipeline change with:
///   PST_UPDATE_TELEMETRY_GOLDEN=1 ./tests/test_telemetry \
///     --gtest_filter='*CounterGoldenPaperCorpus*'
TEST_F(TelemetryTest, CounterGoldenPaperCorpus) {
  Telemetry::setEnabled(true);

  std::vector<CorpusFunction> Corpus = generatePaperCorpus(/*Seed=*/1994);
  std::vector<const Cfg *> Ptrs;
  Ptrs.reserve(Corpus.size());
  for (const CorpusFunction &F : Corpus)
    Ptrs.push_back(&F.Fn.Graph);

  // Single worker: counter totals are order-independent sums, but one
  // thread keeps the run itself deterministic too.
  BatchOptions Opts;
  Opts.NumThreads = 1;
  BatchAnalyzer Engine(Opts);
  (void)Engine.analyzeCorpus(std::span<const Cfg *const>(Ptrs));

  checkCounterGolden("telemetry_counters_paper.json");
}

/// The same gate over the streaming pipeline: stream-build a small
/// generated corpus image out of core, then analyze it through the
/// windowed sink path. This pins the stream probe families
/// (workload.gen.*, image.stream.*, batch.stream.*) alongside the
/// per-function pipeline counters the two passes generate — and, because
/// the golden is a complete counter dump, it also proves the stream
/// counters never leak into the materializing analyzeCorpus totals above
/// (the paper golden would diff if they did).
TEST_F(TelemetryTest, CounterGoldenStreamPipeline) {
  Telemetry::setEnabled(true);

  StreamCorpusOptions SO;
  SO.Count = 96;
  // Route both passes through the canonical chunked producer so the
  // workload.gen.* counters are pinned too (the build calls the producer
  // twice; Begin rewinding to 0 marks the second pass).
  CorpusStream Stream(SO, /*ChunkFunctions=*/17);
  CorpusChunk Chunk;
  ChunkProducer Produce = [&](uint64_t Begin, uint64_t Count,
                              std::vector<Cfg> &Graphs,
                              std::vector<std::string> &Names) {
    if (Begin == 0)
      Stream.reset();
    ASSERT_TRUE(Stream.next(Chunk));
    ASSERT_EQ(Chunk.Begin, Begin);
    ASSERT_EQ(Chunk.size(), Count);
    Graphs = Chunk.Graphs;
    Names = Chunk.Names;
  };

  BatchOptions Opts;
  Opts.NumThreads = 1;
  BatchAnalyzer Engine(Opts);
  std::string Path = ::testing::TempDir() + "telemetry_stream.img";
  std::string Error;
  ASSERT_TRUE(Engine.buildImageStream(SO.Count, Produce, /*ChunkFunctions=*/17,
                                      Path, &Error))
      << Error;
  {
    CorpusImage Img = CorpusImage::map(Path, &Error);
    ASSERT_TRUE(Img.valid()) << Error;
    uint64_t Seen = 0;
    Engine.analyzeCorpusStream(
        Img, [&Seen](uint64_t, const FunctionAnalysis &) { ++Seen; },
        /*WindowFunctions=*/32);
    ASSERT_EQ(Seen, SO.Count);
  }
  std::remove(Path.c_str());

  checkCounterGolden("telemetry_counters_stream.json");
}
#endif // PST_TELEMETRY

//===----------------------------------------------------------------------===//
// Byte identity: telemetry must observe, never perturb
//===----------------------------------------------------------------------===//

std::string fingerprint(const Cfg &G, const FunctionAnalysis &A) {
  std::ostringstream OS;
  OS << formatPst(G, A.Pst);
  OS << "cr " << A.ControlRegions.NumClasses << ':';
  for (uint32_t C : A.ControlRegions.NodeClass)
    OS << ' ' << C;
  OS << '\n';
  return OS.str();
}

TEST_F(TelemetryTest, EnablingTelemetryPreservesResultsOnPaperCorpus) {
  std::vector<CorpusFunction> Corpus = generatePaperCorpus(/*Seed=*/1994);
  std::vector<const Cfg *> Ptrs;
  Ptrs.reserve(Corpus.size());
  for (const CorpusFunction &F : Corpus)
    Ptrs.push_back(&F.Fn.Graph);

  BatchOptions Opts;
  Opts.NumThreads = 4;

  auto Run = [&] {
    BatchAnalyzer Engine(Opts);
    std::vector<FunctionAnalysis> As =
        Engine.analyzeCorpus(std::span<const Cfg *const>(Ptrs));
    std::vector<std::string> Out;
    Out.reserve(As.size());
    for (size_t I = 0; I < As.size(); ++I)
      Out.push_back(fingerprint(*Ptrs[I], As[I]));
    return Out;
  };

  std::vector<std::string> Baseline = Run(); // Telemetry off.
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  std::vector<std::string> Instrumented = Run();

  ASSERT_EQ(Baseline.size(), Instrumented.size());
  for (size_t I = 0; I < Baseline.size(); ++I)
    EXPECT_EQ(Baseline[I], Instrumented[I]) << "function " << I;
}

//===----------------------------------------------------------------------===//
// Retention cap
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, SpanRetentionCapCountsDrops) {
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);
  const size_t Cap = size_t(1) << 20; // MaxSpansPerThread in Telemetry.cpp.
  const size_t Extra = 100;
  for (size_t I = 0; I < Cap + Extra; ++I) {
    ScopedTimer T("test.capped");
    (void)T;
  }
  TelemetrySnapshot S = TelemetryRegistry::global().snapshot();
  EXPECT_EQ(S.Spans.size(), Cap);
  EXPECT_EQ(S.DroppedSpans, Extra);
  // Statistics keep counting past the retention cap.
  EXPECT_EQ(S.Timers["test.capped"].Count, Cap + Extra);
}

} // namespace
