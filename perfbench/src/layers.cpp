//===- layers.cpp - Per-layer passes of the traced run --------------------===//
//
// Each per-layer metric is timed from outside, around one public library
// call, by the benchmark's own clock; the library's Telemetry stays off.
// Every traced run reports the same set:
//
//   * kernel rows (graph, cycleequiv, core, cdg, runtime) from serial
//     passes over the seed's paper corpus;
//   * workload / image rows from a serial StreamImageWriter build of the
//     first LayerFunctions functions of the seed's stream corpus;
//   * serve / dom / incremental rows from a serve mix: serve-mixed's own
//     run, or a short one over the layer image in the other workloads.
//
//===----------------------------------------------------------------------===//

#include "layers.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dom/ControlDependenceCsr.h"
#include "pst/dom/Dominators.h"
#include "pst/image/CorpusImage.h"
#include "pst/incremental/IncrementalPst.h"
#include "pst/obs/Telemetry.h"
#include "pst/serve/DerivedCache.h"
#include "pst/serve/Snapshot.h"
#include "pst/workload/Corpus.h"
#include "pst/workload/CorpusStream.h"

#if __has_include("pst/core/PstLca.h")
#include "pst/core/PstLca.h"
#define PERFBENCH_HAVE_PSTLCA 1
#else
#define PERFBENCH_HAVE_PSTLCA 0
#endif

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

using namespace pst;
using namespace pst::serve;

namespace perfbench {

namespace {

/// Minimum measured time per kernel row.
constexpr double MinSec = 0.2;
constexpr uint64_t LayerFunctions = 8192;
constexpr double MiniServeSeconds = 1.5;
constexpr size_t BundleSample = 1000;
constexpr size_t ReplayedEdits = 1000;
constexpr size_t MaterializedFunctions = 256;

/// Keeps results observable so no measured call can be dropped.
uint64_t Sink = 0;

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

void measureKernelLayers(const Options &O, Report &R) {
  std::vector<CorpusFunction> Paper = generatePaperCorpus(O.Seed);
  std::vector<Cfg> G;
  for (CorpusFunction &F : Paper)
    G.push_back(std::move(F.Fn.Graph));
  const size_t N = G.size();
  const double DN = double(N);

  // Shape counts: they guard the workload and must not move.
  {
    PstScratch PS;
    uint64_t Nodes = 0, Edges = 0, Regions = 0, Classes = 0;
    uint32_t MaxDepth = 0;
    for (const Cfg &F : G) {
      FunctionAnalysis A = analyzeFunction(F, PS);
      Nodes += F.numNodes();
      Edges += F.numEdges();
      Regions += A.Pst.numCanonicalRegions();
      Classes += A.ControlRegions.NumClasses;
      for (const SeseRegion &Reg : A.Pst.regionTable())
        MaxDepth = std::max(MaxDepth, Reg.Depth);
    }
    R.layer("graph.nodes_per_fn", double(Nodes) / DN, "count");
    R.layer("graph.edges_per_fn", double(Edges) / DN, "count");
    R.layer("core.regions_per_fn", double(Regions) / DN, "count");
    R.layer("core.max_depth", double(MaxDepth), "count");
    R.layer("cdg.classes_per_fn", double(Classes) / DN, "count");
  }

  // graph: CfgView::build into one warm scratch.
  CfgViewScratch One;
  for (const Cfg &F : G)
    Sink += CfgView::build(F, One).numEdges();
  uint64_t A0 = allocCount();
  for (const Cfg &F : G)
    Sink += CfgView::build(F, One).numEdges();
  R.layer("graph.allocs_per_view", double(allocCount() - A0) / DN, "count");
  R.layer("graph.cfgview_build_ns", medianNsPerRep(MinSec, [&] {
            for (const Cfg &F : G)
              Sink += CfgView::build(F, One).numEdges();
          }) / DN,
          "ns");

  // Views that coexist, one scratch each, for the stages below.
  std::vector<CfgViewScratch> VS(N);
  std::vector<CfgView> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = CfgView::build(G[I], VS[I]);

  // cycleequiv: computeCycleEquivalence(V, true, S).
  CycleEquivScratch CS;
  std::vector<CycleEquivResult> CE(N);
  for (size_t I = 0; I < N; ++I)
    CE[I] = computeCycleEquivalence(V[I], true, CS);
  R.layer("cycleequiv.run_ns", medianNsPerRep(MinSec, [&] {
            for (const CfgView &X : V)
              Sink += computeCycleEquivalence(X, true, CS).NumClasses;
          }) / DN,
          "ns");

  // core: buildWithCycleEquiv timed per call (the classes it consumes are
  // copied outside the timer).
  PstBuildScratch PB;
  for (size_t I = 0; I < N; ++I)
    Sink += ProgramStructureTree::buildWithCycleEquiv(V[I], CE[I], PB)
                .numRegions();
  {
    uint64_t Ns = 0, Calls = 0;
    Clock::time_point Start = Clock::now();
    do {
      for (size_t I = 0; I < N; ++I) {
        CycleEquivResult C = CE[I];
        Clock::time_point T0 = Clock::now();
        ProgramStructureTree T =
            ProgramStructureTree::buildWithCycleEquiv(V[I], std::move(C), PB);
        Ns += nsBetween(T0, Clock::now());
        Sink += T.numRegions();
        ++Calls;
      }
    } while (secondsSince(Start) < MinSec);
    R.layer("core.pst_construct_ns", double(Ns) / double(Calls), "ns");
  }
  A0 = allocCount();
  for (const CfgView &X : V)
    Sink += ProgramStructureTree::build(X, PB).numRegions();
  R.layer("core.allocs_per_build", double(allocCount() - A0) / DN, "count");

  // cdg: the T(S) cycle-equivalence run and the whole control-region call.
  R.layer("cdg.ts_cycleequiv_ns", medianNsPerRep(MinSec, [&] {
            for (const CfgView &X : V)
              Sink += computeCycleEquivalenceTs(X, CS).NumClasses;
          }) / DN,
          "ns");
  ControlRegionsScratch CR;
  R.layer("cdg.control_regions_ns", medianNsPerRep(MinSec, [&] {
            for (const CfgView &X : V)
              Sink += computeControlRegionsLinearImplicit(X, CR).NumClasses;
          }) / DN,
          "ns");
  A0 = allocCount();
  for (const CfgView &X : V)
    Sink += computeControlRegionsLinearImplicit(X, CR).NumClasses;
  R.layer("cdg.allocs_per_call", double(allocCount() - A0) / DN, "count");

  // runtime: the per-function pipeline on one warm scratch, the fixed cost
  // of a job, and how well a 4-worker job uses its workers.
  PstScratch PS;
  const double SerialNs = medianNsPerRep(MinSec, [&] {
                            for (const Cfg &F : G)
                              Sink += analyzeFunction(F, PS).Pst.numRegions();
                          }) / DN;
  R.layer("runtime.serial_fn_ns", SerialNs, "ns");

  BatchOptions BO;
  BO.NumThreads = 4;
  BatchAnalyzer Engine(BO);
  std::span<const Cfg> All(G);
  for (int I = 0; I < 100; ++I)
    Sink += Engine.analyzeCorpus(All).size();
  auto timeJobs = [&](std::span<const Cfg> Job, double Seconds) {
    std::vector<double> Us;
    Clock::time_point Start = Clock::now();
    do {
      Clock::time_point T0 = Clock::now();
      Sink += Engine.analyzeCorpus(Job).size();
      Us.push_back(double(nsBetween(T0, Clock::now())) / 1e3);
    } while (secondsSince(Start) < Seconds);
    return Us;
  };
  R.layer("runtime.dispatch_us", median(timeJobs(All.first(1), MinSec)), "us");
  const double JobUs = median(timeJobs(All, MinSec));
  R.layer("runtime.parallel_efficiency",
          SerialNs * DN / (double(Engine.numWorkers()) * JobUs * 1e3),
          "ratio");

  // obs: job p50 with the library's telemetry switched on versus off, in
  // alternating slices.
  std::vector<double> On, Off;
  for (int Slice = 0; Slice < 6; ++Slice) {
    const bool Enable = Slice & 1;
    Telemetry::setEnabled(Enable);
    std::vector<double> Us = timeJobs(All, 0.15);
    (Enable ? On : Off).insert((Enable ? On : Off).end(), Us.begin(),
                               Us.end());
  }
  Telemetry::setEnabled(false);
  TelemetryRegistry::global().reset();
  R.layer("obs.telemetry_enabled_overhead", median(On) / median(Off),
          "ratio");
}

void measureImageLayers(const Options &O, Report &R, const std::string &Path) {
  StreamCorpusOptions SO;
  SO.Seed = streamSeed(O.Seed);
  SO.Count = LayerFunctions;
  std::string Error;
  auto check = [&](bool Ok, const char *What) {
    if (!Ok)
      throw std::runtime_error(std::string(What) + ": " + Error);
  };
  std::remove(Path.c_str());

  uint64_t GenNs = 0, PstNs = 0, LayoutNs = 0, FillNs = 0, WriteNs = 0;
  uint64_t ChecksumNs = 0;
  {
    StreamImageWriter W(Path, LayerFunctions);
    check(W.valid(), "StreamImageWriter");
    Cfg G;
    std::string Name;
    CfgViewScratch VS;
    PstBuildScratch PB;
    // Pass 1: generate, build, record the shape.
    for (uint64_t I = 0; I < LayerFunctions; ++I) {
      Clock::time_point T0 = Clock::now();
      generateStreamFunction(SO, I, G, Name);
      Clock::time_point T1 = Clock::now();
      CfgView V = CfgView::build(G, VS);
      Clock::time_point T2 = Clock::now();
      ProgramStructureTree T = ProgramStructureTree::build(V, PB);
      Clock::time_point T3 = Clock::now();
      check(W.addShape(G, T, Name, &Error), "addShape");
      Clock::time_point T4 = Clock::now();
      GenNs += nsBetween(T0, T1);
      PstNs += nsBetween(T2, T3);
      LayoutNs += nsBetween(T3, T4);
    }
    Clock::time_point T0 = Clock::now();
    check(W.beginFill(&Error), "beginFill");
    LayoutNs += nsBetween(T0, Clock::now());

    // Pass 2: regenerate chunk by chunk and fill the file.
    const uint64_t Chunk = 4096;
    StreamImageWriter::ChunkScratch CS;
    std::vector<Cfg> Graphs(Chunk);
    std::vector<std::string> Names(Chunk);
    for (uint64_t Begin = 0; Begin < LayerFunctions; Begin += Chunk) {
      const uint64_t Count = std::min(Chunk, LayerFunctions - Begin);
      for (uint64_t K = 0; K < Count; ++K)
        generateStreamFunction(SO, Begin + K, Graphs[K], Names[K]);
      T0 = Clock::now();
      check(W.beginChunk(CS, Begin, Count, &Error), "beginChunk");
      FillNs += nsBetween(T0, Clock::now());
      for (uint64_t K = 0; K < Count; ++K) {
        CfgView V = CfgView::build(Graphs[K], VS);
        ProgramStructureTree T = ProgramStructureTree::build(V, PB);
        T0 = Clock::now();
        W.fill(CS, Begin + K, Graphs[K], V, T, Names[K]);
        FillNs += nsBetween(T0, Clock::now());
      }
      T0 = Clock::now();
      check(W.endChunk(CS, &Error), "endChunk");
      WriteNs += nsBetween(T0, Clock::now());
    }
    T0 = Clock::now();
    check(W.finish(&Error), "finish");
    ChecksumNs = nsBetween(T0, Clock::now());
  }
  const double DN = double(LayerFunctions);
  R.layer("workload.gen_ns_per_fn", double(GenNs) / DN, "ns");
  R.layer("core.pst_build_ns", double(PstNs) / DN, "ns");
  R.layer("image.layout_ns_per_fn", double(LayoutNs) / DN, "ns");
  R.layer("image.fill_ns_per_fn", double(FillNs) / DN, "ns");
  R.layer("image.write_ms", double(WriteNs) / 1e6, "ms");
  R.layer("image.checksum_ms", double(ChecksumNs) / 1e6, "ms");

  CorpusImage Img = CorpusImage::map(Path, &Error);
  check(Img.valid(), "CorpusImage::map");
  Clock::time_point T0 = Clock::now();
  check(Img.verify(&Error), "CorpusImage::verify");
  R.layer("image.checksum_mb_per_s",
          double(Img.fileBytes()) / 1e6 / secondsSince(T0), "MB/s");

  uint64_t Csr = 0, Pst = 0, Str = 0;
  for (uint32_t S = 0; S < Img.numSections(); ++S) {
    const image::SectionDesc &D = Img.section(S);
    auto K = image::SectionKind(D.Kind);
    if (K >= image::SectionKind::SuccOff && K <= image::SectionKind::EdgeDst)
      Csr += D.Bytes;
    else if (K >= image::SectionKind::Regions &&
             K <= image::SectionKind::ImmVal)
      Pst += D.Bytes;
    else if (K == image::SectionKind::NodeLabelOff ||
             K == image::SectionKind::StrTab)
      Str += D.Bytes;
  }
  R.layer("image.csr_bytes_per_fn", double(Csr) / DN, "bytes");
  R.layer("image.pst_bytes_per_fn", double(Pst) / DN, "bytes");
  R.layer("image.strtab_bytes_per_fn", double(Str) / DN, "bytes");

  // runtime: what mapped analysis does per function.
  ControlRegionsScratch CR;
  R.layer("runtime.mapped_fn_ns", medianNsPerRep(MinSec, [&] {
            for (uint64_t I = 0; I < LayerFunctions; ++I) {
              Sink += Img.pst(I).numRegions();
              Sink += computeControlRegionsLinearImplicit(Img.cfg(I), CR)
                          .NumClasses;
            }
          }) / DN,
          "ns");
}

void measureServeLayers(const Options &O, Report &R, ServeHarness &H,
                        const ServeMixResult &Res) {
  PstServer &S = *H.Server;
  const CorpusImage &Img = S.image();

  for (unsigned K = 0; K < NumQueryKinds; ++K) {
    std::string Kind = QueryKindNames[K];
    R.layer("serve." + Kind + "_p50_ns", Res.PerKind[K].percentileNs(0.5),
            "ns");
    R.layer("serve." + Kind + "_p99_ns", Res.PerKind[K].percentileNs(0.99),
            "ns");
  }

  // Shard::pin and Shard::resolve, at quiescence.
  Shard &Sh0 = S.shard(0);
  R.layer("serve.pin_ns", medianNsPerRep(0.1, [&] {
            for (int I = 0; I < 1000; ++I)
              Sink += Sh0.pin()->Version;
          }) / 1000.0,
          "ns");
  {
    auto Pin = Sh0.pin();
    std::vector<uint64_t> Owned;
    for (uint64_t Fn = 0; Fn < S.numFunctions(); Fn += S.numShards())
      Owned.push_back(Fn);
    R.layer("serve.resolve_ns", medianNsPerRep(0.1, [&] {
              for (uint64_t Fn : Owned)
                Sink += Sh0.resolve(*Pin, Fn).View.numNodes();
            }) / double(Owned.size()),
            "ns");
  }

  // Cold bundle builds: the DerivedBundle constructor, then its parts.
  std::vector<double> Bundle, Idom, PostDom, Frontiers, CdepCsr, Lca;
  uint64_t BundleBytes = 0;
  uint64_t Rng = mixSeed(O.Seed, 600);
  for (size_t I = 0; I < BundleSample; ++I) {
    const uint64_t Fn = xorshift(Rng) % S.numFunctions();
    const CfgView V = Img.cfg(Fn);
    const ProgramStructureTree T = Img.pst(Fn);
    Clock::time_point T0 = Clock::now();
    {
      DerivedBundle B(V, T);
      Bundle.push_back(double(nsBetween(T0, Clock::now())) / 1e3);
      BundleBytes += B.Bytes;
    }
    T0 = Clock::now();
    DomTree D = DomTree::buildIterative(V);
    Clock::time_point T1 = Clock::now();
    DomTree P = DomTree::buildPostDom(V);
    Clock::time_point T2 = Clock::now();
    DominanceFrontiers F(V, D);
    Clock::time_point T3 = Clock::now();
    ControlDependenceCsr C(V, P);
    Clock::time_point T4 = Clock::now();
    Idom.push_back(double(nsBetween(T0, T1)) / 1e3);
    PostDom.push_back(double(nsBetween(T1, T2)) / 1e3);
    Frontiers.push_back(double(nsBetween(T2, T3)) / 1e3);
    CdepCsr.push_back(double(nsBetween(T3, T4)) / 1e3);
    Sink += C.relationSize() + F.frontier(V.entry()).size();
#if PERFBENCH_HAVE_PSTLCA
    T0 = Clock::now();
    PstLca L(T);
    Lca.push_back(double(nsBetween(T0, Clock::now())) / 1e3);
    Sink += L.maxDepth();
#endif
  }
  R.layer("serve.bundle_build_us", mean(Bundle), "us");
  R.layer("dom.idom_build_us", mean(Idom), "us");
  R.layer("dom.postdom_build_us", mean(PostDom), "us");
  R.layer("dom.frontiers_build_us", mean(Frontiers), "us");
  R.layer("dom.cdep_csr_build_us", mean(CdepCsr), "us");
  // Reads 0 once the LCA index no longer exists.
  R.layer("core.lca_build_us", mean(Lca), "us");
  R.layer("serve.bundle_bytes_per_fn",
          double(BundleBytes) / double(BundleSample), "bytes");

  // Derived-cache counters over the mix.
  const double Hits = double(Res.CacheAfter.Hits - Res.CacheBefore.Hits);
  const double Waits = double(Res.CacheAfter.Waits - Res.CacheBefore.Waits);
  const double Builds =
      double(Res.CacheAfter.Builds - Res.CacheBefore.Builds);
  const double Commits = double(Res.CommitFromDueUs.size());
  R.layer("serve.cache_hit_share", Hits / (Hits + Waits + Builds), "ratio");
  R.layer("serve.cache_waits", Waits, "count");
  R.layer("serve.cache_builds_per_commit", Commits ? Builds / Commits : 0,
          "count");

  // The writer's open loop.
  R.layer("serve.commit_p50_us", percentile(Res.CommitFromDueUs, 0.5), "us");
  R.layer("serve.commit_p99_us", percentile(Res.CommitFromDueUs, 0.99), "us");
  R.layer("serve.writer_late_share", Commits ? double(Res.Late) / Commits : 0,
          "ratio");

  // The commit path, split: the same edits replayed through a public
  // DynamicCfg + IncrementalPst, then the server's materialize and freeze
  // steps on the edited functions.
  std::map<uint64_t, std::pair<std::unique_ptr<DynamicCfg>,
                               std::unique_ptr<IncrementalPst>>>
      Replay;
  std::vector<double> IncUs;
  for (size_t I = 0; I < std::min(ReplayedEdits, Res.EditLog.size()); ++I) {
    const Edit &E = Res.EditLog[I];
    auto &W = Replay[E.Fn];
    if (!W.first) {
      W.first = std::make_unique<DynamicCfg>(Img.materializeCfg(E.Fn));
      W.second = std::make_unique<IncrementalPst>(*W.first);
    }
    Clock::time_point T0 = Clock::now();
    (void)W.second->addBlock(E.Src, E.Dst);
    W.second->commit();
    IncUs.push_back(double(nsBetween(T0, Clock::now())) / 1e3);
  }
  uint64_t Reprocessed = 0, Full = 0;
  for (const auto &[Fn, W] : Replay) {
    Reprocessed += W.second->stats().NodesReprocessed;
    Full += W.second->stats().FullRecomputeNodes;
  }
  std::set<uint64_t> Edited;
  for (const Edit &E : Res.EditLog)
    if (Edited.size() < MaterializedFunctions)
      Edited.insert(E.Fn);
  std::vector<double> MatUs, FreezeUs;
  for (uint64_t Fn : Edited) {
    Clock::time_point T0 = Clock::now();
    Cfg G = S.shardOf(Fn).writerGraph(Fn);
    Clock::time_point T1 = Clock::now();
    auto Snap = FunctionSnapshot::freeze(G, Img.functionName(Fn));
    Clock::time_point T2 = Clock::now();
    Sink += Snap->imageBytes().size();
    MatUs.push_back(double(nsBetween(T0, T1)) / 1e3);
    FreezeUs.push_back(double(nsBetween(T1, T2)) / 1e3);
  }
  uint64_t Overlay = 0;
  for (uint32_t K = 0; K < S.numShards(); ++K)
    Overlay += S.shard(K).pin()->Overlay.size();
  R.layer("incremental.commit_us", mean(IncUs), "us");
  R.layer("incremental.reprocess_ratio",
          Full ? double(Reprocessed) / double(Full) : 0, "ratio");
  R.layer("serve.materialize_us", mean(MatUs), "us");
  R.layer("serve.freeze_us", mean(FreezeUs), "us");
  R.layer("serve.commit_residual_us",
          mean(Res.CommitExecUs) - mean(IncUs) - mean(MatUs) - mean(FreezeUs),
          "us");
  R.layer("serve.overlay_entries", double(Overlay), "count");
}

} // namespace

void measureAllLayers(const Options &O, Report &R, const ServeRun *Main) {
  measureKernelLayers(O, R);
  const std::string Path = O.WorkDir + "/layers.img";
  measureImageLayers(O, R, Path);
  if (Main) {
    measureServeLayers(O, R, *Main->Harness, *Main->Result);
  } else {
    ServeHarness H = openServer(Path, O.Seed, /*DerivedCache=*/true,
                                /*Warm=*/true);
    ServeMixResult Res = runServeMix(H, O.Seed, /*Traced=*/true,
                                     MiniServeSeconds);
    checkServeRun(H, Res, Path, O.Seed, R);
    measureServeLayers(O, R, H, Res);
  }
  std::remove(Path.c_str());
  if (Sink == 1)
    std::fprintf(stderr, "perfbench: sink %llu\n",
                 static_cast<unsigned long long>(Sink));
}

} // namespace perfbench
