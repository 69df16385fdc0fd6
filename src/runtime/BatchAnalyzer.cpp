//===- BatchAnalyzer.cpp - Parallel corpus analysis ----------------------------===//
//
// Part of the PST library (see BatchAnalyzer.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/runtime/BatchAnalyzer.h"

#include "pst/obs/ScopedTimer.h"

using namespace pst;

FunctionAnalysis pst::analyzeFunction(const Cfg &G, PstScratch &Scratch,
                                      bool ComputeControlRegions) {
  // Freeze the adjacency once (two counting passes into the scratch CSR);
  // both pipeline stages run on the shared view and never consult G again.
  CfgView V = CfgView::build(G, Scratch.View);
  FunctionAnalysis Out;
  if (!ComputeControlRegions) {
    Out.Pst = ProgramStructureTree::build(V, Scratch.PstBuild);
    return Out;
  }
  // One solver run over the partial T(S) gives S's edge classes, which
  // build the PST, and the node classes, which are the control regions
  // (Theorems 7-8). Both stay in the scratch: the tree's buffer and the
  // partition are the call's only allocations.
  CycleEquivScratch &CE = Scratch.PstBuild.CE;
  CycleEquivClasses C;
  {
    PST_SPAN("pst.build");
    C = computeCycleEquivalencePartialTs(V, CE);
    Out.Pst = ProgramStructureTree::buildWithCycleEquiv(V, C.EdgeClass,
                                                        C.NumClasses,
                                                        Scratch.PstBuild);
  }
  PST_SPAN("cdg.control_regions");
  Out.ControlRegions = controlRegionsFromClasses(C, CE);
  return Out;
}

BatchAnalyzer::BatchAnalyzer(BatchOptions Opts)
    : Opts(Opts), Pool(Opts.NumThreads) {
  Scratches.resize(Pool.numWorkers());
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(std::span<const Cfg> Fns) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Fns.size());
  std::vector<FunctionAnalysis> Out(Fns.size());
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             // One span per claimed chunk: in a trace, every worker's track
             // shows the chunks it won off the shared cursor.
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I)
               Out[I] = analyzeFunction(Fns[I], S,
                                        Opts.ComputeControlRegions);
           });
  return Out;
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(const CorpusImage &Img) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Img.numFunctions());
  std::vector<FunctionAnalysis> Out(Img.numFunctions());
  Pool.run(Out.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I) {
               Out[I].Pst = Img.pst(I);
               if (Opts.ComputeControlRegions)
                 Out[I].ControlRegions = computeControlRegionsLinearImplicit(
                     Img.cfg(I), S.PstBuild.CE);
             }
           });
  return Out;
}

std::vector<uint8_t>
BatchAnalyzer::buildImage(std::span<const Cfg> Fns,
                          std::span<const std::string> Names) {
  PST_SPAN("image.build");
  assert((Names.empty() || Names.size() == Fns.size()) &&
         "names must parallel functions");
  CorpusImageBuilder B(Fns.size());
  // Parallel pass 1: per-function views + PSTs; shapes go to distinct
  // slots, the trees are kept for pass 2 (rebuilding a view into warm
  // scratch is cheap; rebuilding the PST is not).
  std::vector<ProgramStructureTree> Trees(Fns.size());
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I) {
               CfgView V = CfgView::build(Fns[I], S.View);
               Trees[I] = ProgramStructureTree::build(V, S.PstBuild);
               B.setShape(I, Fns[I], Trees[I],
                          Names.empty() ? "" : Names[I]);
             }
           });
  // The one serial step: the offset-table fixup pass.
  B.layout();
  // Parallel pass 2: copy into disjoint arena slices.
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I) {
               CfgView V = CfgView::build(Fns[I], S.View);
               B.fill(I, Fns[I], V, Trees[I],
                      Names.empty() ? "" : Names[I]);
             }
           });
  return B.finish();
}

bool BatchAnalyzer::buildImageStream(uint64_t NumFunctions,
                                     const ChunkProducer &Produce,
                                     size_t ChunkFunctions,
                                     const std::string &Path,
                                     std::string *Error) {
  PST_SPAN("image.stream.build");
  if (ChunkFunctions == 0)
    ChunkFunctions = 1;
  StreamImageWriter W(Path, NumFunctions);
  if (!W.valid()) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }

  // Chunk storage is reused across the whole build: the high-water memory
  // mark is one chunk of graphs + names + its staging buffers.
  std::vector<Cfg> Graphs;
  std::vector<std::string> Names;

  // Pass 1: stream shapes in index order. The per-function pipeline (view
  // + PST) fans out across the pool into per-slot shapes; the writer's
  // layout cursor then consumes them serially.
  std::vector<image::FunctionShape> Shapes;
  for (uint64_t Begin = 0; Begin < NumFunctions; Begin += ChunkFunctions) {
    const uint64_t Count =
        std::min<uint64_t>(ChunkFunctions, NumFunctions - Begin);
    Produce(Begin, Count, Graphs, Names);
    assert(Graphs.size() == Count && Names.size() == Count &&
           "producer yielded the wrong chunk size");
    Shapes.resize(Count);
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 CfgView V = CfgView::build(Graphs[I], S.View);
                 ProgramStructureTree T =
                     ProgramStructureTree::build(V, S.PstBuild);
                 Shapes[I] = image::functionShape(Graphs[I], T, Names[I]);
               }
             });
    for (const image::FunctionShape &S : Shapes)
      if (!W.addShape(S, Error))
        return false;
  }
  if (!W.beginFill(Error))
    return false;

  // Pass 2: re-produce every chunk and fill its disjoint file slices. The
  // PST is rebuilt per function (keeping 1M trees would defeat the bounded
  //-memory point); distinct functions of the chunk fill concurrently.
  StreamImageWriter::ChunkScratch CS;
  for (uint64_t Begin = 0; Begin < NumFunctions; Begin += ChunkFunctions) {
    const uint64_t Count =
        std::min<uint64_t>(ChunkFunctions, NumFunctions - Begin);
    Produce(Begin, Count, Graphs, Names);
    assert(Graphs.size() == Count && Names.size() == Count &&
           "producer replayed the wrong chunk size");
    if (!W.beginChunk(CS, Begin, Count, Error))
      return false;
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 CfgView V = CfgView::build(Graphs[I], S.View);
                 ProgramStructureTree T =
                     ProgramStructureTree::build(V, S.PstBuild);
                 W.fill(CS, Begin + I, Graphs[I], V, T, Names[I]);
               }
             });
    if (!W.endChunk(CS, Error))
      return false;
  }
  return W.finish(Error);
}

void BatchAnalyzer::analyzeCorpusStream(const CorpusImage &Img,
                                        const AnalysisSink &Sink,
                                        size_t WindowFunctions) {
  PST_SPAN("batch.corpus.stream");
  PST_COUNTER("batch.stream.corpora", 1);
  PST_COUNTER("batch.stream.functions", Img.numFunctions());
  if (WindowFunctions == 0)
    WindowFunctions = 1;
  const uint64_t N = Img.numFunctions();
  // Window slots are reused: the high-water mark is one window of results,
  // not a corpus-sized vector.
  std::vector<FunctionAnalysis> Window(
      size_t(std::min<uint64_t>(WindowFunctions, N)));
  for (uint64_t Begin = 0; Begin < N; Begin += WindowFunctions) {
    const uint64_t Count = std::min<uint64_t>(WindowFunctions, N - Begin);
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PST_SPAN("batch.chunk");
               PST_COUNTER("batch.stream.chunks", 1);
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 FunctionAnalysis &A = Window[I];
                 A.Pst = Img.pst(Begin + I);
                 if (Opts.ComputeControlRegions)
                   A.ControlRegions = computeControlRegionsLinearImplicit(
                       Img.cfg(Begin + I), S.PstBuild.CE);
                 else
                   A.ControlRegions = ControlRegionsResult();
               }
             });
    for (uint64_t I = 0; I < Count; ++I)
      Sink(Begin + I, Window[I]);
    // Drop the window's mapped pages so a full pass stays at ~one window
    // of resident image bytes.
    Img.release();
  }
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(std::span<const Cfg *const> Fns) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Fns.size());
  std::vector<FunctionAnalysis> Out(Fns.size());
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I)
               Out[I] = analyzeFunction(*Fns[I], S,
                                        Opts.ComputeControlRegions);
           });
  return Out;
}
