//===- BatchAnalyzerTest.cpp - Determinism of the batch engine -----------------===//
//
// Part of the PST library (see BatchAnalyzer.h for the reference).
//
// The batch engine's contract is byte-identical output regardless of
// thread count, chunk size, and whatever a worker's scratch held before.
// These tests pin that contract by fingerprinting every analysis (full
// PST print + control-region partition) and comparing across schedules,
// against the scratch-less reference path, and across scratch reuse with
// deliberately interleaved CFG sizes (the stale-scratch trap).
//
//===----------------------------------------------------------------------===//

#include "pst/runtime/BatchAnalyzer.h"

#include "pst/core/RegionAnalysis.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace pst;

namespace {

std::string fingerprint(const Cfg &G, const FunctionAnalysis &A) {
  std::ostringstream OS;
  OS << formatPst(G, A.Pst);
  OS << "cr " << A.ControlRegions.NumClasses << ':';
  for (uint32_t C : A.ControlRegions.NodeClass)
    OS << ' ' << C;
  OS << '\n';
  return OS.str();
}

std::vector<std::string> fingerprintAll(std::span<const Cfg> Fns,
                                        const std::vector<FunctionAnalysis> &As) {
  EXPECT_EQ(Fns.size(), As.size());
  std::vector<std::string> Out;
  Out.reserve(As.size());
  for (size_t I = 0; I < As.size(); ++I)
    Out.push_back(fingerprint(Fns[I], As[I]));
  return Out;
}

/// A corpus that deliberately alternates large and tiny CFGs so a scratch
/// that is not fully re-initialized between runs produces wrong answers.
std::vector<Cfg> mixedCorpus() {
  std::vector<Cfg> Out;
  Out.push_back(nestedRepeatUntilCfg(40));
  Out.push_back(chainCfg(1));
  Out.push_back(diamondLadderCfg(60));
  Out.push_back(paperFigure1Cfg());
  Out.push_back(nestedWhileCfg(8, 4));
  Out.push_back(irreducibleCfg(1));
  Out.push_back(irreducibleCfg(25));
  Out.push_back(chainCfg(0));

  Rng R(0x5eed);
  for (int I = 0; I < 60; ++I) {
    RandomCfgOptions O;
    // Alternate big and small random graphs.
    O.NumNodes = (I % 2) ? 3 + static_cast<uint32_t>(R.nextBelow(6))
                         : 40 + static_cast<uint32_t>(R.nextBelow(80));
    O.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(O.NumNodes));
    Out.push_back(randomBackboneCfg(R, O));
  }
  return Out;
}

/// The scratch-less reference pipeline the batch engine must reproduce.
FunctionAnalysis referenceAnalysis(const Cfg &G) {
  FunctionAnalysis A;
  FrozenCfg V(G);
  A.Pst = ProgramStructureTree::build(V);
  A.ControlRegions = computeControlRegionsLinearImplicit(V);
  return A;
}

TEST(BatchAnalyzerTest, MatchesScratchlessReference) {
  std::vector<Cfg> Corpus = mixedCorpus();
  BatchOptions Opts;
  Opts.NumThreads = 2;
  Opts.ChunkSize = 3;
  BatchAnalyzer Engine(Opts);
  std::vector<FunctionAnalysis> Got = Engine.analyzeCorpus(Corpus);
  ASSERT_EQ(Got.size(), Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I)
    EXPECT_EQ(fingerprint(Corpus[I], Got[I]),
              fingerprint(Corpus[I], referenceAnalysis(Corpus[I])))
        << "function " << I;
}

TEST(BatchAnalyzerTest, ByteIdenticalAcrossThreadCounts) {
  std::vector<Cfg> Corpus = mixedCorpus();

  std::vector<std::vector<std::string>> PerThreadCount;
  for (unsigned Threads : {1u, 2u, 8u}) {
    BatchOptions Opts;
    Opts.NumThreads = Threads;
    Opts.ChunkSize = 2; // Force many scheduling decisions.
    BatchAnalyzer Engine(Opts);
    EXPECT_EQ(Engine.numWorkers(), Threads);
    PerThreadCount.push_back(
        fingerprintAll(Corpus, Engine.analyzeCorpus(Corpus)));
  }
  for (size_t I = 0; I < Corpus.size(); ++I) {
    EXPECT_EQ(PerThreadCount[0][I], PerThreadCount[1][I])
        << "1 vs 2 threads, function " << I;
    EXPECT_EQ(PerThreadCount[0][I], PerThreadCount[2][I])
        << "1 vs 8 threads, function " << I;
  }
}

TEST(BatchAnalyzerTest, RepeatedRunsWithScratchReuseAreIdentical) {
  std::vector<Cfg> Corpus = mixedCorpus();
  BatchOptions Opts;
  Opts.NumThreads = 4;
  Opts.ChunkSize = 1; // Each worker's scratch sees many different CFGs.
  BatchAnalyzer Engine(Opts);

  std::vector<std::string> First =
      fingerprintAll(Corpus, Engine.analyzeCorpus(Corpus));

  // Pollute the scratches with a differently-shaped corpus, then re-run.
  std::vector<Cfg> Other;
  Other.push_back(nestedRepeatUntilCfg(100));
  Other.push_back(diamondLadderCfg(200));
  (void)Engine.analyzeCorpus(Other);

  for (int Round = 0; Round < 3; ++Round) {
    std::vector<std::string> Again =
        fingerprintAll(Corpus, Engine.analyzeCorpus(Corpus));
    for (size_t I = 0; I < Corpus.size(); ++I)
      EXPECT_EQ(First[I], Again[I]) << "round " << Round << ", function " << I;
  }
}

TEST(BatchAnalyzerTest, AnalyzeFunctionScratchReuseMatchesFresh) {
  std::vector<Cfg> Corpus = mixedCorpus();
  PstScratch Reused;
  for (const Cfg &G : Corpus) {
    FunctionAnalysis WithReuse = analyzeFunction(G, Reused);
    PstScratch Fresh;
    FunctionAnalysis WithFresh = analyzeFunction(G, Fresh);
    EXPECT_EQ(fingerprint(G, WithReuse), fingerprint(G, WithFresh));
  }
}

TEST(BatchAnalyzerTest, PointerSpanOverloadAgrees) {
  std::vector<Cfg> Corpus = mixedCorpus();
  std::vector<const Cfg *> Ptrs;
  for (const Cfg &G : Corpus)
    Ptrs.push_back(&G);

  BatchAnalyzer Engine(BatchOptions{2, 4, true});
  std::vector<std::string> ByValue =
      fingerprintAll(Corpus, Engine.analyzeCorpus(Corpus));
  std::vector<std::string> ByPointer = fingerprintAll(
      Corpus, Engine.analyzeCorpus(std::span<const Cfg *const>(Ptrs)));
  EXPECT_EQ(ByValue, ByPointer);
}

TEST(BatchAnalyzerTest, EmptyCorpus) {
  BatchAnalyzer Engine(BatchOptions{4, 16, true});
  EXPECT_TRUE(Engine.analyzeCorpus(std::span<const Cfg>{}).empty());
}

TEST(BatchAnalyzerTest, SingleFunction) {
  Cfg G = paperFigure1Cfg();
  BatchAnalyzer Engine(BatchOptions{8, 16, true});
  std::vector<FunctionAnalysis> Got =
      Engine.analyzeCorpus(std::span<const Cfg>(&G, 1));
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(fingerprint(G, Got[0]), fingerprint(G, referenceAnalysis(G)));
}

TEST(BatchAnalyzerTest, ControlRegionsCanBeDisabled) {
  std::vector<Cfg> Corpus = mixedCorpus();
  BatchOptions Opts;
  Opts.NumThreads = 2;
  Opts.ComputeControlRegions = false;
  BatchAnalyzer Engine(Opts);
  std::vector<FunctionAnalysis> Got = Engine.analyzeCorpus(Corpus);
  ASSERT_EQ(Got.size(), Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I) {
    EXPECT_EQ(Got[I].ControlRegions.NumClasses, 0u);
    EXPECT_TRUE(Got[I].ControlRegions.NodeClass.empty());
    EXPECT_EQ(formatPst(Corpus[I], Got[I].Pst),
              formatPst(Corpus[I],
                        ProgramStructureTree::build(FrozenCfg(Corpus[I]))));
  }
}

TEST(BatchAnalyzerTest, PaperCorpusIdenticalAcrossThreadCounts) {
  std::vector<CorpusFunction> Corpus = generatePaperCorpus(1994);
  std::vector<const Cfg *> Ptrs;
  Ptrs.reserve(Corpus.size());
  for (const CorpusFunction &F : Corpus)
    Ptrs.push_back(&F.Fn.Graph);
  std::span<const Cfg *const> Span(Ptrs);

  BatchAnalyzer Serial(BatchOptions{1, 16, true});
  BatchAnalyzer Wide(BatchOptions{8, 4, true});
  std::vector<FunctionAnalysis> A = Serial.analyzeCorpus(Span);
  std::vector<FunctionAnalysis> B = Wide.analyzeCorpus(Span);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(fingerprint(*Ptrs[I], A[I]), fingerprint(*Ptrs[I], B[I]))
        << Corpus[I].Fn.Name;
}

} // namespace
