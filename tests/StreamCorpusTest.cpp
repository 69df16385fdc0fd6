//===- StreamCorpusTest.cpp - streaming corpus + out-of-core image builds ------===//
//
// Part of the PST library (see pst/workload/CorpusStream.h and
// pst/image/CorpusImage.h for the references).
//
// Coverage for the streaming million-function pipeline:
//  1. Producer determinism: the chunked stream is chunk-oblivious (the
//     same corpus at chunk sizes 1, 7 and 64 byte for byte) and
//     replayable (reset() reproduces the first pass exactly) — the two
//     properties the two-pass out-of-core build depends on.
//  2. Byte identity: the streamed file build reproduces the in-memory
//     buildImage output bit for bit on the 254-procedure paper corpus and
//     on a generated stream corpus, at chunk sizes {1, 7, 1024} and
//     thread counts {1, hardware}.
//  3. Streamed mapped analysis: analyzeCorpusStream over small windows
//     delivers results identical to the materializing analyzeCorpus, in
//     strict function order, with release() leaving the mapping usable.
//  4. verifyImageFile: accepts a good file and rejects payload
//     corruption, truncation and missing files with clear diagnostics —
//     without ever mapping the whole image.
//
//===----------------------------------------------------------------------===//

#include "pst/workload/CorpusStream.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/image/CorpusImage.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace pst;

namespace {

/// The paper corpus as (graph pointer, name) spans for the builders.
struct CorpusHandles {
  std::vector<CorpusFunction> Corpus;
  std::vector<const Cfg *> Graphs;
  std::vector<std::string> Names;

  explicit CorpusHandles(uint64_t Seed) : Corpus(generatePaperCorpus(Seed)) {
    for (const CorpusFunction &C : Corpus) {
      Graphs.push_back(&C.Fn.Graph);
      Names.push_back(C.Fn.Name);
    }
  }
};

/// Structural fingerprint of a CFG (labels, edge lists in id order,
/// entry/exit) — FNV-1a over everything the image stores.
uint64_t cfgFingerprint(const Cfg &G, const std::string &Name) {
  uint64_t H = image::fnv1aUpdate(image::Fnv1aBasis, Name.data(), Name.size());
  auto Mix = [&H](uint64_t V) { H = image::fnv1aUpdate(H, &V, sizeof(V)); };
  Mix(G.numNodes());
  Mix(G.numEdges());
  Mix(G.entry());
  Mix(G.exit());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    const std::string &L = G.node(N).Label;
    H = image::fnv1aUpdate(H, L.data(), L.size());
    for (EdgeId E : G.succEdges(N)) {
      Mix(G.source(E));
      Mix(G.target(E));
    }
  }
  return H;
}

/// Fingerprints of every function of a stream corpus at one chunk size.
std::vector<uint64_t> streamFingerprints(const StreamCorpusOptions &Opts,
                                         size_t ChunkFunctions) {
  std::vector<uint64_t> Out;
  CorpusStream S(Opts, ChunkFunctions);
  CorpusChunk C;
  while (S.next(C)) {
    EXPECT_EQ(C.Begin, Out.size());
    for (size_t K = 0; K < C.size(); ++K)
      Out.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  }
  return Out;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(IS),
                              std::istreambuf_iterator<char>());
}

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 2;
}

//===----------------------------------------------------------------------===//
// Producer determinism
//===----------------------------------------------------------------------===//

TEST(CorpusStream, ChunkObliviousAcrossChunkSizes) {
  StreamCorpusOptions Opts;
  Opts.Count = 64;
  // Isolated regeneration is the reference; every chunking must match it.
  std::vector<uint64_t> Ref;
  Cfg G;
  std::string Name;
  for (uint64_t I = 0; I < Opts.Count; ++I) {
    generateStreamFunction(Opts, I, G, Name);
    Ref.push_back(cfgFingerprint(G, Name));
  }
  for (size_t Chunk : {size_t(1), size_t(7), size_t(64), size_t(4096)})
    EXPECT_EQ(streamFingerprints(Opts, Chunk), Ref) << "chunk " << Chunk;
}

TEST(CorpusStream, ResetReplaysTheStreamExactly) {
  StreamCorpusOptions Opts;
  Opts.Count = 40;
  CorpusStream S(Opts, 9);
  CorpusChunk C;
  std::vector<uint64_t> First;
  while (S.next(C))
    for (size_t K = 0; K < C.size(); ++K)
      First.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  EXPECT_EQ(First.size(), Opts.Count);
  EXPECT_FALSE(S.next(C));
  S.reset();
  std::vector<uint64_t> Second;
  while (S.next(C))
    for (size_t K = 0; K < C.size(); ++K)
      Second.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  EXPECT_EQ(First, Second);
}

TEST(CorpusStream, SeedSelectsTheCorpus) {
  StreamCorpusOptions A, B;
  A.Count = B.Count = 16;
  B.Seed = A.Seed + 1;
  EXPECT_NE(streamFingerprints(A, 8), streamFingerprints(B, 8));
}

//===----------------------------------------------------------------------===//
// Streamed build vs in-memory build: byte identity
//===----------------------------------------------------------------------===//

/// Runs buildImageStream over \p Produce and expects the file to equal
/// \p Expected byte for byte.
void expectStreamBuildMatches(uint64_t NumFunctions,
                              const ChunkProducer &Produce, size_t Chunk,
                              unsigned Threads,
                              const std::vector<uint8_t> &Expected,
                              const char *What) {
  BatchOptions BO;
  BO.NumThreads = Threads;
  BatchAnalyzer A(BO);
  std::string Path = ::testing::TempDir() + "stream_build_" + What + "_" +
                     std::to_string(Chunk) + "_" + std::to_string(Threads) +
                     ".img";
  std::string Error;
  ASSERT_TRUE(A.buildImageStream(NumFunctions, Produce, Chunk, Path, &Error))
      << What << ": " << Error;
  EXPECT_TRUE(verifyImageFile(Path, &Error)) << What << ": " << Error;
  std::vector<uint8_t> Got = readFileBytes(Path);
  std::remove(Path.c_str());
  ASSERT_EQ(Got.size(), Expected.size())
      << What << " chunk " << Chunk << " threads " << Threads;
  ASSERT_TRUE(Got == Expected)
      << What << " chunk " << Chunk << " threads " << Threads
      << ": streamed image diverges from in-memory build";
}

TEST(StreamImageBuild, ByteIdentityOnPaperCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Expected = buildCorpusImage(H.Graphs, H.Names);
  ChunkProducer Produce = [&H](uint64_t Begin, uint64_t Count,
                               std::vector<Cfg> &Graphs,
                               std::vector<std::string> &Names) {
    Graphs.clear();
    Names.clear();
    for (uint64_t K = 0; K < Count; ++K) {
      Graphs.push_back(*H.Graphs[Begin + K]);
      Names.push_back(H.Names[Begin + K]);
    }
  };
  for (size_t Chunk : {size_t(1), size_t(7), size_t(1024)})
    for (unsigned Threads : {1u, hardwareThreads()})
      expectStreamBuildMatches(H.Graphs.size(), Produce, Chunk, Threads,
                               Expected, "paper");
}

TEST(StreamImageBuild, ByteIdentityOnGeneratedStreamCorpus) {
  // The generated corpus (same mix as the gen10k bench corpus), small
  // enough to materialize for the reference build.
  StreamCorpusOptions Opts;
  Opts.Count = 600;
  std::vector<Cfg> All(Opts.Count);
  std::vector<std::string> Names(Opts.Count);
  for (uint64_t I = 0; I < Opts.Count; ++I)
    generateStreamFunction(Opts, I, All[I], Names[I]);
  std::vector<uint8_t> Expected = BatchAnalyzer().buildImage(All, Names);

  ChunkProducer Produce = [&Opts](uint64_t Begin, uint64_t Count,
                                  std::vector<Cfg> &Graphs,
                                  std::vector<std::string> &OutNames) {
    Graphs.resize(Count);
    OutNames.resize(Count);
    for (uint64_t K = 0; K < Count; ++K)
      generateStreamFunction(Opts, Begin + K, Graphs[K], OutNames[K]);
  };
  for (size_t Chunk : {size_t(1), size_t(7), size_t(1024)})
    for (unsigned Threads : {1u, hardwareThreads()})
      expectStreamBuildMatches(Opts.Count, Produce, Chunk, Threads, Expected,
                               "gen");
}

TEST(StreamImageBuild, CorpusStreamIsTheCanonicalProducer) {
  // The pstool/bench wiring: CorpusStream::next as the chunk producer via
  // per-index regeneration must agree with the serial builder too.
  StreamCorpusOptions Opts;
  Opts.Count = 97; // Deliberately not a multiple of any chunk size.
  std::vector<Cfg> All(Opts.Count);
  std::vector<std::string> Names(Opts.Count);
  for (uint64_t I = 0; I < Opts.Count; ++I)
    generateStreamFunction(Opts, I, All[I], Names[I]);
  std::vector<const Cfg *> Ptrs;
  for (const Cfg &G : All)
    Ptrs.push_back(&G);
  std::vector<uint8_t> Expected = buildCorpusImage(Ptrs, Names);

  ChunkProducer Produce = [&Opts](uint64_t Begin, uint64_t Count,
                                  std::vector<Cfg> &Graphs,
                                  std::vector<std::string> &OutNames) {
    Graphs.resize(Count);
    OutNames.resize(Count);
    for (uint64_t K = 0; K < Count; ++K)
      generateStreamFunction(Opts, Begin + K, Graphs[K], OutNames[K]);
  };
  expectStreamBuildMatches(Opts.Count, Produce, 16, 1, Expected, "canon");
}

//===----------------------------------------------------------------------===//
// Streamed mapped analysis
//===----------------------------------------------------------------------===//

TEST(StreamAnalysis, SinkSeesMaterializedResultsInOrder) {
  CorpusHandles H(/*Seed=*/1994);
  BatchAnalyzer A;
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  std::string Path = ::testing::TempDir() + "stream_analysis.img";
  std::string Error;
  ASSERT_TRUE(writeImageFile(Path, Bytes, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  std::vector<FunctionAnalysis> Ref = A.analyzeCorpus(Img);
  ASSERT_EQ(Ref.size(), H.Graphs.size());

  uint64_t NextExpected = 0;
  // A window far smaller than the corpus, so the release()-between-windows
  // path runs many times.
  A.analyzeCorpusStream(
      Img,
      [&](uint64_t Index, const FunctionAnalysis &FA) {
        ASSERT_EQ(Index, NextExpected) << "sink must run in function order";
        ++NextExpected;
        const FunctionAnalysis &R = Ref[Index];
        EXPECT_EQ(FA.Pst.numRegions(), R.Pst.numRegions()) << H.Names[Index];
        ASSERT_EQ(FA.Pst.regionTable().size(), R.Pst.regionTable().size());
        EXPECT_EQ(0, std::memcmp(FA.Pst.regionTable().data(),
                                 R.Pst.regionTable().data(),
                                 R.Pst.regionTable().size_bytes()))
            << H.Names[Index];
        EXPECT_EQ(FA.ControlRegions.NumClasses, R.ControlRegions.NumClasses)
            << H.Names[Index];
        EXPECT_EQ(FA.ControlRegions.NodeClass, R.ControlRegions.NodeClass)
            << H.Names[Index];
      },
      /*WindowFunctions=*/17);
  EXPECT_EQ(NextExpected, H.Graphs.size());

  // The mapping survives the interleaved release() calls: pages fault
  // straight back in from the file.
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  Img.release();
  EXPECT_EQ(Img.functionName(0), H.Names[0]);
  std::remove(Path.c_str());
}

TEST(StreamAnalysis, HonorsComputeControlRegionsOff) {
  CorpusHandles H(/*Seed=*/1994);
  BatchOptions BO;
  BO.ComputeControlRegions = false;
  BatchAnalyzer A(BO);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  CorpusImage Img = CorpusImage::fromBytes(Bytes);
  ASSERT_TRUE(Img.valid());
  uint64_t Seen = 0;
  A.analyzeCorpusStream(
      Img,
      [&](uint64_t, const FunctionAnalysis &FA) {
        ++Seen;
        EXPECT_EQ(FA.ControlRegions.NumClasses, 0u);
        EXPECT_TRUE(FA.ControlRegions.NodeClass.empty());
      },
      /*WindowFunctions=*/64);
  EXPECT_EQ(Seen, H.Graphs.size());
}

//===----------------------------------------------------------------------===//
// verifyImageFile
//===----------------------------------------------------------------------===//

/// Stream-builds a small generated image at \p Path.
void buildSmallImageFile(const std::string &Path) {
  StreamCorpusOptions Opts;
  Opts.Count = 32;
  ChunkProducer Produce = [&Opts](uint64_t Begin, uint64_t Count,
                                  std::vector<Cfg> &Graphs,
                                  std::vector<std::string> &Names) {
    Graphs.resize(Count);
    Names.resize(Count);
    for (uint64_t K = 0; K < Count; ++K)
      generateStreamFunction(Opts, Begin + K, Graphs[K], Names[K]);
  };
  BatchAnalyzer A;
  std::string Error;
  ASSERT_TRUE(A.buildImageStream(Opts.Count, Produce, 8, Path, &Error))
      << Error;
}

TEST(VerifyImageFile, AcceptsAFreshStreamBuild) {
  std::string Path = ::testing::TempDir() + "verify_good.img";
  buildSmallImageFile(Path);
  std::string Error;
  EXPECT_TRUE(verifyImageFile(Path, &Error)) << Error;
  // And the verified file maps and verifies through the mmap path too.
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsPayloadCorruption) {
  std::string Path = ::testing::TempDir() + "verify_corrupt.img";
  buildSmallImageFile(Path);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 1024u);
  // Flip one byte deep in the payload (past header + section table).
  Bytes[Bytes.size() / 2] ^= 0x5a;
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()), Bytes.size());
  OS.close();
  std::string Error;
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsTruncation) {
  std::string Path = ::testing::TempDir() + "verify_trunc.img";
  buildSmallImageFile(Path);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes.resize(Bytes.size() - 64);
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()), Bytes.size());
  OS.close();
  std::string Error;
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsMissingFile) {
  std::string Error;
  EXPECT_FALSE(verifyImageFile(
      ::testing::TempDir() + "no_such_image.img", &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// StreamImageWriter contract checks
//===----------------------------------------------------------------------===//

TEST(StreamImageWriter, RefusesFillBeforeAllShapes) {
  std::string Path = ::testing::TempDir() + "writer_contract.img";
  StreamImageWriter W(Path, /*NumFunctions=*/4);
  ASSERT_TRUE(W.valid());
  Cfg G;
  std::string Name;
  StreamCorpusOptions Opts;
  generateStreamFunction(Opts, 0, G, Name);
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  W.addShape(G, T, Name);
  std::string Error;
  EXPECT_FALSE(W.beginFill(&Error)); // Only 1 of 4 shapes recorded.
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

} // namespace
