//===- CorpusImageTest.cpp - frozen mmap-able corpus images --------------------===//
//
// Part of the PST library (see pst/image/CorpusImage.h for the reference).
//
// Five layers of coverage for the corpus image:
//  1. Round-trip byte identity: build -> decode -> rebuild reproduces the
//     image byte for byte over the full 254-procedure paper corpus, and a
//     file save/mmap cycle preserves every accessor.
//  2. Rejection: truncated files, corrupted payloads, wrong format version,
//     wrong endianness and bad magic all fail with clear error strings —
//     never a crash or a silently wrong analysis.
//  3. Mapped analysis identity: every pipeline stage run on the image's
//     zero-copy views (cycle equivalence, PST queries, control regions,
//     all dominator builders, all four dataflow solvers, phi placement,
//     the region profiler) produces output identical to the in-memory
//     pipeline.
//  4. Derived per-edge maps: regionOfEdge / regionEnteredBy /
//     regionExitedBy, computed from endpoints, agree with the region
//     table and the regions' node sets on built and mapped trees.
//  5. 64-bit layout: the pure offset-table computation is exercised past
//     the 32-bit byte boundary without materializing any arrays.
//
//===----------------------------------------------------------------------===//

#include "pst/image/CorpusImage.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dataflow/Dataflow.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/dom/Dominators.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/prof/RegionProfile.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

#include <cstring>
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

template <class T>
void expectSpanEq(std::span<const T> A, std::span<const T> B,
                  const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  ASSERT_EQ(0, std::memcmp(A.data(), B.data(), A.size_bytes())) << What;
}

//===----------------------------------------------------------------------===//
// Round-trip byte identity
//===----------------------------------------------------------------------===//

TEST(CorpusImage, RoundTripByteIdentityOnFullCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);

  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(Bytes, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  ASSERT_EQ(Img.numFunctions(), H.Graphs.size());

  // Decode every function back to an owned Cfg, then re-encode the whole
  // corpus from the decoded graphs: the result must reproduce the original
  // image byte for byte. This pins CFG materialization (nodes, labels,
  // edge order, entry/exit), name storage, and determinism of the PST
  // rebuild in one golden.
  std::vector<Cfg> Decoded;
  Decoded.reserve(Img.numFunctions());
  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    EXPECT_EQ(Img.functionName(I), H.Names[I]);
    Decoded.push_back(Img.materializeCfg(I));
  }
  std::vector<const Cfg *> DecodedPtrs;
  for (const Cfg &G : Decoded)
    DecodedPtrs.push_back(&G);
  std::vector<uint8_t> Rebuilt = buildCorpusImage(DecodedPtrs, H.Names);
  // Compare the mapped view of the original, not its in-memory buffer, so
  // the comparison also covers what a reader actually sees.
  ASSERT_EQ(Bytes, Rebuilt);
}

TEST(CorpusImage, FileSaveAndMapPreservesEveryAccessor) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);

  std::string Path = ::testing::TempDir() + "corpus_image_test.img";
  std::string Error;
  ASSERT_TRUE(writeImageFile(Path, Bytes, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  ASSERT_EQ(Img.numFunctions(), H.Graphs.size());
  EXPECT_EQ(Img.fileBytes(), Bytes.size());

  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    const Cfg &G = *H.Graphs[I];
    FrozenCfg DV(G);
    ProgramStructureTree Direct = ProgramStructureTree::build(DV);
    ProgramStructureTree Mapped = Img.pst(I);
    EXPECT_TRUE(Mapped.isExternal());
    EXPECT_FALSE(Direct.isExternal());
    expectSpanEq(Direct.regionTable(), Mapped.regionTable(), "regions");
    expectSpanEq(Direct.nodeRegionTable(), Mapped.nodeRegionTable(),
                 "node regions");
    expectSpanEq(Direct.childOffTable(), Mapped.childOffTable(), "child off");
    expectSpanEq(Direct.childValTable(), Mapped.childValTable(), "child val");
    expectSpanEq(Direct.immOffTable(), Mapped.immOffTable(), "imm off");
    expectSpanEq(Direct.immValTable(), Mapped.immValTable(), "imm val");

    CfgView MV = Img.cfg(I);
    ASSERT_EQ(MV.numNodes(), G.numNodes());
    ASSERT_EQ(MV.numEdges(), G.numEdges());
    EXPECT_EQ(MV.entry(), G.entry());
    EXPECT_EQ(MV.exit(), G.exit());
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_TRUE(std::ranges::equal(MV.succEdges(N), G.succEdges(N)))
          << H.Names[I] << " node " << N;
      ASSERT_TRUE(std::ranges::equal(MV.predEdges(N), G.predEdges(N)))
          << H.Names[I] << " node " << N;
    }
    // The per-edge maps are derived from the endpoints, so the mapped tree
    // over the mapped view must answer them as the built one does.
    for (EdgeId E = 0; E < G.numEdges(); ++E) {
      ASSERT_EQ(Mapped.regionOfEdge(MV, E), Direct.regionOfEdge(DV, E))
          << H.Names[I] << " edge " << E;
      ASSERT_EQ(Mapped.regionEnteredBy(MV, E), Direct.regionEnteredBy(DV, E))
          << H.Names[I] << " edge " << E;
      ASSERT_EQ(Mapped.regionExitedBy(MV, E), Direct.regionExitedBy(DV, E))
          << H.Names[I] << " edge " << E;
    }
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Rejection of damaged or foreign images
//===----------------------------------------------------------------------===//

std::vector<uint8_t> smallImage() {
  Cfg G = paperFigure1Cfg();
  const Cfg *P = &G;
  std::string Name = "fig1";
  return buildCorpusImage({&P, 1}, {&Name, 1});
}

void expectRejected(std::vector<uint8_t> Bytes, const std::string &Needle) {
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(Bytes), &Error);
  EXPECT_FALSE(Img.valid());
  EXPECT_NE(Error.find(Needle), std::string::npos)
      << "error was: " << Error << "\nexpected to mention: " << Needle;
}

TEST(CorpusImageRejection, TruncatedFiles) {
  std::vector<uint8_t> Bytes = smallImage();

  // Shorter than the header.
  std::vector<uint8_t> Tiny(Bytes.begin(), Bytes.begin() + 16);
  expectRejected(std::move(Tiny), "truncated");

  // One byte chopped off the end: the header's recorded size disagrees.
  std::vector<uint8_t> Chopped(Bytes.begin(), Bytes.end() - 1);
  expectRejected(std::move(Chopped), "truncated");

  // Cut inside the section payloads.
  std::vector<uint8_t> Half(Bytes.begin(), Bytes.begin() + Bytes.size() / 2);
  expectRejected(std::move(Half), "truncated");
}

TEST(CorpusImageRejection, WrongVersionWrongEndiannessBadMagic) {
  std::vector<uint8_t> Bytes = smallImage();

  // Header field offsets are part of the format: magic at 0, version at 8,
  // endian tag at 12.
  std::vector<uint8_t> V = Bytes;
  uint32_t BadVersion = image::FormatVersion + 7;
  std::memcpy(V.data() + 8, &BadVersion, 4);
  expectRejected(std::move(V), "format version " + std::to_string(BadVersion) +
                                   " (this reader understands version " +
                                   std::to_string(image::FormatVersion) + ")");

  std::vector<uint8_t> E = Bytes;
  uint32_t Swapped = 0x04030201;
  std::memcpy(E.data() + 12, &Swapped, 4);
  expectRejected(std::move(E), "endianness");

  // The diagnostics name this reader's magic and version, not a stale one.
  const std::string CurrentMagic(image::Magic, sizeof(image::Magic));
  std::vector<uint8_t> M = Bytes;
  M[0] = 'X';
  expectRejected(std::move(M), "bad magic (expected \"" + CurrentMagic + "\")");

  // Section count at offset 32 (after FileBytes and NumFunctions).
  std::vector<uint8_t> S = Bytes;
  uint32_t BadCount = image::NumSections + 3;
  std::memcpy(S.data() + 32, &BadCount, 4);
  expectRejected(std::move(S),
                 std::to_string(BadCount) + " sections; format version " +
                     std::to_string(image::FormatVersion) + " defines " +
                     std::to_string(image::NumSections));
}

// A version-1 image (three more per-edge PST sections, magic "PSTIMG01")
// is rejected with a diagnostic by both the mapper and the streaming
// verifier.
TEST(CorpusImageRejection, VersionOneImage) {
  ASSERT_EQ(image::FormatVersion, 2u);
  ASSERT_EQ(image::NumSections, 17u);
  std::vector<uint8_t> Bytes = smallImage();
  std::memcpy(Bytes.data(), "PSTIMG01", 8);
  uint32_t One = 1, TwentySections = 20;
  std::memcpy(Bytes.data() + 8, &One, 4);
  std::memcpy(Bytes.data() + 32, &TwentySections, 4);
  const std::string Needle = "bad magic (expected \"" +
                             std::string(image::Magic, sizeof(image::Magic)) +
                             "\")";
  expectRejected(Bytes, Needle);

  std::string Path = ::testing::TempDir() + "corpus_image_v1.img";
  std::string Error;
  ASSERT_TRUE(writeImageFile(Path, Bytes, &Error)) << Error;
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(CorpusImageRejection, CorruptedPayloadFailsVerifyWithSectionName) {
  std::vector<uint8_t> Bytes = smallImage();
  std::string Error;
  {
    CorpusImage Img = CorpusImage::fromBytes(Bytes, &Error);
    ASSERT_TRUE(Img.valid()) << Error;
    ASSERT_TRUE(Img.verify(&Error)) << Error;
  }

  // Flip one byte in every section payload in turn; verify() must fail
  // and name that section.
  for (uint32_t K = 0; K < image::NumSections; ++K) {
    CorpusImage Clean = CorpusImage::fromBytes(Bytes, &Error);
    ASSERT_TRUE(Clean.valid());
    const image::SectionDesc &D = Clean.section(K);
    if (D.Bytes == 0)
      continue;
    std::vector<uint8_t> Bad = Bytes;
    Bad[D.Offset] ^= 0x5a;
    CorpusImage Img = CorpusImage::fromBytes(std::move(Bad), &Error);
    // Structural validation may itself reject the flip (e.g. a corrupted
    // function table); when it does, the diagnostic already points at the
    // damage. Otherwise verify() must catch it.
    if (!Img.valid())
      continue;
    EXPECT_FALSE(Img.verify(&Error));
    EXPECT_NE(Error.find("checksum mismatch"), std::string::npos) << Error;
    EXPECT_NE(Error.find(image::sectionName(image::SectionKind(K))),
              std::string::npos)
        << Error;
  }
}

TEST(CorpusImageRejection, MapOfMissingFileFails) {
  std::string Error;
  CorpusImage Img =
      CorpusImage::map(::testing::TempDir() + "does_not_exist.img", &Error);
  EXPECT_FALSE(Img.valid());
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Mapped analysis == in-memory pipeline
//===----------------------------------------------------------------------===//

TEST(CorpusImageByteIdentity, MappedAnalysisMatchesInMemoryOnFullCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  std::string Path = ::testing::TempDir() + "corpus_image_analysis.img";
  std::string Error;
  ASSERT_TRUE(writeImageFile(Path, Bytes, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  CycleEquivScratch CES;
  ControlRegionsScratch CRS;

  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    const CorpusFunction &C = H.Corpus[I];
    const Cfg &G = C.Fn.Graph;
    CfgView MV = Img.cfg(I);
    ProgramStructureTree MT = Img.pst(I);

    // Cycle equivalence on the mapped CSR arrays.
    FrozenCfg V(G);
    CycleEquivResult CeL = computeCycleEquivalence(V);
    CycleEquivResult CeM =
        computeCycleEquivalence(MV, /*AddReturnEdge=*/true, CES);
    ASSERT_EQ(CeL.EdgeClass, CeM.EdgeClass) << C.Fn.Name;

    // PST queries through the printer (exercises children, immediateNodes,
    // regionOfNode, depths and entry/exit edges in one golden).
    ProgramStructureTree TL = ProgramStructureTree::build(V);
    ASSERT_EQ(formatPst(G, TL), formatPst(G, MT)) << C.Fn.Name;

    // Control regions over the mapped view.
    ControlRegionsResult CrL = computeControlRegionsLinearImplicit(V);
    ControlRegionsResult CrM = computeControlRegionsLinearImplicit(MV, CRS);
    ASSERT_EQ(CrL.NodeClass, CrM.NodeClass) << C.Fn.Name;

    // Every dominator builder, including the one that consumes the PST.
    DomTree DL = DomTree::buildIterative(V);
    DomTree DM = DomTree::buildIterative(MV);
    DomTree PL = DomTree::buildPostDom(V);
    DomTree PM = DomTree::buildPostDom(MV);
    DomTree LL = DomTree::buildLengauerTarjan(V);
    DomTree LM = DomTree::buildLengauerTarjan(MV);
    DomTree QL = buildDominatorsViaPst(V, TL);
    DomTree QM = buildDominatorsViaPst(MV, MT);
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_EQ(DL.idom(N), DM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(PL.idom(N), PM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(LL.idom(N), LM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(QL.idom(N), QM.idom(N)) << C.Fn.Name << " node " << N;
    }

    // All four dataflow solvers.
    BitVectorProblem P = makeReachingDefs(C.Fn);
    ASSERT_EQ(solveIterative(V, P), solveIterative(MV, P)) << C.Fn.Name;
    ASSERT_EQ(solveElimination(V, TL, P), solveElimination(MV, MT, P))
        << C.Fn.Name;
    DominanceFrontiers DF(V, DL);
    ASSERT_EQ(solveOnSeg(V, DF, P), solveOnSeg(MV, DF, P)) << C.Fn.Name;
    auto Keys = expressionKeys(C.Fn);
    if (!Keys.empty()) {
      BitVectorProblem Q = makeSingleExprAvailability(C.Fn, Keys.front());
      ASSERT_EQ(solveOnQpg(V, TL, Q).EdgeValue,
                solveOnQpg(MV, MT, Q).EdgeValue)
          << C.Fn.Name;
    }

    // Phi placement, classic and PST-accelerated.
    ASSERT_EQ(placePhisClassic(C.Fn, V).PhiBlocks,
              placePhisClassic(C.Fn, MV).PhiBlocks)
        << C.Fn.Name;
    ASSERT_EQ(placePhisPst(C.Fn, V, TL).PhiBlocks,
              placePhisPst(C.Fn, MV, MT).PhiBlocks)
        << C.Fn.Name;
  }
  std::remove(Path.c_str());
}

TEST(CorpusImageByteIdentity, RegionProfilerRunsOnMappedPst) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(Bytes), &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  // A slice of the corpus is plenty: the profiler's cost is in the
  // interpreter, and the point here is PST interchangeability, which the
  // whole-corpus test above already pins structurally.
  for (uint64_t I = 0; I < Img.numFunctions(); I += 16) {
    const CorpusFunction &C = H.Corpus[I];
    ProgramStructureTree TL =
        ProgramStructureTree::build(FrozenCfg(C.Fn.Graph));
    ProgramStructureTree MT = Img.pst(I);

    RegionProfile Direct(C.Fn, TL);
    RegionProfile Mapped(C.Fn, MT);
    std::vector<int64_t> Args{5, 3, 2};
    Direct.runAndAdd(Args);
    Mapped.runAndAdd(Args);
    Direct.finalize();
    Mapped.finalize();

    ASSERT_EQ(Direct.numRuns(), Mapped.numRuns()) << C.Fn.Name;
    ASSERT_EQ(Direct.totalWork(), Mapped.totalWork()) << C.Fn.Name;
    ASSERT_EQ(Direct.blockTotals(), Mapped.blockTotals()) << C.Fn.Name;
    ASSERT_EQ(Direct.edgeTotals(), Mapped.edgeTotals()) << C.Fn.Name;
    ASSERT_EQ(Direct.numRegions(), Mapped.numRegions()) << C.Fn.Name;
    for (RegionId R = 0; R < Direct.numRegions(); ++R) {
      const RegionDynamics &A = Direct.dynamics(R);
      const RegionDynamics &B = Mapped.dynamics(R);
      ASSERT_EQ(A.Entries, B.Entries) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.SelfCost, B.SelfCost) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.InclusiveCost, B.InclusiveCost)
          << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.Iterations, B.Iterations) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.SpanPerEntry, B.SpanPerEntry)
          << C.Fn.Name << " region " << R;
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel build and image-based batch analysis
//===----------------------------------------------------------------------===//

TEST(CorpusImageBatch, ParallelBuildByteIdenticalAcrossThreadCounts) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<Cfg> Graphs;
  Graphs.reserve(H.Corpus.size());
  for (const CorpusFunction &C : H.Corpus)
    Graphs.push_back(C.Fn.Graph);

  std::vector<uint8_t> Serial = buildCorpusImage(H.Graphs, H.Names);
  for (unsigned Threads : {1u, 4u}) {
    BatchOptions O;
    O.NumThreads = Threads;
    BatchAnalyzer A(O);
    ASSERT_EQ(A.buildImage(Graphs, H.Names), Serial)
        << Threads << " threads";
  }
}

TEST(CorpusImageBatch, ImageAnalyzeCorpusMatchesDirectPath) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<Cfg> Graphs;
  for (const CorpusFunction &C : H.Corpus)
    Graphs.push_back(C.Fn.Graph);

  BatchOptions O;
  O.NumThreads = 2;
  BatchAnalyzer A(O);
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(A.buildImage(Graphs, H.Names),
                                           &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  std::vector<FunctionAnalysis> Direct = A.analyzeCorpus(Graphs);
  std::vector<FunctionAnalysis> Mapped = A.analyzeCorpus(Img);
  ASSERT_EQ(Direct.size(), Mapped.size());
  for (size_t I = 0; I < Direct.size(); ++I) {
    const Cfg &G = Graphs[I];
    EXPECT_TRUE(Mapped[I].Pst.isExternal());
    ASSERT_EQ(formatPst(G, Direct[I].Pst), formatPst(G, Mapped[I].Pst))
        << H.Names[I];
    ASSERT_EQ(Direct[I].ControlRegions.NodeClass,
              Mapped[I].ControlRegions.NodeClass)
        << H.Names[I];
    ASSERT_EQ(Direct[I].ControlRegions.NumClasses,
              Mapped[I].ControlRegions.NumClasses)
        << H.Names[I];
  }
}

//===----------------------------------------------------------------------===//
// Derived per-edge region maps
//===----------------------------------------------------------------------===//

/// Checks the per-edge accessors of \p T (the PST of the graph \p V views)
/// against the region table and the regions' node sets alone: an edge
/// opens / closes exactly the regions whose entry / exit edge it is, and
/// it lies in the innermost region whose nodes include both endpoints,
/// except that an entry edge lies in the region it opens.
void expectDerivedEdgeMaps(const CfgView &V, const ProgramStructureTree &T,
                           const std::string &Ctx) {
  const uint32_t NumE = V.numEdges();
  std::vector<RegionId> Entered(NumE, InvalidRegion);
  std::vector<RegionId> Exited(NumE, InvalidRegion);
  std::vector<std::vector<bool>> Holds(T.numRegions(),
                                       std::vector<bool>(V.numNodes()));
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    for (NodeId N : T.allNodes(R))
      Holds[R][N] = true;
    if (R == T.root())
      continue;
    ASSERT_EQ(Entered[T.region(R).EntryEdge], InvalidRegion) << Ctx;
    ASSERT_EQ(Exited[T.region(R).ExitEdge], InvalidRegion) << Ctx;
    Entered[T.region(R).EntryEdge] = R;
    Exited[T.region(R).ExitEdge] = R;
  }
  for (EdgeId E = 0; E < NumE; ++E) {
    const NodeId Src = V.source(E), Dst = V.target(E);
    RegionId Innermost = T.root();
    for (RegionId R = 1; R < T.numRegions(); ++R)
      if (Holds[R][Src] && Holds[R][Dst] &&
          T.region(R).Depth > T.region(Innermost).Depth)
        Innermost = R;
    const RegionId Expected =
        Entered[E] != InvalidRegion ? Entered[E] : Innermost;
    EXPECT_EQ(T.regionEnteredBy(V, E), Entered[E]) << Ctx << " edge " << E;
    EXPECT_EQ(T.regionExitedBy(V, E), Exited[E]) << Ctx << " edge " << E;
    EXPECT_EQ(T.regionOfEdge(V, E), Expected) << Ctx << " edge " << E;
  }
}

/// Runs \c expectDerivedEdgeMaps on \p G's built tree and on the same tree
/// adopted from a one-function image, over the image's own view.
void expectDerivedEdgeMapsBuiltAndMapped(const Cfg &G, const std::string &Ctx) {
  ASSERT_TRUE(validateCfg(G)) << Ctx;
  FrozenCfg V(G);
  expectDerivedEdgeMaps(V, ProgramStructureTree::build(V), Ctx + " built");

  const Cfg *P = &G;
  std::string Error;
  CorpusImage Img =
      CorpusImage::fromBytes(buildCorpusImage({&P, 1}), &Error);
  ASSERT_TRUE(Img.valid()) << Ctx << ": " << Error;
  ProgramStructureTree Mapped = Img.pst(0);
  ASSERT_TRUE(Mapped.isExternal());
  expectDerivedEdgeMaps(Img.cfg(0), Mapped, Ctx + " mapped");
}

class DerivedEdgeMapsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DerivedEdgeMapsTest, MatchRegionTableAndNodeSets) {
  const uint64_t Seed = GetParam();
  const std::string Ctx = "seed " + std::to_string(Seed);
  Rng R(Seed * 977 + 3);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(24));

  // Irreducible: many extra edges, backwards ones allowed.
  RandomCfgOptions Irr = Opts;
  Irr.NumExtraEdges = Opts.NumNodes + static_cast<uint32_t>(R.nextBelow(16));
  expectDerivedEdgeMapsBuiltAndMapped(randomBackboneCfg(R, Irr),
                                      Ctx + " irreducible");
  expectDerivedEdgeMapsBuiltAndMapped(irreducibleCfg(1 + Seed % 4),
                                      Ctx + " irreducible triangles");

  // Self-loop-heavy and parallel-edge-heavy.
  RandomCfgOptions Loops = Opts;
  Loops.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Loops.SelfLoopProb = 0.4;
  expectDerivedEdgeMapsBuiltAndMapped(randomBackboneCfg(R, Loops),
                                      Ctx + " self-loop-heavy");
  RandomCfgOptions Parallel = Opts;
  Parallel.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Parallel.ParallelProb = 0.5;
  expectDerivedEdgeMapsBuiltAndMapped(randomBackboneCfg(R, Parallel),
                                      Ctx + " parallel-edge-heavy");

  // Deep nesting: entry edges that open several nested regions' chains
  // and exit edges that close one region and open the next.
  expectDerivedEdgeMapsBuiltAndMapped(
      nestedWhileCfg(1 + Seed % 12, 1 + Seed % 3), Ctx + " nested while");
  expectDerivedEdgeMapsBuiltAndMapped(nestedRepeatUntilCfg(1 + Seed % 10),
                                      Ctx + " nested repeat-until");
  expectDerivedEdgeMapsBuiltAndMapped(diamondLadderCfg(1 + Seed % 6),
                                      Ctx + " diamond ladder");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivedEdgeMapsTest,
                         ::testing::Range<uint64_t>(0, 60));

TEST(DerivedEdgeMaps, PaperCorpusBuiltAndMapped) {
  CorpusHandles H(/*Seed=*/1);
  CorpusImage Img = CorpusImage::fromBytes(buildCorpusImage(H.Graphs));
  ASSERT_TRUE(Img.valid());
  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    FrozenCfg V(*H.Graphs[I]);
    expectDerivedEdgeMaps(V, ProgramStructureTree::build(V), H.Names[I]);
    expectDerivedEdgeMaps(Img.cfg(I), Img.pst(I), H.Names[I] + " mapped");
  }
}

//===----------------------------------------------------------------------===//
// Adopted-tree storage semantics
//===----------------------------------------------------------------------===//

TEST(ProgramStructureTreeStorage, CopySemanticsOwnedAndAdopted) {
  Cfg G = paperFigure1Cfg();
  ProgramStructureTree Owned = ProgramStructureTree::build(FrozenCfg(G));
  ASSERT_FALSE(Owned.isExternal());

  // Copying an owning tree deep-copies: fresh arrays, same content.
  ProgramStructureTree OwnedCopy(Owned);
  EXPECT_FALSE(OwnedCopy.isExternal());
  EXPECT_NE(Owned.regionTable().data(), OwnedCopy.regionTable().data());
  EXPECT_EQ(formatPst(G, Owned), formatPst(G, OwnedCopy));

  // Adopting aliases the owner's arrays; copying the adopted tree keeps
  // aliasing the same external storage.
  ProgramStructureTree Adopted = ProgramStructureTree::adoptExternal(
      Owned.regionTable(), Owned.nodeRegionTable(), Owned.childOffTable(),
      Owned.childValTable(), Owned.immOffTable(), Owned.immValTable());
  EXPECT_TRUE(Adopted.isExternal());
  EXPECT_EQ(Adopted.regionTable().data(), Owned.regionTable().data());
  EXPECT_EQ(formatPst(G, Adopted), formatPst(G, Owned));
  ProgramStructureTree AdoptedCopy(Adopted);
  EXPECT_TRUE(AdoptedCopy.isExternal());
  EXPECT_EQ(AdoptedCopy.regionTable().data(), Owned.regionTable().data());

  // Moving an owning tree transfers the buffers, so reads through the
  // moved-to tree see the original storage.
  const SeseRegion *Before = Owned.regionTable().data();
  ProgramStructureTree Moved(std::move(Owned));
  EXPECT_EQ(Moved.regionTable().data(), Before);
  EXPECT_EQ(formatPst(G, Moved), formatPst(G, OwnedCopy));

  // Copy assignment over an existing tree rebinds too.
  ProgramStructureTree Assigned;
  Assigned = Moved;
  EXPECT_NE(Assigned.regionTable().data(), Moved.regionTable().data());
  EXPECT_EQ(formatPst(G, Assigned), formatPst(G, Moved));
}

//===----------------------------------------------------------------------===//
// 64-bit layout arithmetic
//===----------------------------------------------------------------------===//

TEST(CorpusImageLayout, SectionsAndBasesPastThe32BitBoundary) {
  // Six synthetic giants: ~1.2 G nodes and 2.4 G edges in total, far past
  // what u32 byte offsets could address. Nothing is materialized — the
  // layout pass is pure arithmetic over the shapes.
  image::FunctionShape Big;
  Big.NumNodes = 200'000'000;
  Big.NumEdges = 500'000'000;
  Big.NumRegions = 50'000'000;
  Big.Entry = 0;
  Big.Exit = 1;
  Big.StrBytes = 1'000'000'000;
  std::vector<image::FunctionShape> Shapes(6, Big);

  image::ImageLayout L = image::computeCorpusLayout(Shapes);

  // Every section is 8-byte aligned, in file order, non-overlapping.
  uint64_t PrevEnd = 0;
  for (uint32_t K = 0; K < image::NumSections; ++K) {
    EXPECT_EQ(L.SectionOffset[K] % image::SectionAlign, 0u)
        << image::sectionName(image::SectionKind(K));
    EXPECT_GE(L.SectionOffset[K], PrevEnd)
        << image::sectionName(image::SectionKind(K));
    PrevEnd = L.SectionOffset[K] + L.SectionBytes[K];
  }
  EXPECT_GE(L.FileBytes, PrevEnd);

  // The per-edge arrays alone are 1.6e9 * 6 * 4 bytes each section:
  // comfortably past 2^32.
  EXPECT_GT(L.SectionBytes[uint32_t(image::SectionKind::SuccEdge)],
            uint64_t(1) << 32);
  EXPECT_GT(L.FileBytes, uint64_t(1) << 35);

  // Offset-table fixup: base of function I is the sum over functions
  // before it; element bases themselves cross 2^32 at the tail.
  ASSERT_EQ(L.Funcs.size(), Shapes.size());
  for (size_t I = 0; I < Shapes.size(); ++I) {
    EXPECT_EQ(L.Funcs[I].NodeBase, I * uint64_t(Big.NumNodes));
    EXPECT_EQ(L.Funcs[I].EdgeBase, I * uint64_t(Big.NumEdges));
    EXPECT_EQ(L.Funcs[I].CsrBase, I * (uint64_t(Big.NumNodes) + 1));
    EXPECT_EQ(L.Funcs[I].RegionBase, I * uint64_t(Big.NumRegions));
    EXPECT_EQ(L.Funcs[I].RegionCsrBase, I * (uint64_t(Big.NumRegions) + 1));
    EXPECT_EQ(L.Funcs[I].ChildBase, I * (uint64_t(Big.NumRegions) - 1));
    EXPECT_EQ(L.Funcs[I].NameOff, I * Big.StrBytes);
  }
  EXPECT_GT(L.Funcs.back().EdgeBase, uint64_t(1) << 31);
}

} // namespace
