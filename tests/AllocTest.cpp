//===- AllocTest.cpp - Exact heap-allocation counts of the hot kernels ----===//
//
// Part of the PST library test suite.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable: no other suite links it. Each test warms a
// scratch over the whole paper corpus, then counts the allocations of a
// second pass, function by function:
//
//   analyzeFunction                       2 (the tree's buffer, the
//                                            control-region partition)
//   ProgramStructureTree::build           1 (the tree's buffer)
//   computeControlRegionsLinearImplicit   1 (the partition)
//   copy of a built tree                  1 (the copy's buffer)
//   BodyForest                           11 (its flat buffers and one
//                                            scratch), at any tree size
//
//   DerivedBundle on a warm DomScratch     4 (itself, the idom array and
//                                            the two CSRs)
//   Shard::commit of one edited function   9 (the image bytes, the PST's
//                                            transient buffer, the snapshot,
//                                            its 4-block bundle, the epoch
//                                            and its overlay copy)
//   warm query of any kind                 1 (the response string)
//
// A serving bundle is also gated on what it keeps: a window that records
// each allocation's address and size, and drops it again when it is
// freed, leaves exactly the bundle's live blocks. A bundle keeps all 4 of
// the blocks its build makes, whatever the function's size, and their
// bytes are its Bytes.
//
// A query on a warm QueryScratch makes exactly 1: the response string it
// returns. Every kind, error lines included, and functions whose bundle
// lives in the base cache or in an overlay snapshot alike; the first
// `dom` query on a just-committed function included, since the commit
// built its bundle.
//
// Nothing is asserted inside a counting window, so the framework's own
// allocations never land in a count.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/serve/DerivedCache.h"
#include "pst/serve/PstServer.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"
#include "pst/workload/CorpusStream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace {
std::atomic<uint64_t> GAllocs{0};

/// The live-block window: while GTracking is set, every allocation is
/// recorded and every free of a recorded block removes it. Fixed storage,
/// so the window allocates nothing itself. The tests are single-threaded.
struct LiveBlock {
  void *P;
  size_t Size;
};
constexpr size_t MaxLiveBlocks = 256;
LiveBlock GLive[MaxLiveBlocks];
size_t GNumLive = 0;
bool GTracking = false;
bool GLiveOverflow = false;

void *countedAlloc(size_t Size, size_t Align) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  size_t Bytes = Size ? Size : 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(Bytes)
                : std::aligned_alloc(Align, (Bytes + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  if (GTracking) {
    if (GNumLive < MaxLiveBlocks)
      GLive[GNumLive++] = {P, Size};
    else
      GLiveOverflow = true;
  }
  return P;
}

void countedFree(void *P) {
  if (GTracking)
    for (size_t I = 0; I < GNumLive; ++I)
      if (GLive[I].P == P) {
        GLive[I] = GLive[--GNumLive];
        break;
      }
  std::free(P);
}
} // namespace

void *operator new(size_t Size) { return countedAlloc(Size, 1); }
void *operator new[](size_t Size) { return countedAlloc(Size, 1); }
void *operator new(size_t Size, std::align_val_t A) {
  return countedAlloc(Size, static_cast<size_t>(A));
}
void *operator new[](size_t Size, std::align_val_t A) {
  return countedAlloc(Size, static_cast<size_t>(A));
}
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, size_t) noexcept { countedFree(P); }
void operator delete[](void *P, size_t) noexcept { countedFree(P); }
void operator delete(void *P, std::align_val_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::align_val_t) noexcept { countedFree(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  countedFree(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  countedFree(P);
}

using namespace pst;

namespace {

uint64_t allocs() { return GAllocs.load(std::memory_order_relaxed); }

/// The seeded paper corpus's graphs.
std::vector<Cfg> paperGraphs() {
  std::vector<Cfg> Out;
  for (CorpusFunction &F : generatePaperCorpus(/*Seed=*/1994))
    Out.push_back(std::move(F.Fn.Graph));
  return Out;
}

/// Runs \p Call once per graph to warm its scratch, then once more per
/// graph counting allocations; returns the per-graph counts of that pass.
template <class CallT>
std::vector<uint64_t> warmCounts(const std::vector<Cfg> &Graphs, CallT Call) {
  for (const Cfg &G : Graphs)
    Call(G);
  std::vector<uint64_t> Counts(Graphs.size());
  for (size_t I = 0; I < Graphs.size(); ++I) {
    uint64_t Before = allocs();
    Call(Graphs[I]);
    Counts[I] = allocs() - Before;
  }
  return Counts;
}

void expectEvery(const std::vector<uint64_t> &Counts, uint64_t Expected) {
  ASSERT_FALSE(Counts.empty());
  for (size_t I = 0; I < Counts.size(); ++I)
    EXPECT_EQ(Counts[I], Expected) << "function " << I;
}

TEST(AllocGate, AnalyzeFunctionMakesTwo) {
  std::vector<Cfg> Graphs = paperGraphs();
  PstScratch S;
  expectEvery(warmCounts(Graphs,
                         [&](const Cfg &G) {
                           FunctionAnalysis A = analyzeFunction(G, S);
                           return A.Pst.numRegions();
                         }),
              2);
}

TEST(AllocGate, PstBuildMakesOne) {
  std::vector<Cfg> Graphs = paperGraphs();
  CfgViewScratch VS;
  PstBuildScratch PB;
  expectEvery(warmCounts(Graphs,
                         [&](const Cfg &G) {
                           CfgView V = CfgView::build(G, VS);
                           return ProgramStructureTree::build(V, PB)
                               .numRegions();
                         }),
              1);
}

TEST(AllocGate, ControlRegionsMakeOne) {
  std::vector<Cfg> Graphs = paperGraphs();
  CfgViewScratch VS;
  ControlRegionsScratch CR;
  expectEvery(warmCounts(Graphs,
                         [&](const Cfg &G) {
                           CfgView V = CfgView::build(G, VS);
                           return computeControlRegionsLinearImplicit(V, CR)
                               .NumClasses;
                         }),
              1);
}

TEST(AllocGate, CopyOfBuiltTreeMakesOneAndAdoptedCopyNone) {
  std::vector<Cfg> Graphs = paperGraphs();
  std::vector<ProgramStructureTree> Trees;
  for (const Cfg &G : Graphs)
    Trees.push_back(ProgramStructureTree::build(FrozenCfg(G)));
  std::vector<uint64_t> Copy(Trees.size()), Moves(Trees.size()),
      Adopted(Trees.size());
  for (size_t I = 0; I < Trees.size(); ++I) {
    const ProgramStructureTree &T = Trees[I];
    ProgramStructureTree View = ProgramStructureTree::adoptExternal(
        T.regionTable(), T.nodeRegionTable(), T.childOffTable(),
        T.childValTable(), T.immOffTable(), T.immValTable());
    uint64_t A0 = allocs();
    ProgramStructureTree C(T);
    uint64_t A1 = allocs();
    ProgramStructureTree M(std::move(C));
    uint64_t A2 = allocs();
    ProgramStructureTree VC(View);
    uint64_t A3 = allocs();
    Copy[I] = A1 - A0;
    Moves[I] = A2 - A1;
    Adopted[I] = A3 - A2;
    // The copy owns its own buffer with the same contents.
    EXPECT_NE(M.regionTable().data(), T.regionTable().data());
    EXPECT_TRUE(std::equal(M.immValTable().begin(), M.immValTable().end(),
                           T.immValTable().begin(), T.immValTable().end()));
    EXPECT_EQ(VC.regionTable().data(), T.regionTable().data());
  }
  expectEvery(Copy, 1);
  expectEvery(Moves, 0);
  expectEvery(Adopted, 0);
}

TEST(AllocGate, BodyForestMakesFixedBlocks) {
  // A two-region tree (the root and one block) and a tree of 301 nested
  // regions build their forests in the same, fixed number of blocks.
  std::vector<uint64_t> Counts, Regions;
  for (const Cfg &G : {chainCfg(1), nestedRepeatUntilCfg(300)}) {
    FrozenCfg V(G);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    Regions.push_back(T.numRegions());
    uint64_t Before = allocs();
    BodyForest F(V, T);
    Counts.push_back(allocs() - Before);
  }
  EXPECT_EQ(Regions, (std::vector<uint64_t>{2, 301}));
  expectEvery(Counts, 11);
}

/// The paper corpus plus a sample of the stream corpus serving runs on.
std::vector<Cfg> paperAndStreamGraphs() {
  std::vector<Cfg> Graphs = paperGraphs();
  StreamCorpusOptions Stream;
  std::string Name;
  for (uint64_t I = 0; I < 1000; ++I) {
    Cfg G;
    generateStreamFunction(Stream, I, G, Name);
    Graphs.push_back(std::move(G));
  }
  return Graphs;
}

/// A memory-backed image of \p Graphs, function I named "fn_I".
CorpusImage imageOf(const std::vector<Cfg> &Graphs) {
  std::vector<const Cfg *> Ptrs;
  std::vector<std::string> Names;
  for (size_t I = 0; I < Graphs.size(); ++I) {
    Ptrs.push_back(&Graphs[I]);
    Names.push_back("fn_" + std::to_string(I));
  }
  std::string Error;
  CorpusImage Img =
      CorpusImage::fromBytes(buildCorpusImage(Ptrs, Names), &Error);
  EXPECT_TRUE(Img.valid()) << Error;
  return Img;
}

TEST(AllocGate, BundleRetainsFixedBlockCount) {
  std::vector<Cfg> Graphs = paperAndStreamGraphs();

  std::vector<uint64_t> Blocks(Graphs.size());
  for (size_t I = 0; I < Graphs.size(); ++I) {
    FrozenCfg V(Graphs[I]);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    GNumLive = 0;
    GTracking = true;
    auto B = std::make_unique<serve::DerivedBundle>(V, T);
    GTracking = false;
    Blocks[I] = GNumLive;
    ASSERT_FALSE(GLiveOverflow) << "function " << I;

    // Bytes is exactly the live blocks, and exactly the owned arrays.
    size_t LiveBytes = 0;
    for (size_t K = 0; K < GNumLive; ++K)
      LiveBytes += GLive[K].Size;
    EXPECT_EQ(B->Bytes, LiveBytes) << "function " << I;
    const uint32_t N = V.view().numNodes();
    size_t Frontiers = 0;
    for (NodeId M = 0; M < N; ++M)
      Frontiers += B->Df.frontier(M).size();
    EXPECT_EQ(B->Bytes, sizeof(serve::DerivedBundle) +
                            sizeof(uint32_t) * (B->Idom.size() + (N + 1) +
                                                Frontiers + (N + 1) +
                                                B->Cdep.relationSize()))
        << "function " << I;
  }
  expectEvery(Blocks, 4);
}

TEST(AllocGate, BundleBuildMakesOnlyWhatItKeeps) {
  std::vector<Cfg> Graphs = paperAndStreamGraphs();
  std::vector<FrozenCfg> Views;
  for (const Cfg &G : Graphs)
    Views.emplace_back(G);
  DomScratch S;
  for (const FrozenCfg &V : Views)
    serve::DerivedBundle(V, S);
  std::vector<uint64_t> Counts(Views.size());
  for (size_t I = 0; I < Views.size(); ++I) {
    uint64_t Before = allocs();
    auto B = std::make_unique<serve::DerivedBundle>(Views[I], S);
    Counts[I] = allocs() - Before;
  }
  expectEvery(Counts, 4);
}

TEST(AllocGate, CommitMakesOnlyWhatItPublishes) {
  // Function 0 is a ladder larger in nodes, edges and regions than any
  // other function after two edits; committing it first warms the shard's
  // scratch for all of them. Every other function is then edited and
  // committed once, so it is in the overlay, and the counted pass edits
  // and commits each again: one addBlock beside the entry's first edge.
  std::vector<Cfg> Graphs = paperAndStreamGraphs();
  Graphs.insert(Graphs.begin(), diamondLadderCfg(400));
  std::vector<uint32_t> Regions;
  for (const Cfg &G : Graphs)
    Regions.push_back(ProgramStructureTree::build(FrozenCfg(G)).numRegions());
  for (size_t I = 1; I < Graphs.size(); ++I) {
    ASSERT_GT(Graphs[0].numNodes(), Graphs[I].numNodes() + 2) << I;
    ASSERT_GT(Graphs[0].numEdges(), Graphs[I].numEdges() + 4) << I;
    ASSERT_GT(Regions[0], Regions[I] + 4) << I;
  }
  serve::ServeOptions Opts;
  Opts.NumShards = 1;
  Opts.NumThreads = 1;
  serve::PstServer Server(imageOf(Graphs), Opts);
  serve::Shard &Sh = Server.shard(0);
  auto Edit = [&](uint64_t Fn) {
    const Cfg &G = Graphs[Fn];
    const EdgeId E = G.succEdges(G.entry())[0];
    return Sh.addBlock(Fn, G.source(E), G.target(E)) != InvalidNode;
  };
  for (uint64_t Fn = 0; Fn < Graphs.size(); ++Fn) {
    ASSERT_TRUE(Edit(Fn));
    Sh.commit();
  }

  serve::QueryScratch Sc;
  serve::Request Dom;
  Dom.Kind = serve::RequestKind::Dom;
  Dom.A = 1;
  Dom.Fn = 0;
  (void)Server.execute(Dom, Sc); // Warms the response buffer.
  const uint64_t BuildsBefore = Server.derivedCacheStats().Builds;
  std::vector<uint64_t> Commits, Queries;
  for (uint64_t Fn = 1; Fn < Graphs.size(); ++Fn) {
    ASSERT_TRUE(Edit(Fn));
    uint64_t A0 = allocs();
    Sh.commit();
    uint64_t A1 = allocs();
    Dom.Fn = Fn;
    std::string Out = Server.execute(Dom, Sc);
    uint64_t A2 = allocs();
    Commits.push_back(A1 - A0);
    Queries.push_back(A2 - A1);
    ASSERT_GT(Out.size(), std::string().capacity());
  }
  expectEvery(Commits, 9);
  expectEvery(Queries, 1);
  // One bundle per commit, built by the writer; the queries only hit.
  EXPECT_EQ(Server.derivedCacheStats().Builds - BuildsBefore,
            Graphs.size() - 1);
  std::string Why;
  EXPECT_TRUE(Sh.verifyPublished(&Why)) << Why;
}

TEST(AllocGate, WarmQueryMakesOne) {
  // The paper corpus behind a one-thread server; function 0 is edited and
  // committed first, so its queries resolve to an overlay snapshot.
  std::vector<Cfg> Graphs = paperGraphs();
  serve::ServeOptions Opts;
  Opts.NumThreads = 1;
  serve::PstServer Server(imageOf(Graphs), Opts);
  serve::Shard &Sh0 = Server.shardOf(0);
  const EdgeId E0 = Graphs[0].succEdges(Graphs[0].entry())[0];
  ASSERT_NE(Sh0.addBlock(0, Graphs[0].source(E0), Graphs[0].target(E0)),
            InvalidNode);
  Sh0.commit();

  using serve::RequestKind;
  std::vector<serve::Request> Queries;
  auto Add = [&](RequestKind K, uint64_t Fn, NodeId A = InvalidNode,
                 NodeId B = InvalidNode, std::vector<NodeId> Defs = {}) {
    serve::Request R;
    R.Kind = K;
    R.Fn = Fn;
    R.A = A;
    R.B = B;
    R.Defs = std::move(Defs);
    Queries.push_back(std::move(R));
  };
  for (uint64_t Fn = 0; Fn < Graphs.size(); ++Fn) {
    const NodeId N = Graphs[Fn].numNodes();
    Add(RequestKind::Region, Fn, 0, N - 1);
    Add(RequestKind::Region, Fn, N / 2, N / 3);
    Add(RequestKind::Regions, Fn);
    Add(RequestKind::Cdep, Fn, N / 2);
    Add(RequestKind::Dom, Fn, N - 1);
    Add(RequestKind::Phi, Fn, InvalidNode, InvalidNode, {N - 1, 1, N - 1});
    Add(RequestKind::Phi, Fn, InvalidNode, InvalidNode, {N / 2});
    Add(RequestKind::Name, Fn);
    // The err lines: node out of range for each kind that takes nodes.
    Add(RequestKind::Region, Fn, 0, N + 7);
    Add(RequestKind::Cdep, Fn, N + 7);
    Add(RequestKind::Dom, Fn, N + 7);
    Add(RequestKind::Phi, Fn, InvalidNode, InvalidNode, {0, N + 7});
  }
  Add(RequestKind::Name, Graphs.size());
  Add(RequestKind::Dom, UINT64_MAX, 0);
  Add(RequestKind::Invalid, 0);
  Queries.back().Error = "usage: dom <fn> <node>";
  Add(RequestKind::Invalid, 0);

  serve::QueryScratch Sc;
  for (const serve::Request &R : Queries)
    (void)Server.execute(R, Sc);
  std::vector<uint64_t> Counts(Queries.size());
  std::vector<size_t> Lengths(Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I) {
    uint64_t Before = allocs();
    std::string Out = Server.execute(Queries[I], Sc);
    Counts[I] = allocs() - Before;
    Lengths[I] = Out.size();
  }
  // Every response is past the small-string buffer, so its one allocation
  // is the returned string's own.
  for (size_t Len : Lengths)
    ASSERT_GT(Len, std::string().capacity());
  expectEvery(Counts, 1);
}

} // namespace
