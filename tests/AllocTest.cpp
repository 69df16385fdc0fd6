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
//
// Nothing is asserted inside a counting window, so the framework's own
// allocations never land in a count.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

namespace {
std::atomic<uint64_t> GAllocs{0};

void *countedAlloc(size_t Size, size_t Align) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  Size = Size ? Size : 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(Size)
                : std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
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
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
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
        T.regionTable(), T.nodeRegionTable(), T.edgeRegionTable(),
        T.entryOfTable(), T.exitOfTable(), T.childOffTable(),
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

} // namespace
