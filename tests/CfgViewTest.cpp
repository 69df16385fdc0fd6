//===- CfgViewTest.cpp - frozen CSR adjacency snapshot -------------------------===//
//
// Part of the PST library (see CfgView.h for the reference).
//
// Two layers of coverage for the shared CSR view (the per-stage outputs of
// every analysis over it are pinned by GoldenDigestTest):
//  1. Construction goldens: a hand-built graph (with a self loop and a
//     parallel edge) pins the exact contents of all eight flat arrays.
//  2. Iteration equivalence: on randomized CFGs every view accessor must
//     reproduce the Cfg accessors element-for-element, reversed() must
//     equal the view of a materialized reverseCfg array for array (and
//     reversing twice must give back the view), and a FrozenCfg's view
//     must survive moves and the death of its source graph.
//
//===----------------------------------------------------------------------===//

#include "pst/graph/CfgView.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pst;

namespace {

template <class T>
std::vector<T> collect(std::span<const T> S) {
  return std::vector<T>(S.begin(), S.end());
}

//===----------------------------------------------------------------------===//
// CSR construction goldens
//===----------------------------------------------------------------------===//

TEST(CfgView, CsrGoldenWithSelfLoopAndParallelEdge) {
  Cfg G;
  for (int I = 0; I < 4; ++I)
    G.addNode();
  G.setEntry(0);
  G.setExit(3);
  G.addEdge(0, 1); // e0
  G.addEdge(0, 2); // e1
  G.addEdge(1, 3); // e2
  G.addEdge(2, 3); // e3
  G.addEdge(1, 1); // e4: self loop
  G.addEdge(0, 2); // e5: parallel to e1

  CfgViewScratch S;
  CfgView V = CfgView::build(G, S);

  EXPECT_EQ(V.numNodes(), 4u);
  EXPECT_EQ(V.numEdges(), 6u);
  EXPECT_EQ(V.entry(), 0u);
  EXPECT_EQ(V.exit(), 3u);

  const std::vector<uint32_t> SuccOff(V.succOff(), V.succOff() + 5);
  const std::vector<uint32_t> PredOff(V.predOff(), V.predOff() + 5);
  EXPECT_EQ(SuccOff, (std::vector<uint32_t>{0, 3, 5, 6, 6}));
  EXPECT_EQ(PredOff, (std::vector<uint32_t>{0, 0, 2, 4, 6}));

  const std::vector<EdgeId> SuccEdge(V.succEdge(), V.succEdge() + 6);
  const std::vector<NodeId> SuccTo(V.succTo(), V.succTo() + 6);
  EXPECT_EQ(SuccEdge, (std::vector<EdgeId>{0, 1, 5, 2, 4, 3}));
  EXPECT_EQ(SuccTo, (std::vector<NodeId>{1, 2, 2, 3, 1, 3}));

  const std::vector<EdgeId> PredEdge(V.predEdge(), V.predEdge() + 6);
  const std::vector<NodeId> PredFrom(V.predFrom(), V.predFrom() + 6);
  EXPECT_EQ(PredEdge, (std::vector<EdgeId>{0, 4, 1, 5, 2, 3}));
  EXPECT_EQ(PredFrom, (std::vector<NodeId>{0, 1, 0, 0, 1, 2}));

  const std::vector<NodeId> Src(V.edgeSrc(), V.edgeSrc() + 6);
  const std::vector<NodeId> Dst(V.edgeDst(), V.edgeDst() + 6);
  EXPECT_EQ(Src, (std::vector<NodeId>{0, 0, 1, 2, 1, 0}));
  EXPECT_EQ(Dst, (std::vector<NodeId>{1, 2, 3, 3, 1, 2}));

  EXPECT_EQ(V.outDegree(0), 3u);
  EXPECT_EQ(V.inDegree(0), 0u);
  EXPECT_EQ(V.outDegree(3), 0u);
  EXPECT_EQ(V.inDegree(3), 2u);
}

TEST(CfgView, ScratchReuseAcrossGraphsOfDifferentSize) {
  CfgViewScratch S;
  Cfg Big = diamondLadderCfg(40);
  CfgView VBig = CfgView::build(Big, S);
  EXPECT_EQ(VBig.numNodes(), Big.numNodes());

  // Rebuilding into the same scratch from a smaller graph must not leak
  // stale rows from the larger one.
  Cfg Small;
  Small.addNode();
  Small.addNode();
  Small.setEntry(0);
  Small.setExit(1);
  Small.addEdge(0, 1);
  CfgView VSmall = CfgView::build(Small, S);
  EXPECT_EQ(VSmall.numNodes(), 2u);
  EXPECT_EQ(VSmall.numEdges(), 1u);
  EXPECT_EQ(collect(VSmall.succEdges(0)), (std::vector<EdgeId>{0}));
  EXPECT_EQ(collect(VSmall.succNodes(0)), (std::vector<NodeId>{1}));
  EXPECT_TRUE(VSmall.succEdges(1).empty());
  EXPECT_EQ(collect(VSmall.predEdges(1)), (std::vector<EdgeId>{0}));
}

//===----------------------------------------------------------------------===//
// Iteration equivalence on randomized CFGs
//===----------------------------------------------------------------------===//

/// Asserts that \p A and \p B expose identical sizes, terminals and flat
/// arrays.
void expectSameArrays(const CfgView &A, const CfgView &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  ASSERT_EQ(A.numEdges(), B.numEdges());
  ASSERT_EQ(A.entry(), B.entry());
  ASSERT_EQ(A.exit(), B.exit());
  uint32_t N = A.numNodes(), E = A.numEdges();
  auto Same = [](const uint32_t *X, const uint32_t *Y, uint32_t Len) {
    return std::vector<uint32_t>(X, X + Len) ==
           std::vector<uint32_t>(Y, Y + Len);
  };
  EXPECT_TRUE(Same(A.succOff(), B.succOff(), N + 1));
  EXPECT_TRUE(Same(A.predOff(), B.predOff(), N + 1));
  EXPECT_TRUE(Same(A.succEdge(), B.succEdge(), E));
  EXPECT_TRUE(Same(A.succTo(), B.succTo(), E));
  EXPECT_TRUE(Same(A.predEdge(), B.predEdge(), E));
  EXPECT_TRUE(Same(A.predFrom(), B.predFrom(), E));
  EXPECT_TRUE(Same(A.edgeSrc(), B.edgeSrc(), E));
  EXPECT_TRUE(Same(A.edgeDst(), B.edgeDst(), E));
}

void expectViewMatchesCfg(const Cfg &G) {
  CfgViewScratch S;
  CfgView V = CfgView::build(G, S);

  ASSERT_EQ(V.numNodes(), G.numNodes());
  ASSERT_EQ(V.numEdges(), G.numEdges());
  ASSERT_EQ(V.entry(), G.entry());
  ASSERT_EQ(V.exit(), G.exit());

  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    ASSERT_EQ(V.source(E), G.source(E)) << "edge " << E;
    ASSERT_EQ(V.target(E), G.target(E)) << "edge " << E;
  }

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_EQ(collect(V.succEdges(N)), G.succEdges(N)) << "node " << N;
    ASSERT_EQ(collect(V.predEdges(N)), G.predEdges(N)) << "node " << N;
    ASSERT_EQ(V.outDegree(N), G.succEdges(N).size()) << "node " << N;
    ASSERT_EQ(V.inDegree(N), G.predEdges(N).size()) << "node " << N;
    // The node arrays are parallel to the edge arrays.
    std::span<const EdgeId> SE = V.succEdges(N);
    std::span<const NodeId> SN = V.succNodes(N);
    for (size_t I = 0; I < SE.size(); ++I)
      ASSERT_EQ(SN[I], G.target(SE[I])) << "node " << N;
    std::span<const EdgeId> PE = V.predEdges(N);
    std::span<const NodeId> PN = V.predNodes(N);
    for (size_t I = 0; I < PE.size(); ++I)
      ASSERT_EQ(PN[I], G.source(PE[I])) << "node " << N;
  }

  // reversed() against the view of a materialized reverseCfg: reverseCfg
  // keeps node and edge ids, so the two must agree array for array.
  FrozenCfg RV(reverseCfg(G));
  expectSameArrays(V.reversed(), RV);
  expectSameArrays(V.reversed().reversed(), V);
}

TEST(CfgView, IterationEquivalenceOnRandomizedCfgs) {
  Rng R(20260807);
  for (int Trial = 0; Trial < 50; ++Trial) {
    RandomCfgOptions O;
    O.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(120));
    O.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(2 * O.NumNodes));
    Cfg G = randomBackboneCfg(R, O);
    expectViewMatchesCfg(G);
  }
}

TEST(CfgView, IterationEquivalenceOnStructuredFamilies) {
  expectViewMatchesCfg(paperFigure1Cfg());
  expectViewMatchesCfg(diamondLadderCfg(17));
  expectViewMatchesCfg(nestedWhileCfg(5, 3));
  expectViewMatchesCfg(nestedRepeatUntilCfg(9));
  expectViewMatchesCfg(irreducibleCfg(3));
}

TEST(CfgView, FrozenCfgOutlivesSourceAndSurvivesMoves) {
  Cfg Ladder = diamondLadderCfg(12);
  CfgViewScratch S;
  CfgView Expected = CfgView::build(Ladder, S);

  auto Freeze = [] {
    Cfg Temp = diamondLadderCfg(12);
    return FrozenCfg(Temp); // The source graph dies here.
  };
  FrozenCfg Moved = Freeze();
  std::vector<FrozenCfg> Many;
  for (int I = 0; I < 8; ++I) // Reallocations move the elements.
    Many.push_back(FrozenCfg(Ladder));
  Many.push_back(std::move(Moved));

  for (const FrozenCfg &F : Many) {
    const CfgView &V = F;
    ASSERT_EQ(V.numNodes(), Expected.numNodes());
    ASSERT_EQ(V.numEdges(), Expected.numEdges());
    ASSERT_EQ(V.entry(), Expected.entry());
    ASSERT_EQ(V.exit(), Expected.exit());
    for (NodeId N = 0; N < V.numNodes(); ++N) {
      ASSERT_EQ(collect(V.succEdges(N)), collect(Expected.succEdges(N)));
      ASSERT_EQ(collect(V.predNodes(N)), collect(Expected.predNodes(N)));
    }
  }
}

} // namespace
