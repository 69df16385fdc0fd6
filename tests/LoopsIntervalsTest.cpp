//===- LoopsIntervalsTest.cpp - loop forest & interval tests -------------------===//
//
// Part of the PST library test suite: natural loop nesting forests and
// Allen-Cocke interval analysis, cross-checked against the T1/T2
// reducibility test and against the PST's loop-region classification.
//
//===----------------------------------------------------------------------===//

#include "pst/dom/LoopInfo.h"
#include "pst/graph/Intervals.h"

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include "CfgOfView.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pst;

//===----------------------------------------------------------------------===//
// LoopInfo
//===----------------------------------------------------------------------===//

TEST(LoopInfo, SingleWhileLoop) {
  Cfg G = nestedWhileCfg(1); // entry 0, exit 1, head 2, body 3, after 4.
  DomTree DT = DomTree::buildIterative(FrozenCfg(G));
  LoopInfo LI(FrozenCfg(G), DT);
  ASSERT_EQ(LI.numLoops(), 1u);
  const auto &L = LI.loop(0);
  EXPECT_EQ(L.Header, 2u);
  EXPECT_EQ(L.Nodes, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(L.Depth, 1u);
  EXPECT_EQ(LI.loopOf(3), 0u);
  EXPECT_EQ(LI.loopOf(0), InvalidLoop);
  EXPECT_EQ(LI.depthOf(3), 1u);
  EXPECT_EQ(LI.depthOf(4), 0u);
  EXPECT_TRUE(LI.irreducibleEdges().empty());
}

TEST(LoopInfo, NestingDepths) {
  Cfg G = nestedWhileCfg(3);
  FrozenCfg V(G);
  DomTree DT = DomTree::buildIterative(V);
  LoopInfo LI(V, DT);
  ASSERT_EQ(LI.numLoops(), 3u);
  uint32_t MaxDepth = 0;
  for (LoopId L = 0; L < LI.numLoops(); ++L)
    MaxDepth = std::max(MaxDepth, LI.loop(L).Depth);
  EXPECT_EQ(MaxDepth, 3u);
  // Every loop except the outermost has a parent.
  uint32_t Roots = 0;
  for (LoopId L = 0; L < LI.numLoops(); ++L)
    Roots += LI.loop(L).Parent == InvalidLoop;
  EXPECT_EQ(Roots, 1u);
}

TEST(LoopInfo, RepeatUntilSharedBody) {
  Cfg G = nestedRepeatUntilCfg(3);
  FrozenCfg V(G);
  DomTree DT = DomTree::buildIterative(V);
  LoopInfo LI(V, DT);
  EXPECT_EQ(LI.numLoops(), 3u);
  EXPECT_TRUE(LI.irreducibleEdges().empty());
}

TEST(LoopInfo, SelfLoop) {
  Cfg G;
  NodeId S = G.addNode(), A = G.addNode(), E = G.addNode();
  G.addEdge(S, A);
  EdgeId Self = G.addEdge(A, A);
  G.addEdge(A, E);
  G.setEntry(S);
  G.setExit(E);
  FrozenCfg V(G);
  DomTree DT = DomTree::buildIterative(V);
  LoopInfo LI(V, DT);
  ASSERT_EQ(LI.numLoops(), 1u);
  EXPECT_EQ(LI.loop(0).Header, A);
  EXPECT_EQ(LI.loop(0).Backedges, (std::vector<EdgeId>{Self}));
  EXPECT_EQ(LI.loop(0).Nodes, (std::vector<NodeId>{A}));
}

TEST(LoopInfo, IrreducibleEdgesDetected) {
  Cfg G = irreducibleCfg(1);
  FrozenCfg V(G);
  DomTree DT = DomTree::buildIterative(V);
  LoopInfo LI(V, DT);
  EXPECT_FALSE(LI.irreducibleEdges().empty());
}

TEST(LoopInfo, AgreesWithPstLoopRegions) {
  // Every region the PST classifies as a loop must contain a natural loop
  // header (for reducible graphs).
  for (const Cfg &G : {nestedWhileCfg(2, 2), nestedRepeatUntilCfg(3)}) {
    FrozenCfg V(G);
    DomTree DT = DomTree::buildIterative(V);
    LoopInfo LI(V, DT);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    BodyForest Bodies(V, T);
    for (RegionId R = 1; R < T.numRegions(); ++R) {
      if (classifyRegion(Bodies.body(R)) != RegionKind::Loop)
        continue;
      bool HasHeader = false;
      for (NodeId N : T.allNodes(R))
        for (LoopId L = 0; L < LI.numLoops(); ++L)
          HasHeader |= LI.loop(L).Header == N;
      EXPECT_TRUE(HasHeader) << "region " << R;
    }
  }
}

//===----------------------------------------------------------------------===//
// Intervals
//===----------------------------------------------------------------------===//

TEST(Intervals, ChainIsOneInterval) {
  Cfg G = chainCfg(4);
  IntervalPartition P = computeIntervals(FrozenCfg(G));
  ASSERT_EQ(P.Intervals.size(), 1u);
  EXPECT_EQ(P.Intervals[0].Header, G.entry());
  EXPECT_EQ(P.Intervals[0].Nodes.size(), G.numNodes());
}

TEST(Intervals, LoopHeaderStartsNewInterval) {
  Cfg G = nestedWhileCfg(1);
  IntervalPartition P = computeIntervals(FrozenCfg(G));
  // entry | head-led interval: the backedge keeps head out of entry's
  // interval.
  EXPECT_GE(P.Intervals.size(), 2u);
  bool HeadIsHeader = false;
  for (const auto &I : P.Intervals)
    HeadIsHeader |= I.Header == 2;
  EXPECT_TRUE(HeadIsHeader);
}

TEST(Intervals, SingleEntryProperty) {
  Rng R(99);
  RandomCfgOptions Opts;
  Opts.NumNodes = 20;
  Opts.NumExtraEdges = 18;
  Cfg G = randomBackboneCfg(R, Opts);
  IntervalPartition P = computeIntervals(FrozenCfg(G));
  // Every node belongs to exactly one interval, and every non-header
  // member has all non-self preds inside its interval.
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_NE(P.IntervalOf[N], UINT32_MAX) << "node " << N;
    const auto &I = P.Intervals[P.IntervalOf[N]];
    if (I.Header == N)
      continue;
    for (EdgeId E : G.predEdges(N)) {
      if (G.source(E) == N)
        continue;
      EXPECT_EQ(P.IntervalOf[G.source(E)], P.IntervalOf[N])
          << "node " << N << " pred " << G.source(E);
    }
  }
}

TEST(Intervals, DerivedGraphShrinksStructured) {
  Cfg G = nestedWhileCfg(2);
  uint32_t Steps = 0;
  Cfg Limit = limitGraph(G, &Steps);
  EXPECT_EQ(Limit.numNodes(), 1u);
  EXPECT_GE(Steps, 1u);
}

TEST(Intervals, ReducibilityAgreesWithT1T2OnClassics) {
  for (const Cfg &G :
       {chainCfg(3), diamondLadderCfg(2), nestedWhileCfg(3),
        nestedRepeatUntilCfg(4), irreducibleCfg(1), irreducibleCfg(3),
        paperFigure1Cfg()}) {
    EXPECT_EQ(isReducibleByIntervals(G), isReducible(FrozenCfg(G)));
  }
}

class IntervalsRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalsRandomTest, ReducibilityAgreesWithT1T2) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 37 + 101);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(22));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(22));
  Opts.SelfLoopProb = 0.1;
  Opts.ParallelProb = 0.1;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  EXPECT_EQ(isReducibleByIntervals(G), isReducible(FrozenCfg(G)))
      << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalsRandomTest,
                         ::testing::Range<uint64_t>(0, 150));

// Theorem 10 via intervals: interval analysis applies inside every SESE
// region of a reducible graph (the paper's point about mixing structural
// and interval solvers under the PST).
class IntervalsTheorem10 : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalsTheorem10, RegionBodiesReduceToOneInterval) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 11 + 7);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(16));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(16));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  FrozenCfg V(G);
  if (!isReducible(V))
    GTEST_SKIP() << "sample is irreducible";
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BodyForest Bodies(V, T);
  for (RegionId Rg = 1; Rg < T.numRegions(); ++Rg) {
    EXPECT_TRUE(isReducibleByIntervals(cfgOfView(Bodies.body(Rg).Graph)))
        << "seed " << Seed << " region " << Rg;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalsTheorem10,
                         ::testing::Range<uint64_t>(0, 60));
