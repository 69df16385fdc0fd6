//===- CycleEquivTest.cpp - cycle equivalence tests ----------------------------===//
//
// Part of the PST library test suite: golden tests on hand-built graphs and
// the main property sweep cross-checking the linear-time algorithm of the
// paper's Figure 4 against the Definition-4 brute-force oracle on hundreds
// of random CFGs (with loops, parallel edges, self loops, irreducibility).
//
//===----------------------------------------------------------------------===//

#include "pst/cycleequiv/CycleEquiv.h"

#include "pst/cycleequiv/CycleEquivBrute.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pst;

namespace {

void expectMatchesOracle(const Cfg &G, uint64_t Seed) {
  CycleEquivResult Fast = computeCycleEquivalence(FrozenCfg(G));
  CycleEquivResult Slow = computeCycleEquivalenceBrute(G);
  ASSERT_EQ(Fast.EdgeClass.size(), Slow.EdgeClass.size());
  EXPECT_EQ(canonicalizePartition(Fast.EdgeClass),
            canonicalizePartition(Slow.EdgeClass))
      << "seed " << Seed;
}

/// The partial-T(S) run must partition S's edges as the plain run does.
void expectPartialTsAgrees(const Cfg &G, uint64_t Seed) {
  FrozenCfg V(G);
  CycleEquivScratch S;
  CycleEquivResult Plain = computeCycleEquivalence(V, /*AddReturnEdge=*/true);
  CycleEquivClasses Partial = computeCycleEquivalencePartialTs(V, S);
  EXPECT_EQ(canonicalizePartition(Plain.EdgeClass),
            canonicalizePartition(std::vector<uint32_t>(
                Partial.EdgeClass.begin(), Partial.EdgeClass.end())))
      << "seed " << Seed;
}

// The main property sweep. Each seed builds a random CFG (up to ~18 nodes
// and ~30 edges, with self loops, parallel edges and arbitrary backedges)
// and compares the full partition against the brute-force oracle, and the
// partial-T(S) run's edge partition against the plain run's.
// \p MultiEdgeProb is the chance that an extra edge is a self loop, and
// again that it is a parallel edge.
void checkRandomCfg(uint64_t Seed, double MultiEdgeProb) {
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(17));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(16));
  Opts.SelfLoopProb = MultiEdgeProb;
  Opts.ParallelProb = MultiEdgeProb;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectMatchesOracle(G, Seed);
  expectPartialTsAgrees(G, Seed);
}

} // namespace

TEST(CycleEquiv, ChainIsOneClass) {
  Cfg G = chainCfg(4);
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  // Every edge of a straight chain lies on exactly the one big cycle
  // through the return edge: a single class.
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    EXPECT_EQ(R.classOf(E), R.classOf(0));
  EXPECT_EQ(R.classOf(0), R.returnEdgeClass());
}

TEST(CycleEquiv, DiamondArms) {
  Cfg G = diamondLadderCfg(1);
  // Edges: 0:entry->cond, 1:cond->then, 2:cond->else, 3:then->join,
  // 4:else->join, 5:join->exit.
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  EXPECT_EQ(R.classOf(1), R.classOf(3)); // Then-arm pair.
  EXPECT_EQ(R.classOf(2), R.classOf(4)); // Else-arm pair.
  EXPECT_NE(R.classOf(1), R.classOf(2)); // Arms differ.
  EXPECT_EQ(R.classOf(0), R.classOf(5)); // Spine.
  EXPECT_NE(R.classOf(0), R.classOf(1));
}

TEST(CycleEquiv, SelfLoopIsSingleton) {
  Cfg G;
  NodeId S = G.addNode(), A = G.addNode(), E = G.addNode();
  G.addEdge(S, A);
  EdgeId Loop = G.addEdge(A, A);
  G.addEdge(A, E);
  G.setEntry(S);
  G.setExit(E);
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  for (EdgeId Ed = 0; Ed < R.EdgeClass.size(); ++Ed) {
    if (Ed != Loop) {
      EXPECT_NE(R.classOf(Ed), R.classOf(Loop));
    }
  }
}

TEST(CycleEquiv, ParallelEdgesShareNoClassWithSpine) {
  Cfg G;
  NodeId S = G.addNode(), A = G.addNode(), B = G.addNode(), E = G.addNode();
  G.addEdge(S, A);
  EdgeId P1 = G.addEdge(A, B);
  EdgeId P2 = G.addEdge(A, B);
  G.addEdge(B, E);
  G.setEntry(S);
  G.setExit(E);
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  // The two parallel edges form a cycle containing neither spine edge, so
  // each parallel edge is alone (a cycle can take either copy).
  EXPECT_NE(R.classOf(P1), R.classOf(P2));
  EXPECT_NE(R.classOf(P1), R.classOf(0));
  // And the spine stays equivalent.
  EXPECT_EQ(R.classOf(0), R.classOf(3));
}

TEST(CycleEquiv, WhileLoopStructure) {
  Cfg G = nestedWhileCfg(1); // entry,exit,head0,body0,after0.
  // Edges: 0: entry->head, 1: head->body, 2: body->head, 3: head->after,
  // 4: after->exit.
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  EXPECT_EQ(R.classOf(1), R.classOf(2)); // Body edge pair cycles together.
  EXPECT_EQ(R.classOf(0), R.classOf(3)); // In/out of the loop region.
  EXPECT_EQ(R.classOf(3), R.classOf(4));
  EXPECT_NE(R.classOf(0), R.classOf(1));
}

TEST(CycleEquiv, MatchesOracleOnClassics) {
  for (const Cfg &G :
       {chainCfg(3), diamondLadderCfg(2), nestedWhileCfg(2, 2),
        nestedRepeatUntilCfg(3), irreducibleCfg(2), paperFigure1Cfg()}) {
    expectMatchesOracle(G, 0);
  }
}

TEST(CycleEquiv, PaperFigure1Regions) {
  Cfg G = paperFigure1Cfg();
  CycleEquivResult R = computeCycleEquivalence(FrozenCfg(G));
  // Sequential spine: e0 (start->cond), e5 (join->head), e8 (head->tail),
  // e9 (tail->end) are all equivalent.
  EXPECT_EQ(R.classOf(0), R.classOf(5));
  EXPECT_EQ(R.classOf(5), R.classOf(8));
  EXPECT_EQ(R.classOf(8), R.classOf(9));
  // The two conditional arms are separate classes.
  EXPECT_EQ(R.classOf(1), R.classOf(3));
  EXPECT_EQ(R.classOf(2), R.classOf(4));
  EXPECT_NE(R.classOf(1), R.classOf(2));
  // The loop body pair.
  EXPECT_EQ(R.classOf(6), R.classOf(7));
}

TEST(CycleEquiv, WithoutReturnEdgeOnStronglyConnected) {
  // A simple directed cycle: all edges equivalent.
  Cfg G;
  NodeId A = G.addNode(), B = G.addNode(), C = G.addNode();
  G.addEdge(A, B);
  G.addEdge(B, C);
  G.addEdge(C, A);
  G.setEntry(A);
  G.setExit(C);
  CycleEquivResult R =
      computeCycleEquivalence(FrozenCfg(G), /*AddReturnEdge=*/false);
  EXPECT_FALSE(R.HasReturnEdge);
  EXPECT_EQ(R.EdgeClass.size(), 3u);
  EXPECT_EQ(R.classOf(0), R.classOf(1));
  EXPECT_EQ(R.classOf(1), R.classOf(2));
}

TEST(CycleEquiv, TwoNestedLoopsSeparate) {
  // entry -> a; a -> b -> a (inner); outer backedge around both:
  // entry -> a, a -> b, b -> a, b -> c, c -> a? Use distinct structure:
  Cfg G;
  NodeId S = G.addNode("s"), A = G.addNode("a"), B = G.addNode("b"),
         C = G.addNode("c"), E = G.addNode("e");
  G.addEdge(S, A);   // 0
  G.addEdge(A, B);   // 1
  G.addEdge(B, A);   // 2 inner backedge.
  G.addEdge(B, C);   // 3
  G.addEdge(C, A);   // 4 outer backedge.
  G.addEdge(C, E);   // 5
  G.setEntry(S);
  G.setExit(E);
  expectMatchesOracle(G, 0);
}

class CycleEquivRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CycleEquivRandomTest, MatchesBruteForce) {
  checkRandomCfg(GetParam(), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEquivRandomTest,
                         ::testing::Range<uint64_t>(0, 300));

// The same sweep dense in self loops and parallel edges, where an edge's
// kind cannot be told from its endpoints: a parallel edge to the DFS
// parent is a backedge, not a second tree edge.
class CycleEquivMultiEdgeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CycleEquivMultiEdgeTest, MatchesBruteForce) {
  checkRandomCfg(GetParam(), 0.4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEquivMultiEdgeTest,
                         ::testing::Range<uint64_t>(0, 200));

// Same sweep on forward-only (acyclic-leaning) graphs, which stress the
// sequential-composition chains rather than the loop brackets.
class CycleEquivDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CycleEquivDagTest, MatchesBruteForce) {
  uint64_t Seed = GetParam() + 1000;
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(17));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(16));
  Opts.SelfLoopProb = 0.0;
  Opts.ParallelProb = 0.05;
  Opts.AllowBackEdges = false;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectMatchesOracle(G, Seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEquivDagTest,
                         ::testing::Range<uint64_t>(0, 150));

// Deep DFS trees, which no other test reaches: the DFS keeps its path on a
// heap stack, so depth costs no call stack. Both runs must finish and
// partition S's edges alike; the class counts are pinned.
TEST(CycleEquiv, DeepGraphsFinishOnBothRuns) {
  struct Case {
    const char *Name;
    Cfg G;
    uint32_t PlainClasses, PartialClasses;
  } Cases[] = {
      {"nestedWhile(20000)", nestedWhileCfg(20000), 20001, 40001},
      {"chain(200000)", chainCfg(200000), 1, 1},
  };
  for (const Case &C : Cases) {
    FrozenCfg V(C.G);
    CycleEquivScratch S;
    CycleEquivResult Plain = computeCycleEquivalence(V, true, S);
    CycleEquivClasses Partial = computeCycleEquivalencePartialTs(V, S);
    EXPECT_EQ(canonicalizePartition(Plain.EdgeClass),
              canonicalizePartition(std::vector<uint32_t>(
                  Partial.EdgeClass.begin(), Partial.EdgeClass.end())))
        << C.Name;
    EXPECT_EQ(Plain.NumClasses, C.PlainClasses) << C.Name;
    EXPECT_EQ(Partial.NumClasses, C.PartialClasses) << C.Name;
  }
}
