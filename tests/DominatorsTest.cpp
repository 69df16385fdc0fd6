//===- DominatorsTest.cpp - dominator tree tests ------------------------------===//
//
// Part of the PST library test suite: unit tests on hand-built graphs plus
// property tests cross-checking Lengauer-Tarjan against the iterative
// builder and against a bitvector-dataflow oracle on random CFGs.
//
//===----------------------------------------------------------------------===//

#include "pst/dom/Dominators.h"

#include "pst/dom/ControlDependenceCsr.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/support/BitVector.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

using namespace pst;

namespace {

/// Dominators straight from the definition, as a dataflow fixed point:
/// Dom(entry) = {entry}; Dom(n) = {n} + intersect over preds.
std::vector<BitVector> dominatorSetsOracle(const Cfg &G) {
  uint32_t N = G.numNodes();
  std::vector<BitVector> Dom(N, BitVector(N, true));
  Dom[G.entry()] = BitVector(N);
  Dom[G.entry()].set(G.entry());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId V = 0; V < N; ++V) {
      if (V == G.entry())
        continue;
      BitVector New(N, true);
      for (EdgeId E : G.predEdges(V))
        New.intersectWith(Dom[G.source(E)]);
      New.set(V);
      if (New != Dom[V]) {
        Dom[V] = New;
        Changed = true;
      }
    }
  }
  return Dom;
}

std::vector<NodeId> asVector(std::span<const NodeId> S) {
  return std::vector<NodeId>(S.begin(), S.end());
}

/// The flat layouts of \p T, a dominator tree of \p G (postdominators are
/// dominators of the reversed graph), against their definitions:
/// children(N) is {V : idom(V) == N} ascending, and frontier(N) is every M
/// with a predecessor that N dominates where N does not strictly dominate
/// M, decided by brute force over the dominator-set oracle.
void expectFlatLayoutsMatchDefinitions(const Cfg &G, const DomTree &T,
                                       const std::string &What) {
  FrozenCfg V(G);
  DominanceFrontiers DF(V, T);
  auto Dom = dominatorSetsOracle(G);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    std::vector<NodeId> Kids, Frontier;
    for (NodeId M = 0; M < G.numNodes(); ++M) {
      if (T.idom(M) == N)
        Kids.push_back(M);
      bool DominatesPred = false;
      for (EdgeId E : G.predEdges(M))
        DominatesPred |= Dom[G.source(E)].test(N);
      if (DominatesPred && !(N != M && Dom[M].test(N)))
        Frontier.push_back(M);
    }
    ASSERT_EQ(asVector(T.children(N)), Kids) << What << " node " << N;
    ASSERT_EQ(asVector(DF.frontier(N)), Frontier) << What << " node " << N;
  }
}

void expectTreeMatchesOracle(const Cfg &G, const DomTree &T) {
  auto Dom = dominatorSetsOracle(G);
  for (NodeId A = 0; A < G.numNodes(); ++A)
    for (NodeId B = 0; B < G.numNodes(); ++B)
      EXPECT_EQ(T.dominates(A, B), Dom[B].test(A))
          << "dominates(" << A << ", " << B << ") mismatch";
}

Cfg loopWithIf() {
  // entry -> h; h -> c -> {t, f} -> m -> h (back); h -> exit.
  Cfg G;
  NodeId Entry = G.addNode("entry");
  NodeId H = G.addNode("h");
  NodeId C = G.addNode("c");
  NodeId Tn = G.addNode("t");
  NodeId F = G.addNode("f");
  NodeId M = G.addNode("m");
  NodeId Exit = G.addNode("exit");
  G.addEdge(Entry, H);
  G.addEdge(H, C);
  G.addEdge(C, Tn);
  G.addEdge(C, F);
  G.addEdge(Tn, M);
  G.addEdge(F, M);
  G.addEdge(M, H);
  G.addEdge(H, Exit);
  G.setEntry(Entry);
  G.setExit(Exit);
  return G;
}

} // namespace

TEST(DomTree, DiamondIdoms) {
  Cfg G = diamondLadderCfg(1);
  // entry=0, cond0=1, then0=2, else0=3, join0=4, exit=5.
  DomTree T = DomTree::buildIterative(FrozenCfg(G));
  EXPECT_EQ(T.idom(1), 0u);
  EXPECT_EQ(T.idom(2), 1u);
  EXPECT_EQ(T.idom(3), 1u);
  EXPECT_EQ(T.idom(4), 1u); // Join dominated by the cond, not an arm.
  EXPECT_EQ(T.idom(5), 4u);
  EXPECT_EQ(T.idom(T.root()), InvalidNode);
}

TEST(DomTree, DominatesQueries) {
  Cfg G = loopWithIf();
  DomTree T = DomTree::buildIterative(FrozenCfg(G));
  EXPECT_TRUE(T.dominates(1, 5));        // h dominates m.
  EXPECT_TRUE(T.dominates(2, 5));        // c dominates m.
  EXPECT_FALSE(T.dominates(3, 5));       // t does not dominate m.
  EXPECT_TRUE(T.dominates(4, 4));        // Reflexive.
  EXPECT_FALSE(T.strictlyDominates(4, 4));
  EXPECT_TRUE(T.strictlyDominates(0, 6));
}

TEST(DomTree, LengauerTarjanMatchesIterativeOnClassics) {
  for (const Cfg &G : {diamondLadderCfg(3), nestedWhileCfg(3),
                       nestedRepeatUntilCfg(4), irreducibleCfg(2)}) {
    FrozenCfg V(G);
    DomTree A = DomTree::buildIterative(V);
    DomTree B = DomTree::buildLengauerTarjan(V);
    for (NodeId N = 0; N < G.numNodes(); ++N)
      EXPECT_EQ(A.idom(N), B.idom(N)) << "node " << N;
  }
}

TEST(DomTree, MatchesOracleOnClassics) {
  for (const Cfg &G : {diamondLadderCfg(2), nestedWhileCfg(2),
                       irreducibleCfg(1), loopWithIf()}) {
    FrozenCfg V(G);
    expectTreeMatchesOracle(G, DomTree::buildIterative(V));
    expectTreeMatchesOracle(G, DomTree::buildLengauerTarjan(V));
  }
}

TEST(PostDom, LoopWithIf) {
  Cfg G = loopWithIf();
  DomTree P = DomTree::buildPostDom(FrozenCfg(G));
  EXPECT_EQ(P.root(), G.exit());
  // h postdominates everything except exit... including entry.
  EXPECT_TRUE(P.dominates(1, 0));
  EXPECT_TRUE(P.dominates(5, 2)); // m postdominates c.
  EXPECT_FALSE(P.dominates(3, 2)); // t does not postdominate c.
}

TEST(DominanceFrontiers, Diamond) {
  Cfg G = diamondLadderCfg(1);
  FrozenCfg V(G);
  DomTree T = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, T);
  // Arms' frontier is the join; the cond's is empty (it dominates join).
  EXPECT_EQ(asVector(DF.frontier(2)), (std::vector<NodeId>{4}));
  EXPECT_EQ(asVector(DF.frontier(3)), (std::vector<NodeId>{4}));
  EXPECT_TRUE(DF.frontier(1).empty());
}

TEST(DominanceFrontiers, LoopHeaderInOwnFrontier) {
  Cfg G = nestedWhileCfg(1);
  FrozenCfg V(G);
  DomTree T = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, T);
  // The loop header (node 2, "head0") is a merge reached around the back-
  // edge, so it appears in its own frontier.
  NodeId Head = 2;
  std::span<const NodeId> F = DF.frontier(Head);
  EXPECT_NE(std::find(F.begin(), F.end(), Head), F.end());
}

TEST(DominanceFrontiers, IteratedReachesFixpoint) {
  Cfg G = nestedRepeatUntilCfg(3);
  FrozenCfg V(G);
  DomTree T = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, T);
  // Iterating from a def in the innermost body must be a superset of the
  // plain frontier.
  std::vector<NodeId> Defs{4}; // h2 (inner head).
  auto IDF = DF.iterated(Defs);
  for (NodeId M : DF.frontier(4))
    EXPECT_NE(std::find(IDF.begin(), IDF.end(), M), IDF.end());
}

namespace {

/// The random CFG of DomRandomTest's seed \p Seed.
Cfg domRandomCfg(uint64_t Seed) {
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = 3 + static_cast<uint32_t>(R.nextBelow(15));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  return randomBackboneCfg(R, Opts);
}

/// The iterated frontier by brute force: grow X to DF(Defs + X) until it
/// stops changing, then list it ascending.
std::vector<NodeId> iteratedFixpoint(const DominanceFrontiers &DF,
                                     uint32_t N, std::span<const NodeId> Defs) {
  std::vector<bool> IsDef(N, false), InX(N, false);
  for (NodeId D : Defs)
    IsDef[D] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (NodeId V = 0; V < N; ++V)
      if (IsDef[V] || InX[V])
        for (NodeId M : DF.frontier(V))
          if (!InX[M]) {
            InX[M] = true;
            Changed = true;
          }
  }
  std::vector<NodeId> X;
  for (NodeId V = 0; V < N; ++V)
    if (InX[V])
      X.push_back(V);
  return X;
}

} // namespace

TEST(DominanceFrontiers, ScratchIteratedMatchesFixpoint) {
  // One set of buffers serves every graph, alternating DomRandomTest's
  // random CFGs (3 to 17 nodes) with irreducibleCfg(1..4), so the buffers
  // see graphs grow and shrink: a mark left behind by one call would show
  // up as a missing block in a later one.
  std::vector<NodeId> Result, Work;
  std::vector<uint8_t> Mark;
  Rng DefRng(7);
  size_t Calls = 0;
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    for (const Cfg &G : {domRandomCfg(Seed),
                         irreducibleCfg(1 + static_cast<uint32_t>(Seed % 4))}) {
      FrozenCfg V(G);
      DominanceFrontiers DF(V, DomTree::buildIterative(V));
      const uint32_t N = G.numNodes();
      // Every single def, the empty set, and a few unsorted multisets.
      std::vector<std::vector<NodeId>> DefSets(1);
      for (NodeId D = 0; D < N; ++D)
        DefSets.push_back({D});
      for (int K = 0; K < 6; ++K) {
        std::vector<NodeId> Defs(1 + DefRng.nextBelow(5));
        for (NodeId &D : Defs)
          D = static_cast<NodeId>(DefRng.nextBelow(N));
        DefSets.push_back(Defs);
      }
      for (const std::vector<NodeId> &Defs : DefSets) {
        DF.iterated(Defs, Result, Work, Mark);
        ++Calls;
        const std::vector<NodeId> Expected = iteratedFixpoint(DF, N, Defs);
        ASSERT_EQ(Result, Expected) << "seed " << Seed << ", " << N
                                    << " nodes, " << Defs.size() << " defs";
        ASSERT_EQ(DF.iterated(Defs), Expected) << "seed " << Seed;
        ASSERT_EQ(std::count(Mark.begin(), Mark.end(), 0),
                  static_cast<std::ptrdiff_t>(Mark.size()))
            << "seed " << Seed << ": marks left set";
      }
    }
  }
  EXPECT_GT(Calls, 1000u);
}

TEST(DomScratchTest, ReusedScratchMatchesLengauerTarjan) {
  // One DomScratch serves every graph, in an order that grows and shrinks
  // it: irreducible copies, self-loop- and parallel-edge-heavy random
  // graphs, deep nests, and a view (not a valid CFG) with a node
  // unreachable from entry and one that cannot reach exit. A buffer left
  // stale by a larger graph would show up as a wrong idom, frontier or
  // cdep row in a smaller one.
  std::vector<Cfg> Graphs;
  Rng R(424242);
  for (uint32_t Round = 0; Round < 6; ++Round) {
    Graphs.push_back(irreducibleCfg(1 + (Round * 3) % 5));
    RandomCfgOptions Opts;
    Opts.NumNodes = 3 + static_cast<uint32_t>(R.nextBelow(60));
    Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(80));
    Opts.SelfLoopProb = 0.3;
    Opts.ParallelProb = 0.3;
    Graphs.push_back(randomBackboneCfg(R, Opts));
    Graphs.push_back(Round % 2 ? nestedRepeatUntilCfg(150 + 20 * Round)
                               : nestedWhileCfg(40 + 10 * Round, 2));
    Graphs.push_back(chainCfg(Round));
  }
  Cfg Odd;
  for (int I = 0; I < 5; ++I)
    Odd.addNode("n" + std::to_string(I));
  Odd.addEdge(0, 1);
  Odd.addEdge(1, 3);
  Odd.addEdge(2, 1); // 2 is unreachable from entry.
  Odd.addEdge(1, 4); // 4 cannot reach exit.
  Odd.setEntry(0);
  Odd.setExit(3);
  Graphs.insert(Graphs.begin() + 3, Odd);

  DomScratch S;
  for (size_t I = 0; I < Graphs.size(); ++I) {
    FrozenCfg Frozen(Graphs[I]);
    const CfgView &V = Frozen;
    for (const CfgView &Dir : {V, V.reversed()}) {
      DomTree LT = DomTree::buildLengauerTarjan(Dir);
      std::span<const NodeId> Idom = immediateDominators(Dir, S);
      ASSERT_EQ(Idom.size(), Dir.numNodes()) << "graph " << I;
      for (NodeId N = 0; N < Dir.numNodes(); ++N)
        ASSERT_EQ(Idom[N], LT.idom(N)) << "graph " << I << " node " << N;
    }
    // The fills from the scratch's idoms equal the tree-based ones.
    DominanceFrontiers TreeDf(V, DomTree::buildLengauerTarjan(V));
    DominanceFrontiers KernelDf(V, immediateDominators(V, S), S);
    ControlDependenceCsr TreeCdep(V,
                                  DomTree::buildLengauerTarjan(V.reversed()));
    ControlDependenceCsr KernelCdep(V, immediateDominators(V.reversed(), S),
                                    S);
    ASSERT_EQ(KernelCdep.relationSize(), TreeCdep.relationSize())
        << "graph " << I;
    for (NodeId N = 0; N < V.numNodes(); ++N) {
      ASSERT_EQ(asVector(KernelDf.frontier(N)), asVector(TreeDf.frontier(N)))
          << "graph " << I << " node " << N;
      ASSERT_EQ(asVector(KernelCdep.controllingEdges(N)),
                asVector(TreeCdep.controllingEdges(N)))
          << "graph " << I << " node " << N;
    }
  }
}

// Property sweep: iterative == Lengauer-Tarjan == oracle on random CFGs.
class DomRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DomRandomTest, AllThreeAgree) {
  Cfg G = domRandomCfg(GetParam());
  ASSERT_TRUE(validateCfg(G));

  FrozenCfg V(G);
  DomTree A = DomTree::buildIterative(V);
  DomTree B = DomTree::buildLengauerTarjan(V);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_EQ(A.idom(N), B.idom(N)) << "seed " << GetParam() << " node " << N;
  auto Dom = dominatorSetsOracle(G);
  for (NodeId X = 0; X < G.numNodes(); ++X)
    for (NodeId Y = 0; Y < G.numNodes(); ++Y)
      ASSERT_EQ(A.dominates(X, Y), Dom[Y].test(X))
          << "seed " << GetParam() << " pair " << X << "," << Y;

  // The CSR children and frontiers, here and on one of irreducibleCfg(1..4).
  const std::string Seed = "seed " + std::to_string(GetParam());
  expectFlatLayoutsMatchDefinitions(G, A, Seed + " dom");
  expectFlatLayoutsMatchDefinitions(reverseCfg(G), DomTree::buildPostDom(V),
                                    Seed + " postdom");
  Cfg I = irreducibleCfg(1 + static_cast<uint32_t>(GetParam() % 4));
  FrozenCfg IV(I);
  expectFlatLayoutsMatchDefinitions(I, DomTree::buildIterative(IV),
                                    Seed + " irreducible dom");
  expectFlatLayoutsMatchDefinitions(reverseCfg(I), DomTree::buildPostDom(IV),
                                    Seed + " irreducible postdom");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomRandomTest,
                         ::testing::Range<uint64_t>(0, 60));

// Property sweep: postdominators match the oracle on the reversed graph.
class PostDomRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostDomRandomTest, MatchesReversedOracle) {
  Rng R(GetParam() * 7919 + 13);
  RandomCfgOptions Opts;
  Opts.NumNodes = 3 + static_cast<uint32_t>(R.nextBelow(12));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(15));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  DomTree P = DomTree::buildPostDom(FrozenCfg(G));
  auto Dom = dominatorSetsOracle(reverseCfg(G));
  for (NodeId X = 0; X < G.numNodes(); ++X)
    for (NodeId Y = 0; Y < G.numNodes(); ++Y)
      ASSERT_EQ(P.dominates(X, Y), Dom[Y].test(X))
          << "seed " << GetParam() << " pair " << X << "," << Y;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostDomRandomTest,
                         ::testing::Range<uint64_t>(0, 40));
