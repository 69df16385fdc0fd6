//===- PstTest.cpp - program structure tree tests ------------------------------===//
//
// Part of the PST library test suite: golden tests for canonical regions,
// nesting, containment and classification, plus property sweeps comparing
// the full PST pipeline against the Definition-3/5/6 oracle.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"

#include "pst/core/RegionAnalysis.h"
#include "pst/core/SeseOracle.h"
#include "pst/core/StructureMetrics.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace pst;

namespace {

std::set<std::pair<EdgeId, EdgeId>> regionPairs(const ProgramStructureTree &T) {
  std::set<std::pair<EdgeId, EdgeId>> Out;
  for (RegionId R = 1; R < T.numRegions(); ++R)
    Out.insert({T.region(R).EntryEdge, T.region(R).ExitEdge});
  return Out;
}

void expectRegionsMatchOracle(const Cfg &G, uint64_t Seed) {
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  auto Oracle = canonicalRegionsBrute(G);
  std::set<std::pair<EdgeId, EdgeId>> Fast = regionPairs(T);
  std::set<std::pair<EdgeId, EdgeId>> Slow(Oracle.begin(), Oracle.end());
  EXPECT_EQ(Fast, Slow) << "seed " << Seed;
}

void expectNestingMatchesOracle(const Cfg &G, uint64_t Seed) {
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  // For every node, the innermost region per Definition 6 over all
  // canonical regions must be what the PST reports.
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    RegionId Best = T.root();
    uint32_t BestDepth = 0;
    for (RegionId R = 1; R < T.numRegions(); ++R) {
      const SeseRegion &Reg = T.region(R);
      if (nodeInRegionBrute(G, Reg.EntryEdge, Reg.ExitEdge, N) &&
          Reg.Depth > BestDepth) {
        Best = R;
        BestDepth = Reg.Depth;
      }
    }
    EXPECT_EQ(T.regionOfNode(N), Best)
        << "seed " << Seed << " node " << N << " (" << G.nodeName(N) << ")";
  }
  // Parent must be the innermost containing region of the entry node's
  // region among ancestors: check parent containment directly.
  for (RegionId R = 1; R < T.numRegions(); ++R) {
    RegionId P = T.region(R).Parent;
    if (P == T.root())
      continue;
    const SeseRegion &Outer = T.region(P);
    const SeseRegion &Inner = T.region(R);
    // All nodes of Inner must lie in Outer per the oracle.
    for (NodeId N : T.allNodes(R)) {
      EXPECT_TRUE(
          nodeInRegionBrute(G, Outer.EntryEdge, Outer.ExitEdge, N))
          << "seed " << Seed << " region " << R << " node " << N;
      (void)Inner;
    }
  }
}

} // namespace

TEST(Pst, ChainRegions) {
  Cfg G = chainCfg(3); // 4 edges, one class -> 3 sequential regions.
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  EXPECT_EQ(T.numCanonicalRegions(), 3u);
  for (RegionId R = 1; R < T.numRegions(); ++R) {
    EXPECT_EQ(T.region(R).Parent, T.root());
    EXPECT_EQ(T.region(R).Depth, 1u);
  }
}

TEST(Pst, PaperFigure1Structure) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  // Spine class {e0,e5,e8,e9} -> regions (e0,e5) conditional, (e5,e8)
  // loop, (e8,e9) tail. Arms (e1,e3), (e2,e4) nested in the conditional;
  // loop body (e6,e7) nested in the loop.
  auto Pairs = regionPairs(T);
  EXPECT_TRUE(Pairs.count({0, 5}));
  EXPECT_TRUE(Pairs.count({5, 8}));
  EXPECT_TRUE(Pairs.count({8, 9}));
  EXPECT_TRUE(Pairs.count({1, 3}));
  EXPECT_TRUE(Pairs.count({2, 4}));
  EXPECT_TRUE(Pairs.count({6, 7}));
  EXPECT_EQ(T.numCanonicalRegions(), 6u);

  // Nesting: arms under the conditional; body under the loop.
  RegionId Cond = T.regionEnteredBy(V, 0);
  RegionId Loop = T.regionEnteredBy(V, 5);
  RegionId Tail = T.regionEnteredBy(V, 8);
  RegionId ThenArm = T.regionEnteredBy(V, 1);
  RegionId ElseArm = T.regionEnteredBy(V, 2);
  RegionId Body = T.regionEnteredBy(V, 6);
  EXPECT_EQ(T.region(Cond).Parent, T.root());
  EXPECT_EQ(T.region(Loop).Parent, T.root());
  EXPECT_EQ(T.region(Tail).Parent, T.root());
  EXPECT_EQ(T.region(ThenArm).Parent, Cond);
  EXPECT_EQ(T.region(ElseArm).Parent, Cond);
  EXPECT_EQ(T.region(Body).Parent, Loop);
  EXPECT_EQ(T.region(Body).Depth, 2u);
}

TEST(Pst, PaperFigure1Kinds) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BodyForest Bodies(V, T);
  auto KindEnteredBy = [&](EdgeId E) {
    return classifyRegion(Bodies.body(T.regionEnteredBy(V, E)));
  };
  EXPECT_EQ(KindEnteredBy(0), RegionKind::IfThenElse);
  EXPECT_EQ(KindEnteredBy(5), RegionKind::Loop);
  EXPECT_EQ(KindEnteredBy(8), RegionKind::Block);
  EXPECT_EQ(KindEnteredBy(1), RegionKind::Block);
}

TEST(Pst, RegionOfNodeFigure1) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  // start(0) and end(8) sit in the root region; then(2) in the then-arm;
  // head(5)/body(6) in the loop subtree.
  EXPECT_EQ(T.regionOfNode(0), T.root());
  EXPECT_EQ(T.regionOfNode(8), T.root());
  EXPECT_EQ(T.regionOfNode(2), T.regionEnteredBy(V, 1));
  EXPECT_EQ(T.regionOfNode(6), T.regionEnteredBy(V, 6));
  EXPECT_EQ(T.regionOfNode(5), T.regionEnteredBy(V, 5));
}

TEST(Pst, ContainsIsTransitive) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  RegionId Loop = T.regionEnteredBy(V, 5);
  RegionId Body = T.regionEnteredBy(V, 6);
  EXPECT_TRUE(T.contains(T.root(), Body));
  EXPECT_TRUE(T.contains(Loop, Body));
  EXPECT_FALSE(T.contains(Body, Loop));
}

TEST(Pst, DiamondLadderDepths) {
  Cfg G = diamondLadderCfg(3);
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  PstStats S = computePstStats(V, T);
  // 3 diamond regions + 2 arms each + the pre/post chain regions; nesting
  // depth never exceeds 2.
  EXPECT_EQ(S.MaxDepth, 2u);
  EXPECT_TRUE(S.FullyStructured);
}

TEST(Pst, NestedWhileDepthGrows) {
  Cfg G = nestedWhileCfg(4);
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  PstStats S = computePstStats(V, T);
  EXPECT_GE(S.MaxDepth, 4u);
  EXPECT_TRUE(S.FullyStructured);
}

// Deep graphs, as in CycleEquiv.DeepGraphsFinishOnBothRuns: the builder's
// DFS keeps its path on a heap stack. The chain is one class of 200001
// edges, paired into every region. Region count, maximum depth and a
// word-wise FNV-1a digest of the region table and node map are pinned.
TEST(Pst, DeepGraphsBuild) {
  struct Case {
    const char *Name;
    Cfg G;
    uint32_t NumRegions, MaxDepth;
    uint64_t Digest;
  } Cases[] = {
      {"nestedWhile(20000)", nestedWhileCfg(20000), 40002, 20001,
       7503780702419421933ull},
      {"chain(200000)", chainCfg(200000), 200001, 1,
       7134364046766944301ull},
  };
  for (const Case &C : Cases) {
    ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(C.G));
    uint64_t H = 0xcbf29ce484222325ull;
    auto Mix = [&H](uint32_t V) { H = (H ^ V) * 0x100000001b3ull; };
    uint32_t MaxDepth = 0;
    for (RegionId R = 1; R < T.numRegions(); ++R) {
      const SeseRegion &Reg = T.region(R);
      ASSERT_LT(Reg.Parent, R) << C.Name;
      ASSERT_EQ(Reg.Depth, T.region(Reg.Parent).Depth + 1) << C.Name;
      MaxDepth = std::max(MaxDepth, Reg.Depth);
      for (uint32_t V : {Reg.EntryEdge, Reg.ExitEdge, Reg.Parent})
        Mix(V);
    }
    for (RegionId R : T.nodeRegionTable())
      Mix(R);
    EXPECT_EQ(T.numRegions(), C.NumRegions) << C.Name;
    EXPECT_EQ(MaxDepth, C.MaxDepth) << C.Name;
    EXPECT_EQ(H, C.Digest) << C.Name;
  }
}

TEST(Pst, IrreducibleRegionClassified) {
  Cfg G = irreducibleCfg(1);
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  PstStats S = computePstStats(V, T);
  EXPECT_FALSE(S.FullyStructured);
  EXPECT_GT(S.WeightedKind[static_cast<size_t>(
                RegionKind::CyclicUnstructured)],
            0u);
}

TEST(Pst, CollapsedBodyOfRootDiamond) {
  Cfg G = diamondLadderCfg(1);
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BodyForest Bodies(V, T);
  CollapsedBody B = Bodies.body(T.root());
  // Root body: entry, exit, plus collapsed top-level regions.
  EXPECT_GE(B.numNodes(), 3u);
  EXPECT_TRUE(B.isRegion(B.EntryQ) || B.node(B.EntryQ) == G.entry());
}

TEST(Pst, FormatPstMentionsRegions) {
  Cfg G = paperFigure1Cfg();
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  std::string S = formatPst(G, T);
  EXPECT_NE(S.find("procedure"), std::string::npos);
  EXPECT_NE(S.find("if-then-else"), std::string::npos);
  EXPECT_NE(S.find("loop"), std::string::npos);
}

TEST(Pst, MatchesOracleOnClassics) {
  int I = 0;
  for (const Cfg &G :
       {chainCfg(3), diamondLadderCfg(2), nestedWhileCfg(2),
        nestedRepeatUntilCfg(3), irreducibleCfg(1), paperFigure1Cfg()}) {
    expectRegionsMatchOracle(G, 9000 + I);
    expectNestingMatchesOracle(G, 9000 + I);
    ++I;
  }
}

// Property sweep: canonical regions and nesting match the brute-force
// Definition-5/6 oracle on random CFGs.
class PstRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstRandomTest, RegionsAndNestingMatchOracle) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 31 + 5);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(12));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(12));
  Opts.SelfLoopProb = 0.08;
  Opts.ParallelProb = 0.08;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectRegionsMatchOracle(G, Seed);
  expectNestingMatchesOracle(G, Seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstRandomTest,
                         ::testing::Range<uint64_t>(0, 150));

// Structured-program shaped sweep (diamonds/loops composed at random) to
// exercise deep nesting paths.
class PstStructuredTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstStructuredTest, TheoremOneNoPartialOverlap) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 97 + 11);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(20));
  Opts.NumExtraEdges = 2 + static_cast<uint32_t>(R.nextBelow(10));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
  // Theorem 1: the node sets of two canonical regions are disjoint or
  // nested. Verify over the PST's own reported containment.
  for (RegionId A = 1; A < T.numRegions(); ++A) {
    auto NodesA = T.allNodes(A);
    for (RegionId B = A + 1; B < T.numRegions(); ++B) {
      auto NodesB = T.allNodes(B);
      std::vector<NodeId> Inter;
      std::set_intersection(NodesA.begin(), NodesA.end(), NodesB.begin(),
                            NodesB.end(), std::back_inserter(Inter));
      if (Inter.empty())
        continue;
      EXPECT_TRUE(T.contains(A, B) || T.contains(B, A))
          << "seed " << Seed << " regions " << A << "," << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstStructuredTest,
                         ::testing::Range<uint64_t>(0, 80));

//===----------------------------------------------------------------------===//
// Divide-and-conquer dominators (Section 6.3)
//===----------------------------------------------------------------------===//

#include "pst/core/PstDominators.h"
#include "pst/cycleequiv/CycleEquivBrute.h"

namespace {

void expectPstDomMatches(const Cfg &G, uint64_t Seed) {
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  DomTree Ref = DomTree::buildIterative(V);
  DomTree Dc = buildDominatorsViaPst(V, T);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_EQ(Dc.idom(N), Ref.idom(N))
        << "seed " << Seed << " node " << N << " (" << G.nodeName(N) << ")";
}

} // namespace

TEST(PstDominators, MatchesIterativeOnClassics) {
  int I = 0;
  for (const Cfg &G :
       {chainCfg(3), diamondLadderCfg(3), nestedWhileCfg(3, 2),
        nestedRepeatUntilCfg(4), irreducibleCfg(2), paperFigure1Cfg()}) {
    expectPstDomMatches(G, 7000 + I);
    ++I;
  }
}

class PstDomRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstDomRandomTest, MatchesIterativeOnRandomCfgs) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 53 + 29);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(25));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(25));
  Opts.SelfLoopProb = 0.08;
  Opts.ParallelProb = 0.08;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectPstDomMatches(G, Seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstDomRandomTest,
                         ::testing::Range<uint64_t>(0, 120));

//===----------------------------------------------------------------------===//
// Theorem 10: SESE regions of a reducible graph are reducible
//===----------------------------------------------------------------------===//

class Theorem10Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem10Test, RegionBodiesOfReducibleGraphsAreReducible) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 67 + 41);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(20));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  FrozenCfg V(G);
  if (!isReducible(V))
    GTEST_SKIP() << "sample is irreducible";
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BodyForest Bodies(V, T);
  for (RegionId Rg = 1; Rg < T.numRegions(); ++Rg) {
    EXPECT_TRUE(isReducible(Bodies.body(Rg).Graph))
        << "seed " << Seed << " region " << Rg;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem10Test,
                         ::testing::Range<uint64_t>(0, 120));

//===----------------------------------------------------------------------===//
// DFS-order invariance: the partition must not depend on edge insertion
// order (Theorem 6 promises canonical names regardless of traversal).
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds G with each node's successor lists permuted by \p R. Edge ids
/// change; PermOut[newEdge] = oldEdge.
Cfg shuffleEdges(const Cfg &G, Rng &R, std::vector<EdgeId> &PermOut) {
  Cfg H;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    H.addNode(G.node(N).Label);
  std::vector<EdgeId> AllEdges(G.numEdges());
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    AllEdges[E] = E;
  for (size_t I = AllEdges.size(); I > 1; --I)
    std::swap(AllEdges[I - 1], AllEdges[R.nextBelow(I)]);
  PermOut.clear();
  for (EdgeId E : AllEdges) {
    H.addEdge(G.source(E), G.target(E));
    PermOut.push_back(E);
  }
  H.setEntry(G.entry());
  H.setExit(G.exit());
  return H;
}

} // namespace

class CycleEquivOrderInvariance : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CycleEquivOrderInvariance, PartitionIndependentOfEdgeOrder) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 401 + 3);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(16));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(16));
  Opts.SelfLoopProb = 0.05;
  Opts.ParallelProb = 0.05;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));

  CycleEquivResult A = G.numEdges() ? computeCycleEquivalence(FrozenCfg(G))
                                    : CycleEquivResult{};
  std::vector<EdgeId> Perm;
  Cfg H = shuffleEdges(G, R, Perm);
  CycleEquivResult B = computeCycleEquivalence(FrozenCfg(H));

  // Map H's classes back onto G's edge order and compare partitions.
  std::vector<uint32_t> Mapped(G.numEdges() + 1);
  for (EdgeId HE = 0; HE < H.numEdges(); ++HE)
    Mapped[Perm[HE]] = B.classOf(HE);
  Mapped[G.numEdges()] = B.returnEdgeClass();
  EXPECT_EQ(canonicalizePartition(A.EdgeClass),
            canonicalizePartition(Mapped))
      << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEquivOrderInvariance,
                         ::testing::Range<uint64_t>(0, 100));

namespace {

/// Checks the preorder numbering contract on \p T: region R's subtree is
/// exactly the id range [R, R + size), its first child is R + 1, and its
/// children's ids ascend in child (entry-edge traversal) order.
void expectPreorderIds(const ProgramStructureTree &T, const std::string &Ctx) {
  std::vector<uint32_t> Size(T.numRegions(), 1);
  for (RegionId R = T.numRegions(); R-- > 1;)
    Size[T.region(R).Parent] += Size[R];
  EXPECT_EQ(Size[T.root()], T.numRegions()) << Ctx;
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    RegionId Next = R + 1;
    for (RegionId C : T.children(R)) {
      EXPECT_EQ(C, Next) << Ctx << " region " << R;
      Next = C + Size[C];
    }
    EXPECT_EQ(Next, R + Size[R]) << Ctx << " region " << R;
    // Every id in the range lies in R's subtree; nothing outside does.
    for (RegionId X = 0; X < T.numRegions(); ++X)
      EXPECT_EQ(T.contains(R, X), X >= R && X < R + Size[R])
          << Ctx << " region " << R << " id " << X;
  }
}

} // namespace

// Region ids are a preorder of the tree, so every subtree is a contiguous
// id range (the sizes above are summed child-first, which is only sound if
// a parent's id is below its children's).
class PstPreorderIds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstPreorderIds, SubtreesAreContiguousIdRanges) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 613 + 11);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(30));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectPreorderIds(ProgramStructureTree::build(FrozenCfg(G)),
                    "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstPreorderIds,
                         ::testing::Range<uint64_t>(0, 60));

TEST(Pst, PreorderIdsOnClassics) {
  for (const Cfg &G :
       {chainCfg(3), diamondLadderCfg(4), nestedWhileCfg(5),
        nestedRepeatUntilCfg(3), irreducibleCfg(3), paperFigure1Cfg()})
    expectPreorderIds(ProgramStructureTree::build(FrozenCfg(G)),
                      formatPst(G, ProgramStructureTree::build(FrozenCfg(G))));
}

// Ids depend on the partition alone: renaming the classes (as a different
// solver run would) leaves every table of the tree unchanged.
TEST_P(PstPreorderIds, IdsIgnoreClassNumbering) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 613 + 11);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(30));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Cfg G = randomBackboneCfg(R, Opts);
  FrozenCfg V(G);
  CycleEquivResult CE = computeCycleEquivalence(V);
  std::vector<uint32_t> Rename(CE.NumClasses);
  for (uint32_t C = 0; C < CE.NumClasses; ++C)
    Rename[C] = CE.NumClasses - 1 - C;
  std::swap(Rename.front(), Rename[Rename.size() / 2]);
  CycleEquivResult Renamed = CE;
  for (uint32_t &C : Renamed.EdgeClass)
    C = Rename[C];
  PstBuildScratch S;
  ProgramStructureTree A = ProgramStructureTree::buildWithCycleEquiv(V, CE, S);
  ProgramStructureTree B =
      ProgramStructureTree::buildWithCycleEquiv(V, Renamed, S);
  EXPECT_EQ(formatPst(G, A), formatPst(G, B)) << "seed " << Seed;
  auto Same = [](auto X, auto Y) {
    return std::equal(X.begin(), X.end(), Y.begin(), Y.end());
  };
  EXPECT_TRUE(Same(A.nodeRegionTable(), B.nodeRegionTable()));
  EXPECT_TRUE(Same(A.childValTable(), B.childValTable()));
  EXPECT_TRUE(Same(A.immValTable(), B.immValTable()));
  for (RegionId X = 0; X < A.numRegions(); ++X) {
    EXPECT_EQ(A.region(X).EntryEdge, B.region(X).EntryEdge);
    EXPECT_EQ(A.region(X).Parent, B.region(X).Parent);
  }
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    EXPECT_EQ(A.regionOfEdge(V, E), B.regionOfEdge(V, E));
}
