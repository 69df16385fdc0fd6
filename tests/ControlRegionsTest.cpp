//===- ControlRegionsTest.cpp - control region tests ---------------------------===//
//
// Part of the PST library test suite: golden control-dependence facts, the
// node-expansion transform, and the central property sweep validating
// Theorem 7/8 — the FOW materialized-sets partition, the CFS90 refinement
// partition, the linear-time cycle-equivalence partition, and brute-force
// node cycle equivalence must all coincide.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"

#include "pst/cdg/ControlDependence.h"
#include "pst/cycleequiv/CycleEquivBrute.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <string>

using namespace pst;

TEST(ControlDependence, DiamondArms) {
  Cfg G = diamondLadderCfg(1);
  // Nodes: entry 0, cond 1, then 2, else 3, join 4, exit 5.
  // Edges: 0: entry->cond, 1: cond->then, 2: cond->else, 3: then->join,
  //        4: else->join, 5: join->exit.
  ControlDependence CD{FrozenCfg(G)};
  EXPECT_EQ(CD.dependences(2), (std::vector<EdgeId>{1}));
  EXPECT_EQ(CD.dependences(3), (std::vector<EdgeId>{2}));
  EXPECT_TRUE(CD.dependences(0).empty());
  EXPECT_TRUE(CD.dependences(1).empty());
  EXPECT_TRUE(CD.dependences(4).empty());
  EXPECT_TRUE(CD.dependences(5).empty());
  EXPECT_EQ(CD.dependents(1), (std::vector<NodeId>{2}));
  EXPECT_EQ(CD.relationSize(), 2u);
}

TEST(ControlDependence, LoopSelfDependence) {
  Cfg G = nestedWhileCfg(1);
  // Nodes: entry 0, exit 1, head 2, body 3, after 4.
  // Edges: 0: entry->head, 1: head->body, 2: body->head, 3: head->after,
  //        4: after->exit.
  ControlDependence CD{FrozenCfg(G)};
  // The loop header controls itself and its body through head->body.
  EXPECT_EQ(CD.dependences(2), (std::vector<EdgeId>{1}));
  EXPECT_EQ(CD.dependences(3), (std::vector<EdgeId>{1}));
  EXPECT_TRUE(CD.dependences(0).empty());
  EXPECT_TRUE(CD.dependences(4).empty());
}

TEST(NodeExpand, ShapeAndIds) {
  Cfg G = diamondLadderCfg(1);
  Cfg H = nodeExpand(G);
  EXPECT_EQ(H.numNodes(), 2 * G.numNodes());
  EXPECT_EQ(H.numEdges(), G.numNodes() + G.numEdges());
  // Representative edge of node V is EdgeId V: V_i -> V_o.
  for (NodeId V = 0; V < G.numNodes(); ++V) {
    EXPECT_EQ(H.source(V), 2 * V);
    EXPECT_EQ(H.target(V), 2 * V + 1);
  }
  // Original edge E becomes u_o -> v_i.
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    EXPECT_EQ(H.source(G.numNodes() + E), 2 * G.source(E) + 1);
    EXPECT_EQ(H.target(G.numNodes() + E), 2 * G.target(E));
  }
  EXPECT_EQ(H.entry(), 2 * G.entry());
  EXPECT_EQ(H.exit(), 2 * G.exit() + 1);
  EXPECT_TRUE(validateCfg(H));
}

TEST(NodeExpand, SelfLoopBecomesTwoCycle) {
  Cfg G;
  NodeId S = G.addNode(), A = G.addNode(), E = G.addNode();
  G.addEdge(S, A);
  G.addEdge(A, A);
  G.addEdge(A, E);
  G.setEntry(S);
  G.setExit(E);
  Cfg H = nodeExpand(G);
  // No self loops survive expansion.
  for (EdgeId Ed = 0; Ed < H.numEdges(); ++Ed)
    EXPECT_NE(H.source(Ed), H.target(Ed));
}

TEST(ControlRegions, DiamondPartition) {
  Cfg G = diamondLadderCfg(1);
  ControlRegionsResult R = computeControlRegionsLinear(FrozenCfg(G));
  // {entry, cond, join, exit} / {then} / {else}.
  EXPECT_EQ(R.NumClasses, 3u);
  EXPECT_EQ(R.NodeClass[0], R.NodeClass[1]);
  EXPECT_EQ(R.NodeClass[0], R.NodeClass[4]);
  EXPECT_EQ(R.NodeClass[0], R.NodeClass[5]);
  EXPECT_NE(R.NodeClass[2], R.NodeClass[3]);
  EXPECT_NE(R.NodeClass[2], R.NodeClass[0]);
}

namespace {

/// True if partition \p Fine refines \p Coarse (equal Fine classes imply
/// equal Coarse classes).
bool refines(const std::vector<uint32_t> &Fine,
             const std::vector<uint32_t> &Coarse) {
  std::vector<uint32_t> Image(Fine.size(), UINT32_MAX);
  for (size_t I = 0; I < Fine.size(); ++I) {
    uint32_t &Slot = Image[Fine[I]];
    if (Slot == UINT32_MAX)
      Slot = Coarse[I];
    else if (Slot != Coarse[I])
      return false;
  }
  return true;
}

template <class T>
void expectTableEq(std::span<const T> A, std::span<const T> B,
                   const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I < A.size(); ++I) {
    if constexpr (std::is_same_v<T, SeseRegion>) {
      EXPECT_EQ(A[I].EntryEdge, B[I].EntryEdge) << Ctx << " [" << I << "]";
      EXPECT_EQ(A[I].ExitEdge, B[I].ExitEdge) << Ctx << " [" << I << "]";
      EXPECT_EQ(A[I].Parent, B[I].Parent) << Ctx << " [" << I << "]";
      EXPECT_EQ(A[I].Depth, B[I].Depth) << Ctx << " [" << I << "]";
    } else {
      EXPECT_EQ(A[I], B[I]) << Ctx << " [" << I << "]";
    }
  }
}

/// The fused pipeline against the two reference paths: analyzeFunction's
/// one partial-T(S) run must give, table for table, the tree a PST-only
/// build (the plain S run) gives, and exactly the partition of the
/// explicit, materialized T(S). \p S is shared by the caller across
/// differently shaped graphs, so a read of a stale scratch entry shows.
void expectFusedRunMatches(const Cfg &G, PstScratch &S,
                           const std::string &Ctx) {
  FrozenCfg V(G);
  FunctionAnalysis A = analyzeFunction(G, S);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  expectTableEq(A.Pst.regionTable(), T.regionTable(), Ctx + " regions");
  expectTableEq(A.Pst.nodeRegionTable(), T.nodeRegionTable(),
                Ctx + " node regions");
  expectTableEq(A.Pst.childOffTable(), T.childOffTable(), Ctx + " child off");
  expectTableEq(A.Pst.childValTable(), T.childValTable(), Ctx + " child val");
  expectTableEq(A.Pst.immOffTable(), T.immOffTable(), Ctx + " imm off");
  expectTableEq(A.Pst.immValTable(), T.immValTable(), Ctx + " imm val");
  ControlRegionsResult X = computeControlRegionsLinear(V);
  EXPECT_EQ(A.ControlRegions.NodeClass, X.NodeClass) << Ctx;
  EXPECT_EQ(A.ControlRegions.NumClasses, X.NumClasses) << Ctx;
}

/// A one-node procedure: entry == exit, so S's only edge is the return
/// edge, a self loop. Outside validateCfg (which wants distinct entry and
/// exit), but every kernel here accepts it.
Cfg singleBlockCfg() {
  Cfg G;
  NodeId B = G.addNode("b");
  G.setEntry(B);
  G.setExit(B);
  return G;
}

} // namespace

TEST(ControlRegions, WhileLoopStrongPartition) {
  Cfg G = nestedWhileCfg(1);
  ControlRegionsResult R = computeControlRegionsLinear(FrozenCfg(G));
  // Strong (execution-count) regions: {entry, after, exit} / {head} /
  // {body}: the header runs once more than the body, and the cycle
  // entry->head->after->exit->entry contains head but not body.
  EXPECT_EQ(R.NodeClass[0], R.NodeClass[4]);
  EXPECT_EQ(R.NodeClass[0], R.NodeClass[1]);
  EXPECT_NE(R.NodeClass[2], R.NodeClass[3]);
  EXPECT_NE(R.NodeClass[0], R.NodeClass[2]);
}

TEST(ControlRegions, WhileLoopWeakVsStrongErratum) {
  // The documented erratum in Theorem 7 as literally stated: CD-set
  // equality (weak regions) merges the loop header with its unconditional
  // body, while cycle equivalence (what the paper's algorithm computes)
  // separates them.
  Cfg G = nestedWhileCfg(1);
  FrozenCfg V(G);
  ControlRegionsResult Weak = computeControlRegionsFOW(V);
  ControlRegionsResult Strong = computeControlRegionsLinear(V);
  EXPECT_EQ(Weak.NodeClass[2], Weak.NodeClass[3]);   // head ~ body weakly.
  EXPECT_NE(Strong.NodeClass[2], Strong.NodeClass[3]);
  EXPECT_TRUE(refines(Strong.NodeClass, Weak.NodeClass));
}

TEST(ControlRegions, BaselinesAgreeAndStrongRefinesWeakOnClassics) {
  for (const Cfg &G :
       {chainCfg(4), diamondLadderCfg(3), nestedWhileCfg(3),
        nestedRepeatUntilCfg(3), irreducibleCfg(2), paperFigure1Cfg()}) {
    FrozenCfg V(G);
    ControlRegionsResult L = computeControlRegionsLinear(V);
    ControlRegionsResult F = computeControlRegionsFOW(V);
    ControlRegionsResult P = computeControlRegionsRefinement(V);
    // The two Definition-8 baselines must agree exactly...
    EXPECT_EQ(canonicalizePartition(F.NodeClass),
              canonicalizePartition(P.NodeClass));
    // ...and cycle equivalence must be a refinement of them.
    EXPECT_TRUE(refines(L.NodeClass, F.NodeClass));
  }
}

// The linear algorithm must equal brute-force node cycle equivalence
// (its ground truth); the two Definition-8 baselines must equal each
// other; and cycle equivalence must refine CD-set equality (the corrected
// reading of Theorem 7). The fused one-run pipeline (analyzeFunction)
// must match the explicit T(S) and a PST-only build exactly. \p LoopProb
// is the self-loop and parallel-edge probability of the extra edges.
void checkRandomCfg(uint64_t Seed, double LoopProb) {
  Rng R(Seed * 131 + 7);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(14));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(14));
  Opts.SelfLoopProb = LoopProb;
  Opts.ParallelProb = LoopProb;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));

  FrozenCfg V(G);
  auto L = canonicalizePartition(computeControlRegionsLinear(V).NodeClass);
  auto LI = canonicalizePartition(
      computeControlRegionsLinearImplicit(V).NodeClass);
  auto F = canonicalizePartition(computeControlRegionsFOW(V).NodeClass);
  auto P =
      canonicalizePartition(computeControlRegionsRefinement(V).NodeClass);
  auto B =
      canonicalizePartition(computeNodeCycleEquivalenceBrute(G).NodeClass);
  EXPECT_EQ(L, B) << "seed " << Seed;
  EXPECT_EQ(L, LI) << "seed " << Seed; // Implicit == explicit expansion.
  EXPECT_EQ(F, P) << "seed " << Seed;
  EXPECT_TRUE(refines(L, F)) << "seed " << Seed;

  // Interleave shapes through one scratch: a larger graph first, then G,
  // a one-node graph, and G again.
  Rng Big(Seed * 131 + 8);
  RandomCfgOptions BigOpts = Opts;
  BigOpts.NumNodes = 24;
  BigOpts.NumExtraEdges = 30;
  PstScratch S;
  std::string Ctx = "seed " + std::to_string(Seed);
  expectFusedRunMatches(randomBackboneCfg(Big, BigOpts), S, Ctx + " big");
  expectFusedRunMatches(G, S, Ctx);
  expectFusedRunMatches(singleBlockCfg(), S, Ctx + " single block");
  expectFusedRunMatches(G, S, Ctx + " again");
}

class ControlRegionsRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControlRegionsRandomTest, LinearMatchesBruteAndRefinesWeak) {
  checkRandomCfg(GetParam(), 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlRegionsRandomTest,
                         ::testing::Range<uint64_t>(0, 200));

// Self-loop- and parallel-edge-heavy graphs: most nodes get two in- and
// two out-edges, so the partial T(S) splits most of them.
class ControlRegionsLoopHeavyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControlRegionsLoopHeavyTest, LinearMatchesBruteAndRefinesWeak) {
  checkRandomCfg(GetParam(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlRegionsLoopHeavyTest,
                         ::testing::Range<uint64_t>(0, 100));

TEST(ControlRegions, FusedRunMatchesOnIrreducibleAndSingleBlock) {
  PstScratch S;
  for (uint32_t Copies = 1; Copies <= 4; ++Copies) {
    Cfg G = irreducibleCfg(Copies);
    std::string Ctx = "irreducible x" + std::to_string(Copies);
    expectFusedRunMatches(G, S, Ctx);
    EXPECT_EQ(canonicalizePartition(
                  computeControlRegionsLinearImplicit(FrozenCfg(G)).NodeClass),
              canonicalizePartition(
                  computeNodeCycleEquivalenceBrute(G).NodeClass))
        << Ctx;
  }
  Cfg One = singleBlockCfg();
  expectFusedRunMatches(One, S, "single block");
  ControlRegionsResult R = analyzeFunction(One, S).ControlRegions;
  EXPECT_EQ(R.NodeClass, std::vector<uint32_t>{0});
  EXPECT_EQ(R.NumClasses, 1u);
  EXPECT_EQ(analyzeFunction(One, S).Pst.numRegions(), 1u);
}

// On *acyclic* CFGs every cycle of S runs through the return edge, and
// Theorem 7 holds exactly: CD-set equality equals cycle equivalence. This
// sweep checks that stronger claim on branch-heavy DAGs.
class ControlRegionsDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControlRegionsDagTest, AgreesForwardOnly) {
  uint64_t Seed = GetParam() + 5000;
  Rng R(Seed);
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(16));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(18));
  Opts.AllowBackEdges = false;
  Opts.SelfLoopProb = 0.0;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  FrozenCfg V(G);
  auto L = canonicalizePartition(computeControlRegionsLinear(V).NodeClass);
  auto F = canonicalizePartition(computeControlRegionsFOW(V).NodeClass);
  auto B =
      canonicalizePartition(computeNodeCycleEquivalenceBrute(G).NodeClass);
  EXPECT_EQ(L, F) << "seed " << Seed;
  EXPECT_EQ(L, B) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlRegionsDagTest,
                         ::testing::Range<uint64_t>(0, 100));
