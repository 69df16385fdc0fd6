//===- CollapsedBodyTest.cpp - Collapsed region bodies as CFGs ------------===//
//
// Part of the PST library (see RegionAnalysis.h for the reference).
//
// Property sweep over the body forest of seeded irreducible,
// self-loop-heavy, parallel-edge-heavy and deeply nested graphs, region by
// region:
//  * the body graph is a valid two-terminal CFG with Start and End where
//    the layout puts them, its CSR is exactly the one \c CfgView::build
//    makes of the same edges, and its boundary edges stand for the
//    region's entry and exit edges;
//  * its body edges are exactly the CFG edges with both endpoints in the
//    region's subtree that are not internal to one child (brute force over
//    the regions' node sets), each tagged with its CFG edge and joining
//    the quotient nodes of its endpoints, numbered as the layout says:
//    immediate nodes' successor edges, then children's exit edges;
//  * the bodies partition the CFG's edges;
//  * the divide-and-conquer consumers that run kernels on the bodies agree
//    with their whole-graph counterparts: PST dominators with iterative
//    dominators, elimination dataflow with iterative dataflow on a random
//    gen/kill problem for both meets.
//
//===----------------------------------------------------------------------===//

#include "pst/core/RegionAnalysis.h"

#include "pst/core/PstDominators.h"
#include "pst/dataflow/Dataflow.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include "CfgOfView.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pst;

namespace {

/// Checks the layout and edge set of \p R's collapsed body; counts each
/// CFG edge it holds into \p Seen.
void expectBodyMatchesBruteForce(const CfgView &V,
                                 const ProgramStructureTree &T,
                                 const BodyForest &F, RegionId R,
                                 std::vector<uint32_t> &Seen,
                                 const std::string &Ctx) {
  CollapsedBody B = F.body(R);
  const uint32_t NQ = B.numNodes();
  const CfgView &BV = B.Graph;

  // The quotient nodes: immediate nodes, then children.
  ASSERT_EQ(B.Imm.size(), T.immediateNodes(R).size()) << Ctx;
  ASSERT_EQ(B.Kids.size(), T.children(R).size()) << Ctx;
  for (uint32_t Q = 0; Q < NQ; ++Q) {
    const uint32_t NImm = static_cast<uint32_t>(B.Imm.size());
    EXPECT_EQ(B.isRegion(Q), Q >= NImm) << Ctx;
    if (Q < NImm)
      EXPECT_EQ(B.node(Q), T.immediateNodes(R)[Q]) << Ctx;
    else
      EXPECT_EQ(B.region(Q), T.children(R)[Q - NImm]) << Ctx;
  }

  // A valid CFG whose CSR is the one a fresh build of its edges makes.
  Cfg Rebuilt = cfgOfView(BV);
  std::string Why;
  EXPECT_TRUE(validateCfg(Rebuilt, &Why)) << Ctx << ": " << Why;
  FrozenCfg Fresh(Rebuilt);
  ASSERT_EQ(BV.numNodes(), NQ + 2) << Ctx;
  ASSERT_EQ(B.CfgEdge.size(), BV.numEdges()) << Ctx;
  EXPECT_EQ(BV.entry(), B.start()) << Ctx;
  EXPECT_EQ(BV.exit(), B.end()) << Ctx;
  for (NodeId Q = 0; Q < BV.numNodes(); ++Q) {
    EXPECT_TRUE(std::ranges::equal(BV.succEdges(Q), Fresh.view().succEdges(Q)))
        << Ctx << " node " << Q;
    EXPECT_TRUE(std::ranges::equal(BV.succNodes(Q), Fresh.view().succNodes(Q)))
        << Ctx << " node " << Q;
    EXPECT_TRUE(std::ranges::equal(BV.predEdges(Q), Fresh.view().predEdges(Q)))
        << Ctx << " node " << Q;
    EXPECT_TRUE(std::ranges::equal(BV.predNodes(Q), Fresh.view().predNodes(Q)))
        << Ctx << " node " << Q;
  }

  // Quotient node of every CFG node in R's subtree, from node sets alone.
  std::vector<uint32_t> QOf(V.numNodes(), UINT32_MAX);
  for (uint32_t Q = 0; Q < NQ; ++Q) {
    if (!B.isRegion(Q)) {
      QOf[B.node(Q)] = Q;
      continue;
    }
    for (NodeId N : T.allNodes(B.region(Q)))
      QOf[N] = Q;
  }
  for (NodeId N : T.allNodes(R))
    ASSERT_NE(QOf[N], UINT32_MAX) << Ctx << " node " << N;

  // Boundary edges: the last two ids, joining Start and End to the
  // quotient nodes of the region's entry target and exit source.
  const EdgeId In = B.numBodyEdges(), Out = In + 1;
  EXPECT_EQ(BV.source(In), B.start()) << Ctx;
  EXPECT_EQ(BV.target(In), B.EntryQ) << Ctx;
  EXPECT_EQ(BV.source(Out), B.ExitQ) << Ctx;
  EXPECT_EQ(BV.target(Out), B.end()) << Ctx;
  const bool Root = R == T.root();
  EXPECT_EQ(B.CfgEdge[In], Root ? InvalidEdge : T.region(R).EntryEdge) << Ctx;
  EXPECT_EQ(B.CfgEdge[Out], Root ? InvalidEdge : T.region(R).ExitEdge) << Ctx;
  EXPECT_EQ(B.EntryQ,
            QOf[Root ? V.entry() : V.target(T.region(R).EntryEdge)])
      << Ctx;
  EXPECT_EQ(B.ExitQ, QOf[Root ? V.exit() : V.source(T.region(R).ExitEdge)])
      << Ctx;

  auto InBody = [&](EdgeId E) {
    uint32_t QS = QOf[V.source(E)], QD = QOf[V.target(E)];
    return QS != UINT32_MAX && QD != UINT32_MAX &&
           !(QS == QD && B.isRegion(QS));
  };
  // The numbering: the immediate nodes' in-body successor edges in
  // succEdges order, then each child's exit edge in child order.
  std::vector<EdgeId> Numbered;
  for (NodeId N : B.Imm)
    for (EdgeId E : V.succEdges(N))
      if (InBody(E))
        Numbered.push_back(E);
  for (RegionId C : B.Kids)
    if (InBody(T.region(C).ExitEdge))
      Numbered.push_back(T.region(C).ExitEdge);
  std::vector<EdgeId> Actual(B.CfgEdge.begin(), B.CfgEdge.end() - 2);
  EXPECT_EQ(Actual, Numbered) << Ctx;

  // The edge set, by brute force over every CFG edge.
  std::vector<EdgeId> Expected;
  for (EdgeId E = 0; E < V.numEdges(); ++E)
    if (InBody(E))
      Expected.push_back(E);
  for (EdgeId E = 0; E < B.numBodyEdges(); ++E) {
    EdgeId G = B.CfgEdge[E];
    ASSERT_LT(G, V.numEdges()) << Ctx << " body edge " << E;
    EXPECT_EQ(BV.source(E), QOf[V.source(G)]) << Ctx << " body edge " << E;
    EXPECT_EQ(BV.target(E), QOf[V.target(G)]) << Ctx << " body edge " << E;
    ++Seen[G];
  }
  std::sort(Actual.begin(), Actual.end());
  EXPECT_EQ(Actual, Expected) << Ctx;
}

/// A gen/kill problem with random transfer functions and boundary.
BitVectorProblem randomProblem(Rng &R, uint32_t NumNodes,
                               BitVectorProblem::MeetKind Meet) {
  BitVectorProblem P;
  P.NumBits = 1 + static_cast<uint32_t>(R.nextBelow(70));
  P.Meet = Meet;
  auto RandomBits = [&](uint64_t OneIn) {
    BitVector B(P.NumBits);
    for (uint32_t I = 0; I < P.NumBits; ++I)
      if (R.nextBelow(OneIn) == 0)
        B.set(I);
    return B;
  };
  P.Boundary = RandomBits(2);
  for (NodeId N = 0; N < NumNodes; ++N)
    P.Transfer.push_back(GenKill{RandomBits(5), RandomBits(4)});
  return P;
}

void expectCollapsedBodiesHold(const Cfg &G, Rng &R, const std::string &Ctx) {
  ASSERT_TRUE(validateCfg(G)) << Ctx;
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BodyForest F(V, T);
  std::vector<uint32_t> Seen(G.numEdges(), 0);
  for (RegionId Rg = 0; Rg < T.numRegions(); ++Rg)
    expectBodyMatchesBruteForce(V, T, F, Rg, Seen,
                                Ctx + " region " + std::to_string(Rg));
  // Every CFG edge lies in exactly one body.
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    EXPECT_EQ(Seen[E], 1u) << Ctx << " edge " << E;

  DomTree Pst = buildDominatorsViaPst(V, T);
  DomTree Iter = DomTree::buildIterative(V);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_EQ(Pst.idom(N), Iter.idom(N)) << Ctx << " node " << N;

  for (auto Meet : {BitVectorProblem::MeetKind::Union,
                    BitVectorProblem::MeetKind::Intersect}) {
    BitVectorProblem P = randomProblem(R, G.numNodes(), Meet);
    EXPECT_EQ(solveElimination(V, T, P), solveIterative(V, P))
        << Ctx << (Meet == BitVectorProblem::MeetKind::Union ? " union"
                                                              : " intersect");
  }
}

class CollapsedBodyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollapsedBodyTest, BodiesAreCfgsOfTheRightEdges) {
  const uint64_t Seed = GetParam();
  const std::string Ctx = "seed " + std::to_string(Seed);
  Rng R(Seed * 6151 + 17);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(24));

  // Irreducible: many extra edges, backwards ones allowed.
  RandomCfgOptions Irr = Opts;
  Irr.NumExtraEdges = Opts.NumNodes + static_cast<uint32_t>(R.nextBelow(16));
  expectCollapsedBodiesHold(randomBackboneCfg(R, Irr), R,
                            Ctx + " irreducible");
  expectCollapsedBodiesHold(irreducibleCfg(1 + Seed % 4), R,
                            Ctx + " irreducible triangles");

  // Self-loop-heavy and parallel-edge-heavy.
  RandomCfgOptions Loops = Opts;
  Loops.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Loops.SelfLoopProb = 0.4;
  expectCollapsedBodiesHold(randomBackboneCfg(R, Loops), R,
                            Ctx + " self-loop-heavy");
  RandomCfgOptions Parallel = Opts;
  Parallel.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(20));
  Parallel.ParallelProb = 0.5;
  expectCollapsedBodiesHold(randomBackboneCfg(R, Parallel), R,
                            Ctx + " parallel-edge-heavy");

  // Deep nesting.
  expectCollapsedBodiesHold(nestedWhileCfg(1 + Seed % 12, 1 + Seed % 3), R,
                            Ctx + " nested while");
  expectCollapsedBodiesHold(nestedRepeatUntilCfg(1 + Seed % 10), R,
                            Ctx + " nested repeat-until");
  expectCollapsedBodiesHold(diamondLadderCfg(1 + Seed % 6), R,
                            Ctx + " diamond ladder");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapsedBodyTest,
                         ::testing::Range<uint64_t>(0, 60));

} // namespace
