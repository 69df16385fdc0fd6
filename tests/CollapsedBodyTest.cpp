//===- CollapsedBodyTest.cpp - Collapsed region bodies as CFGs ------------===//
//
// Part of the PST library (see RegionAnalysis.h for the reference).
//
// Property sweep over the collapsed body of every region of seeded
// irreducible, self-loop-heavy, parallel-edge-heavy and deeply nested
// graphs:
//  * the body graph is a valid two-terminal CFG with Start and End where
//    the layout puts them, and its boundary edges stand for the region's
//    entry and exit edges;
//  * its body edges are exactly the CFG edges with both endpoints in the
//    region's subtree that are not internal to one child (brute force over
//    the regions' node sets), each tagged with its CFG edge and joining
//    the quotient nodes of its endpoints;
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

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pst;

namespace {

/// Checks the layout and edge set of \p R's collapsed body.
void expectBodyMatchesBruteForce(const CfgView &V,
                                 const ProgramStructureTree &T, RegionId R,
                                 const std::string &Ctx) {
  CollapsedBody B = collapseRegion(V, T, R);
  const uint32_t NQ = B.numNodes();

  std::string Why;
  EXPECT_TRUE(validateCfg(B.Graph, &Why)) << Ctx << ": " << Why;
  const CfgView &BV = B.view();
  ASSERT_EQ(BV.numNodes(), NQ + 2) << Ctx;
  ASSERT_EQ(BV.numEdges(), B.Graph.numEdges()) << Ctx;
  ASSERT_EQ(B.CfgEdge.size(), BV.numEdges()) << Ctx;
  EXPECT_EQ(BV.entry(), B.start()) << Ctx;
  EXPECT_EQ(BV.exit(), B.end()) << Ctx;

  // Boundary edges: the last two ids.
  const EdgeId In = B.numBodyEdges(), Out = In + 1;
  EXPECT_EQ(BV.source(In), B.start()) << Ctx;
  EXPECT_EQ(BV.target(In), B.EntryQ) << Ctx;
  EXPECT_EQ(BV.source(Out), B.ExitQ) << Ctx;
  EXPECT_EQ(BV.target(Out), B.end()) << Ctx;
  const bool Root = R == T.root();
  EXPECT_EQ(B.CfgEdge[In], Root ? InvalidEdge : T.region(R).EntryEdge) << Ctx;
  EXPECT_EQ(B.CfgEdge[Out], Root ? InvalidEdge : T.region(R).ExitEdge) << Ctx;

  // Quotient node of every CFG node in R's subtree, from node sets alone.
  std::vector<uint32_t> QOf(V.numNodes(), UINT32_MAX);
  for (uint32_t Q = 0; Q < NQ; ++Q) {
    const CollapsedBody::QNode &QN = B.Nodes[Q];
    if (!QN.IsRegion) {
      QOf[QN.Node] = Q;
      continue;
    }
    for (NodeId N : T.allNodes(QN.Region))
      QOf[N] = Q;
  }
  for (NodeId N : T.allNodes(R))
    ASSERT_NE(QOf[N], UINT32_MAX) << Ctx << " node " << N;

  std::vector<EdgeId> Expected;
  for (EdgeId E = 0; E < V.numEdges(); ++E) {
    uint32_t QS = QOf[V.source(E)], QD = QOf[V.target(E)];
    if (QS == UINT32_MAX || QD == UINT32_MAX)
      continue;
    if (QS == QD && B.Nodes[QS].IsRegion)
      continue;
    Expected.push_back(E);
  }
  std::vector<EdgeId> Actual;
  for (EdgeId E = 0; E < B.numBodyEdges(); ++E) {
    EdgeId G = B.CfgEdge[E];
    ASSERT_LT(G, V.numEdges()) << Ctx << " body edge " << E;
    EXPECT_EQ(BV.source(E), QOf[V.source(G)]) << Ctx << " body edge " << E;
    EXPECT_EQ(BV.target(E), QOf[V.target(G)]) << Ctx << " body edge " << E;
    Actual.push_back(G);
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
  for (RegionId Rg = 0; Rg < T.numRegions(); ++Rg)
    expectBodyMatchesBruteForce(V, T, Rg, Ctx + " region " +
                                              std::to_string(Rg));

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
