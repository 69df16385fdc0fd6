//===- DataflowTest.cpp - dataflow framework tests ------------------------------===//
//
// Part of the PST library test suite: golden facts for the three classic
// problems, and the solver-agreement property sweeps (iterative ==
// PST-elimination == QPG-projected) on hand-written and generated code.
//
//===----------------------------------------------------------------------===//

#include "pst/dataflow/Dataflow.h"

#include "pst/core/ProgramStructureTree.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace pst;

namespace {

LoweredFunction compileOne(const std::string &Src) {
  std::vector<Diagnostic> Diags;
  auto Fns = compile(Src, &Diags);
  EXPECT_TRUE(Fns.has_value())
      << (Diags.empty() ? "no diagnostics" : Diags[0].str());
  return std::move((*Fns)[0]);
}

VarId varOf(const LoweredFunction &F, const std::string &Name) {
  for (VarId V = 0; V < F.numVars(); ++V)
    if (F.VarNames[V] == Name)
      return V;
  ADD_FAILURE() << "no variable " << Name;
  return InvalidVar;
}

void expectAllSolversAgree(const LoweredFunction &F,
                           const BitVectorProblem &P) {
  const Cfg &G = F.Graph;
  FrozenCfg FV(G);
  ProgramStructureTree T = ProgramStructureTree::build(FV);
  DataflowSolution It = solveIterative(FV, P);
  DataflowSolution El = solveElimination(FV, T, P);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_EQ(It.In[N], El.In[N]) << F.Name << " IN mismatch at node " << N;
    ASSERT_EQ(It.Out[N], El.Out[N])
        << F.Name << " OUT mismatch at node " << N;
  }
  EdgeSolution Sparse = solveOnQpg(FV, T, P);
  EdgeSolution Dense = edgeView(FV, It);
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    ASSERT_EQ(Sparse.EdgeValue[E], Dense.EdgeValue[E])
        << F.Name << " QPG mismatch on edge " << E;
}

} // namespace

TEST(ReachingDefs, StraightLineKills) {
  LoweredFunction F =
      compileOne("func f(a) { var x = a; x = x + 1; return x; }");
  std::vector<VarId> DefVar;
  BitVectorProblem P = makeReachingDefs(F, &DefVar);
  DataflowSolution S = solveIterative(FrozenCfg(F.Graph), P);
  // At exit, exactly one def of x reaches (the second), plus a's param
  // def.
  VarId X = varOf(F, "x");
  uint32_t ReachingX = 0;
  S.Out[F.Graph.exit()].forEachSetBit([&](size_t Bit) {
    if (DefVar[Bit] == X)
      ++ReachingX;
  });
  EXPECT_EQ(ReachingX, 1u);
}

TEST(ReachingDefs, BothArmsReachJoin) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }");
  std::vector<VarId> DefVar;
  BitVectorProblem P = makeReachingDefs(F, &DefVar);
  DataflowSolution S = solveIterative(FrozenCfg(F.Graph), P);
  VarId X = varOf(F, "x");
  uint32_t ReachingX = 0;
  S.In[F.Graph.exit()].forEachSetBit([&](size_t Bit) {
    if (DefVar[Bit] == X)
      ++ReachingX;
  });
  EXPECT_EQ(ReachingX, 2u); // One def from each arm; x=0 is killed.
}

TEST(LiveVariables, DeadAfterLastUse) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = a; var y = x + 1; return y; }");
  BitVectorProblem P = makeLiveVariables(F);
  FrozenCfg V(F.Graph);
  DataflowSolution S = solveIterative(V.view().reversed(), P);
  // Backward reading of the reversed solution: Out[n] is the live-in set
  // of n. 'a' is defined in entry and used in the body block, so it is
  // live into the body; x and y are block-local and live nowhere across
  // block boundaries.
  VarId A = varOf(F, "a");
  VarId Y = varOf(F, "y");
  VarId X = varOf(F, "x");
  NodeId Body = F.useBlocks(A)[0];
  EXPECT_TRUE(S.Out[Body].test(A));
  for (NodeId N = 0; N < F.Graph.numNodes(); ++N) {
    EXPECT_FALSE(S.Out[N].test(X));
    EXPECT_FALSE(S.Out[N].test(Y));
  }
  // Nothing is live out of the function exit.
  EXPECT_TRUE(S.In[F.Graph.exit()].none());
}

TEST(LiveVariables, LoopKeepsCounterLive) {
  LoweredFunction F = compileOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  BitVectorProblem P = makeLiveVariables(F);
  FrozenCfg V(F.Graph);
  DataflowSolution S = solveIterative(V.view().reversed(), P);
  VarId I = varOf(F, "i");
  // i is live on the backedge (used by the next header evaluation).
  uint32_t LiveBlocks = 0;
  for (NodeId N = 0; N < F.Graph.numNodes(); ++N)
    LiveBlocks += S.In[N].test(I); // Live-out of N, reversed view.
  EXPECT_GE(LiveBlocks, 2u);
}

TEST(AvailableExpressions, RecomputationAvailable) {
  LoweredFunction F = compileOne(
      "func f(a, b) { var x = a + b; var y = a + b; return y; }");
  std::vector<std::string> Keys;
  BitVectorProblem P = makeAvailableExpressions(F, &Keys);
  ASSERT_FALSE(Keys.empty());
  DataflowSolution S = solveIterative(FrozenCfg(F.Graph), P);
  // "a + b" (however it prints) is available at exit.
  uint32_t Bit = UINT32_MAX;
  for (uint32_t K = 0; K < Keys.size(); ++K)
    if (Keys[K].find("a + b") != std::string::npos)
      Bit = K;
  ASSERT_NE(Bit, UINT32_MAX);
  EXPECT_TRUE(S.In[F.Graph.exit()].test(Bit));
}

TEST(AvailableExpressions, KilledByOperandRedefinition) {
  LoweredFunction F = compileOne(
      "func f(a, b) { var x = a + b; a = 0; var y = a + b; return y; }");
  std::vector<std::string> Keys;
  BitVectorProblem P = makeAvailableExpressions(F, &Keys);
  // Everything is in one block; gen/kill must cancel correctly at block
  // level: after the block, a + b is available (recomputed after the
  // kill).
  DataflowSolution S = solveIterative(FrozenCfg(F.Graph), P);
  uint32_t Bit = UINT32_MAX;
  for (uint32_t K = 0; K < Keys.size(); ++K)
    if (Keys[K].find("a + b") != std::string::npos)
      Bit = K;
  ASSERT_NE(Bit, UINT32_MAX);
  EXPECT_TRUE(S.In[F.Graph.exit()].test(Bit));
}

TEST(AvailableExpressions, IntersectAtJoin) {
  LoweredFunction F = compileOne(R"(
    func f(a, b) {
      var x = 0;
      if (a > 0) { x = a + b; } else { x = 1; }
      var y = a + b;
      return y + x;
    }
  )");
  std::vector<std::string> Keys;
  BitVectorProblem P = makeAvailableExpressions(F, &Keys);
  DataflowSolution S = solveIterative(FrozenCfg(F.Graph), P);
  // a + b is not available at the join (only one arm computes it), so the
  // block computing y regenerates it; available at exit.
  uint32_t Bit = UINT32_MAX;
  for (uint32_t K = 0; K < Keys.size(); ++K)
    if (Keys[K].find("a + b") != std::string::npos)
      Bit = K;
  ASSERT_NE(Bit, UINT32_MAX);
  // Find the join block (two preds, before y's def block).
  VarId Y = varOf(F, "y");
  NodeId YBlock = F.defBlocks(Y)[0];
  EXPECT_FALSE(S.In[YBlock].test(Bit));
  EXPECT_TRUE(S.Out[YBlock].test(Bit));
}

TEST(Qpg, TransparentLoopBypassed) {
  // Only the first and last blocks touch x; the loop in the middle is
  // transparent for the single-expression problem.
  LoweredFunction F = compileOne(R"(
    func f(a, b, n) {
      var x = a + b;
      var i = 0;
      var s = 0;
      while (i < n) { s = s + 1; i = i + 1; }
      var y = a + b;
      return y + x + s;
    }
  )");
  BitVectorProblem P = makeSingleExprAvailability(F, "a + b");
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  Qpg Q = buildQpg(V, T, P);
  EXPECT_LT(Q.numNodes(), F.Graph.numNodes());
  // And the projected solution still matches the dense one.
  EdgeSolution Sparse = solveOnQpg(V, T, P);
  EdgeSolution Dense = edgeView(V, solveIterative(V, P));
  for (EdgeId E = 0; E < F.Graph.numEdges(); ++E)
    EXPECT_EQ(Sparse.EdgeValue[E], Dense.EdgeValue[E]) << "edge " << E;
}

TEST(Qpg, NothingInterestingCollapsesToSpine) {
  LoweredFunction F = compileOne(R"(
    func f(n) {
      var i = 0;
      while (i < n) { if (i % 2 == 0) { i = i + 2; } else { i = i + 1; } }
      return i;
    }
  )");
  // An expression that appears nowhere: every node is transparent.
  BitVectorProblem P = makeSingleExprAvailability(F, "zz + qq");
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  Qpg Q = buildQpg(V, T, P);
  EXPECT_LE(Q.numNodes(), F.Graph.numNodes());
  EdgeSolution Sparse = solveOnQpg(V, T, P);
  EdgeSolution Dense = edgeView(V, solveIterative(V, P));
  for (EdgeId E = 0; E < F.Graph.numEdges(); ++E)
    EXPECT_EQ(Sparse.EdgeValue[E], Dense.EdgeValue[E]) << "edge " << E;
}

TEST(Solvers, AgreeOnGoldens) {
  const char *Sources[] = {
      "func f(a) { var x = a; return x; }",
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }",
      "func f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; "
      "i = i + 1; } return s; }",
      "func f(n) { var i = 0; do { i = i + 1; } while (i < n); return i; }",
      "func f(a) { var x = 0; switch (a) { case 0: x = 1; case 1: x = 2; "
      "default: x = 3; } return x; }",
      "func f(a) { var x = 0; if (a > 0) { goto mid; } while (x < 10) { "
      "x = x + 1; mid: x = x + 2; } return x; }",
  };
  for (const char *Src : Sources) {
    LoweredFunction F = compileOne(Src);
    expectAllSolversAgree(F, makeReachingDefs(F));
    expectAllSolversAgree(F, makeAvailableExpressions(F));
  }
}

class DataflowRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowRandomTest, SolversAgreeOnGeneratedPrograms) {
  Rng R(GetParam() * 409 + 31);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 15 + static_cast<uint32_t>(R.nextBelow(100));
  Opts.GotoProb = GetParam() % 4 == 0 ? 0.06 : 0.0;
  Function Fn = generateFunction(R, Opts, "gen");
  auto L = lowerFunction(Fn);
  ASSERT_TRUE(L.has_value());
  expectAllSolversAgree(*L, makeReachingDefs(*L));
  expectAllSolversAgree(*L, makeAvailableExpressions(*L));

  // Backward liveness: iterative vs elimination on the reversed graph.
  BitVectorProblem P = makeLiveVariables(*L);
  FrozenCfg Fwd(L->Graph);
  CfgView V = Fwd.view().reversed();
  ProgramStructureTree T = ProgramStructureTree::build(V);
  DataflowSolution It = solveIterative(V, P);
  DataflowSolution El = solveElimination(V, T, P);
  for (NodeId N = 0; N < V.numNodes(); ++N) {
    ASSERT_EQ(It.In[N], El.In[N]) << "seed " << GetParam();
    ASSERT_EQ(It.Out[N], El.Out[N]) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowRandomTest,
                         ::testing::Range<uint64_t>(0, 60));

// The PST of a graph and of its reverse have the same SESE regions
// (entry/exit swap); liveness via QPG on the reversed graph must also
// agree.
TEST(Qpg, BackwardLivenessSparse) {
  LoweredFunction F = compileOne(R"(
    func f(a, n) {
      var x = a;
      var i = 0;
      while (i < n) { i = i + 1; }
      return x + i;
    }
  )");
  BitVectorProblem P = makeLiveVariables(F);
  FrozenCfg Fwd(F.Graph);
  CfgView V = Fwd.view().reversed();
  ProgramStructureTree T = ProgramStructureTree::build(V);
  EdgeSolution Sparse = solveOnQpg(V, T, P);
  EdgeSolution Dense = edgeView(V, solveIterative(V, P));
  for (EdgeId E = 0; E < V.numEdges(); ++E)
    EXPECT_EQ(Sparse.EdgeValue[E], Dense.EdgeValue[E]) << "edge " << E;
}

//===----------------------------------------------------------------------===//
// Sparse evaluation graphs [CCF91]
//===----------------------------------------------------------------------===//

#include "pst/dataflow/Seg.h"

TEST(Seg, MembershipForSingleExpr) {
  LoweredFunction F = compileOne(R"(
    func f(a, b, n) {
      var x = a + b;
      var i = 0;
      while (i < n) { i = i + 1; }
      var y = a + b;
      return y + x;
    }
  )");
  BitVectorProblem P = makeSingleExprAvailability(F, "(a + b)");
  FrozenCfg V(F.Graph);
  DomTree DT = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, DT);
  Seg S = buildSeg(V, DF, P);
  // Far fewer SEG nodes than CFG nodes; entry is node 0.
  EXPECT_LT(S.numNodes(), F.Graph.numNodes());
  EXPECT_EQ(S.Nodes[0], F.Graph.entry());
  // Every CFG node is governed by something.
  for (NodeId N = 0; N < F.Graph.numNodes(); ++N)
    EXPECT_NE(S.GovernedBy[N], UINT32_MAX) << "node " << N;
}

TEST(Seg, SolutionMatchesIterativeOnGoldens) {
  const char *Sources[] = {
      "func f(a) { var x = a; return x; }",
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }",
      "func f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; "
      "i = i + 1; } return s; }",
      "func f(a) { var x = 0; if (a > 0) { goto mid; } while (x < 10) { "
      "x = x + 1; mid: x = x + 2; } return x; }",
  };
  for (const char *Src : Sources) {
    LoweredFunction F = compileOne(Src);
    for (BitVectorProblem P :
         {makeReachingDefs(F), makeAvailableExpressions(F)}) {
      FrozenCfg V(F.Graph);
      DomTree DT = DomTree::buildIterative(V);
      DominanceFrontiers DF(V, DT);
      DataflowSolution A = solveIterative(V, P);
      DataflowSolution B = solveOnSeg(V, DF, P);
      for (NodeId N = 0; N < F.Graph.numNodes(); ++N) {
        ASSERT_EQ(A.In[N], B.In[N]) << Src << " node " << N;
        ASSERT_EQ(A.Out[N], B.Out[N]) << Src << " node " << N;
      }
    }
  }
}

class SegRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegRandomTest, MatchesIterativeOnGeneratedPrograms) {
  Rng R(GetParam() * 883 + 57);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 15 + static_cast<uint32_t>(R.nextBelow(90));
  Opts.GotoProb = GetParam() % 3 == 0 ? 0.06 : 0.0;
  Function Fn = generateFunction(R, Opts, "gen");
  auto L = lowerFunction(Fn);
  ASSERT_TRUE(L.has_value());
  const LoweredFunction &F = *L;
  FrozenCfg V(F.Graph);
  DomTree DT = DomTree::buildIterative(V);
  DominanceFrontiers DF(V, DT);
  for (BitVectorProblem P :
       {makeReachingDefs(F), makeAvailableExpressions(F)}) {
    DataflowSolution A = solveIterative(V, P);
    DataflowSolution B = solveOnSeg(V, DF, P);
    for (NodeId N = 0; N < F.Graph.numNodes(); ++N) {
      ASSERT_EQ(A.In[N], B.In[N]) << "seed " << GetParam();
      ASSERT_EQ(A.Out[N], B.Out[N]) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegRandomTest,
                         ::testing::Range<uint64_t>(0, 60));

//===----------------------------------------------------------------------===//
// Statement-level expansion
//===----------------------------------------------------------------------===//

TEST(StatementLevel, ExpansionShape) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = a; var y = x + 1; var z = y * 2; return z; }");
  std::vector<NodeId> FirstOf;
  LoweredFunction S = expandToStatementLevel(F, &FirstOf);
  EXPECT_TRUE(validateCfg(S.Graph));
  // One instruction per block.
  uint64_t Stmts = 0;
  for (const auto &Block : S.Code) {
    EXPECT_LE(Block.size(), 1u);
    Stmts += Block.size();
  }
  uint64_t Orig = 0;
  for (const auto &Block : F.Code)
    Orig += Block.size();
  EXPECT_EQ(Stmts, Orig);
  EXPECT_EQ(FirstOf.size(), F.Graph.numNodes());
}

TEST(StatementLevel, AnalysesStillAgree) {
  LoweredFunction F = compileOne(R"(
    func f(a, n) {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + a; i = i + 1; }
      return s;
    }
  )");
  LoweredFunction S = expandToStatementLevel(F);
  ASSERT_TRUE(validateCfg(S.Graph));
  FrozenCfg V(S.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  BitVectorProblem P = makeReachingDefs(S);
  DataflowSolution A = solveIterative(V, P);
  DataflowSolution B = solveElimination(V, T, P);
  for (NodeId N = 0; N < S.Graph.numNodes(); ++N) {
    ASSERT_EQ(A.In[N], B.In[N]);
    ASSERT_EQ(A.Out[N], B.Out[N]);
  }
}
