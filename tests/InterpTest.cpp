//===- InterpTest.cpp - interpreter & semantic validation tests ------------------===//
//
// Part of the PST library test suite:
//  * golden executions of both interpreters,
//  * differential AST-vs-CFG execution on generated programs (validates
//    the lowering end to end),
//  * the *dynamic* control-region theorem: nodes that are cycle equivalent
//    in G + (end -> start) execute the same number of times on every
//    complete run.
//
//===----------------------------------------------------------------------===//

#include "pst/lang/Interp.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/lang/Parser.h"
#include "pst/workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace pst;

namespace {

Function parseOne(const std::string &Src) {
  std::vector<Diagnostic> Diags;
  auto P = parseProgram(Src, &Diags);
  EXPECT_TRUE(P.has_value())
      << (Diags.empty() ? "no diagnostics" : Diags[0].str());
  return std::move(P->Functions[0]);
}

LoweredFunction lowerOne(const Function &F) {
  std::vector<Diagnostic> Diags;
  auto L = lowerFunction(F, &Diags);
  EXPECT_TRUE(L.has_value())
      << (Diags.empty() ? "no diagnostics" : Diags[0].str());
  return std::move(*L);
}

} // namespace

TEST(AstInterp, ArithmeticAndReturn) {
  Function F = parseOne("func f(a, b) { return a * 10 + b; }");
  ExecResult R = runAst(F, {4, 2});
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.ReturnValue, 42);
}

TEST(AstInterp, TotalDivision) {
  Function F = parseOne("func f(a) { return 10 / a + 7 % a; }");
  ExecResult R = runAst(F, {0});
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.ReturnValue, 0); // 10/0 == 0 and 7%0 == 0.
}

TEST(AstInterp, LoopSum) {
  Function F = parseOne(
      "func f(n) { var s = 0; var i = 1; while (i <= n) { s = s + i; "
      "i = i + 1; } return s; }");
  EXPECT_EQ(runAst(F, {10}).ReturnValue, 55);
  EXPECT_EQ(runAst(F, {0}).ReturnValue, 0);
}

TEST(AstInterp, BreakContinueSwitch) {
  Function F = parseOne(R"(
    func f(n) {
      var s = 0;
      var i = 0;
      while (i < n) {
        i = i + 1;
        if (i % 3 == 0) { continue; }
        if (i > 7) { break; }
        switch (i % 2) {
          case 0: s = s + 10;
          case 1: s = s + 1;
          default: s = s + 100;
        }
      }
      return s;
    }
  )");
  ExecResult R = runAst(F, {100});
  EXPECT_TRUE(R.Finished);
  // i=1:+1, 2:+10, 3 skip, 4:+10, 5:+1, 6 skip, 7:+1, 8 breaks.
  EXPECT_EQ(R.ReturnValue, 23);
}

TEST(AstInterp, BudgetStopsInfiniteLoop) {
  Function F = parseOne("func f() { var x = 1; while (x > 0) { x = 2; } }");
  ExecResult R = runAst(F, {}, /*MaxSteps=*/1000);
  EXPECT_FALSE(R.Finished);
}

TEST(AstInterp, GotoUnsupported) {
  Function F = parseOne("func f() { l: goto l; }");
  EXPECT_FALSE(runAst(F, {}).Finished);
}

TEST(AstInterp, ImplicitReturnZero) {
  Function F = parseOne("func f(a) { var x = a + 1; }");
  ExecResult R = runAst(F, {5});
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.ReturnValue, 0);
}

TEST(CfgInterp, MatchesAstOnGoldens) {
  const char *Sources[] = {
      "func f(a, b) { return a * 10 + b; }",
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x * a; }",
      "func f(n) { var s = 0; var i = 1; while (i <= n) { s = s + i; "
      "i = i + 1; } return s; }",
      "func f(n) { var i = 0; do { i = i + 2; } while (i < n); return i; }",
      "func f(n) { var s = 0; var i = 0; for (i = 0; i < n; i = i + 1) { "
      "s = s + i * i; } return s; }",
      "func f(a) { var x = 0; switch (a % 3) { case 0: x = 7; case 1: "
      "x = 8; } return x; }",
      "func f(a) { return work(a, a + 1); }",
  };
  for (const char *Src : Sources) {
    Function F = parseOne(Src);
    LoweredFunction L = lowerOne(F);
    for (int64_t Arg : {-3, 0, 1, 5, 12}) {
      ExecResult A = runAst(F, {Arg, Arg + 1});
      CfgExecResult C = runLowered(L, {Arg, Arg + 1});
      ASSERT_TRUE(A.Finished && C.Finished) << Src << " arg " << Arg;
      ASSERT_EQ(A.ReturnValue, C.ReturnValue) << Src << " arg " << Arg;
    }
  }
}

TEST(CfgInterp, GotoExecutes) {
  // The CFG interpreter handles gotos the AST walker does not.
  Function F = parseOne(R"(
    func f(n) {
      var i = 0;
      top:
      i = i + 1;
      if (i < n) { goto top; }
      return i;
    }
  )");
  LoweredFunction L = lowerOne(F);
  CfgExecResult R = runLowered(L, {5});
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.ReturnValue, 5);
}

TEST(CfgInterp, BlockCountsAreSane) {
  Function F = parseOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  LoweredFunction L = lowerOne(F);
  CfgExecResult R = runLowered(L, {4});
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.BlockCounts[L.Graph.entry()], 1u);
  EXPECT_EQ(R.BlockCounts[L.Graph.exit()], 1u);
  // The loop body runs 4 times; the header 5 times.
  uint64_t MaxCount = 0;
  for (uint64_t C : R.BlockCounts)
    MaxCount = std::max(MaxCount, C);
  EXPECT_EQ(MaxCount, 5u);
}

class DifferentialExecution : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialExecution, AstAndCfgAgreeOnGeneratedPrograms) {
  Rng R(GetParam() * 1201 + 17);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 10 + static_cast<uint32_t>(R.nextBelow(80));
  Opts.GotoProb = 0.0; // The AST walker does not model gotos.
  Function F = generateFunction(R, Opts, "gen");
  LoweredFunction L = lowerOne(F);

  for (int Trial = 0; Trial < 4; ++Trial) {
    std::vector<int64_t> Args;
    for (uint32_t I = 0; I < Opts.NumParams; ++I)
      Args.push_back(R.nextInRange(-20, 20));
    ExecResult A = runAst(F, Args, 200000);
    CfgExecResult C = runLowered(L, Args, 400000);
    if (!A.Finished || !C.Finished)
      continue; // Ran into the budget (e.g. a large generated loop nest).
    ASSERT_EQ(A.ReturnValue, C.ReturnValue)
        << "seed " << GetParam() << " trial " << Trial << "\n"
        << formatFunction(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialExecution,
                         ::testing::Range<uint64_t>(0, 120));

// Dynamic control-region check: a complete run's trace plus the return
// edge is a closed walk; closed walks decompose into simple cycles, and a
// simple cycle contains two cycle-equivalent nodes both-or-neither (each
// at most once). Hence equal per-run execution counts within a class.
class DynamicControlRegions : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicControlRegions, CycleEquivalentNodesRunEquallyOften) {
  Rng R(GetParam() * 907 + 61);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 10 + static_cast<uint32_t>(R.nextBelow(70));
  Opts.GotoProb = GetParam() % 3 == 0 ? 0.08 : 0.0; // Gotos welcome here.
  Function F = generateFunction(R, Opts, "gen");
  LoweredFunction L = lowerOne(F);
  ControlRegionsResult CR = computeControlRegionsLinear(FrozenCfg(L.Graph));

  for (int Trial = 0; Trial < 3; ++Trial) {
    std::vector<int64_t> Args;
    for (uint32_t I = 0; I < Opts.NumParams; ++I)
      Args.push_back(R.nextInRange(-10, 30));
    CfgExecResult Run = runLowered(L, Args, 400000);
    if (!Run.Finished)
      continue;
    // Per class, all executed counts must coincide.
    std::vector<int64_t> ClassCount(CR.NumClasses, -1);
    for (NodeId N = 0; N < L.Graph.numNodes(); ++N) {
      int64_t C = static_cast<int64_t>(Run.BlockCounts[N]);
      int64_t &Slot = ClassCount[CR.NodeClass[N]];
      if (Slot < 0)
        Slot = C;
      ASSERT_EQ(Slot, C) << "seed " << GetParam() << " node " << N << " ("
                         << L.Graph.nodeName(N) << ") trial " << Trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicControlRegions,
                         ::testing::Range<uint64_t>(0, 120));

// And the contrast: the *weak* (CD-set) partition does NOT guarantee equal
// execution counts — the loop-header/body counterexample from the Theorem
// 7 erratum, observed dynamically.
TEST(DynamicControlRegionsErratum, WeakClassesCanDisagreeOnCounts) {
  Function F = parseOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  LoweredFunction L = lowerOne(F);
  ControlRegionsResult Weak = computeControlRegionsFOW(FrozenCfg(L.Graph));
  CfgExecResult Run = runLowered(L, {3});
  ASSERT_TRUE(Run.Finished);
  bool SomeWeakClassDisagrees = false;
  for (NodeId A = 0; A < L.Graph.numNodes(); ++A)
    for (NodeId B = A + 1; B < L.Graph.numNodes(); ++B)
      if (Weak.NodeClass[A] == Weak.NodeClass[B] &&
          Run.BlockCounts[A] != Run.BlockCounts[B])
        SomeWeakClassDisagrees = true;
  EXPECT_TRUE(SomeWeakClassDisagrees)
      << "expected the header (4 runs) and body (3 runs) to share a weak "
         "class";
}
