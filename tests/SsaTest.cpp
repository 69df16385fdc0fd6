//===- SsaTest.cpp - SSA construction tests ------------------------------------===//
//
// Part of the PST library test suite: golden phi placements, Theorem-9
// equivalence of classic and PST-based placement (on hand-written code,
// generated programs and the full corpus style), and SSA verification
// after renaming.
//
//===----------------------------------------------------------------------===//

#include "pst/ssa/SsaBuilder.h"

#include "pst/core/ProgramStructureTree.h"
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

/// Index of variable \p Name.
VarId varOf(const LoweredFunction &F, const std::string &Name) {
  for (VarId V = 0; V < F.numVars(); ++V)
    if (F.VarNames[V] == Name)
      return V;
  ADD_FAILURE() << "no variable " << Name;
  return InvalidVar;
}

void expectPlacementsEqual(const LoweredFunction &F) {
  FrozenCfg FV(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(FV);
  PhiPlacement Classic = placePhisClassic(F, FV);
  PhiPlacement Pst = placePhisPst(F, FV, T);
  ASSERT_EQ(Classic.PhiBlocks.size(), Pst.PhiBlocks.size());
  for (VarId V = 0; V < F.numVars(); ++V)
    EXPECT_EQ(Classic.PhiBlocks[V], Pst.PhiBlocks[V])
        << F.Name << " variable " << F.VarNames[V];
}

} // namespace

TEST(PhiPlacement, StraightLineNeedsNoPhis) {
  LoweredFunction F =
      compileOne("func f(a) { var x = a; x = x + 1; return x; }");
  PhiPlacement P = placePhisClassic(F, FrozenCfg(F.Graph));
  for (VarId V = 0; V < F.numVars(); ++V)
    EXPECT_TRUE(P.PhiBlocks[V].empty());
}

TEST(PhiPlacement, DiamondJoinGetsPhi) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }");
  PhiPlacement P = placePhisClassic(F, FrozenCfg(F.Graph));
  VarId X = varOf(F, "x");
  ASSERT_EQ(P.PhiBlocks[X].size(), 1u);
  // The phi block is the join: both arms are its predecessors.
  NodeId Join = P.PhiBlocks[X][0];
  EXPECT_EQ(F.Graph.predEdges(Join).size(), 2u);
  // 'a' is only defined at entry: no phi.
  EXPECT_TRUE(P.PhiBlocks[varOf(F, "a")].empty());
}

TEST(PhiPlacement, LoopHeaderGetsPhi) {
  LoweredFunction F = compileOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  PhiPlacement P = placePhisClassic(F, FrozenCfg(F.Graph));
  VarId I = varOf(F, "i");
  ASSERT_FALSE(P.PhiBlocks[I].empty());
  // The loop header is a phi block (merge of entry path and backedge).
  bool HeaderFound = false;
  for (NodeId B : P.PhiBlocks[I])
    HeaderFound |= F.Graph.predEdges(B).size() >= 2;
  EXPECT_TRUE(HeaderFound);
}

TEST(PhiPlacement, PstMatchesClassicOnGoldens) {
  const char *Sources[] = {
      "func f(a) { var x = a; return x; }",
      "func f(a) { var x = 0; if (a > 0) { x = 1; } return x; }",
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }",
      "func f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; "
      "i = i + 1; } return s; }",
      "func f(n) { var i = 0; do { i = i + 1; } while (i < n); return i; }",
      "func f(n) { var s = 0; var i = 0; for (i = 0; i < n; i = i + 1) { "
      "if (s > 10) { break; } s = s + i; } return s; }",
      "func f(a) { var x = 0; switch (a) { case 0: x = 1; case 1: x = 2; "
      "default: x = 3; } return x; }",
      // Nested loops with defs at several depths.
      "func f(n) { var i = 0; var j = 0; var s = 0; while (i < n) { "
      "j = 0; while (j < i) { s = s + j; j = j + 1; } i = i + 1; } "
      "return s; }",
      // Goto-made irreducible flow.
      "func f(a) { var x = 0; if (a > 0) { goto mid; } while (x < 10) { "
      "x = x + 1; mid: x = x + 2; } return x; }",
  };
  for (const char *Src : Sources)
    expectPlacementsEqual(compileOne(Src));
}

TEST(PhiPlacement, PstExaminesFewerRegionsForLocalVars) {
  // s is only assigned inside the inner loop; the PST placement must not
  // examine every region for it.
  LoweredFunction F = compileOne(R"(
    func f(n) {
      var a = 0;
      var b = 0;
      var c = 0;
      if (n > 0) { a = 1; } else { a = 2; }
      if (n > 1) { b = 1; } else { b = 2; }
      if (n > 2) { c = 1; } else { c = 2; }
      var s = 0;
      while (s < n) { s = s + 1; }
      return a + b + c + s;
    }
  )");
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  PhiPlacement P = placePhisPst(F, V, T);
  VarId S = varOf(F, "s");
  EXPECT_LT(P.RegionsExamined[S], P.RegionsTotal);
  EXPECT_GT(P.RegionsTotal, 5u);
}

class PhiPlacementRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhiPlacementRandomTest, Theorem9HoldsOnGeneratedPrograms) {
  Rng R(GetParam() * 577 + 19);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 15 + static_cast<uint32_t>(R.nextBelow(150));
  Opts.GotoProb = GetParam() % 4 == 0 ? 0.08 : 0.0;
  Function F = generateFunction(R, Opts, "gen");
  auto L = lowerFunction(F);
  ASSERT_TRUE(L.has_value());
  ASSERT_TRUE(validateCfg(L->Graph));
  expectPlacementsEqual(*L);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhiPlacementRandomTest,
                         ::testing::Range<uint64_t>(0, 80));

TEST(SsaBuilder, StraightLineVersions) {
  LoweredFunction F =
      compileOne("func f(a) { var x = a; x = x + a; return x; }");
  SsaForm S = buildSsa(F, placePhisClassic(F, FrozenCfg(F.Graph)));
  std::string Why;
  EXPECT_TRUE(verifySsa(F, S, &Why)) << Why;
  VarId X = varOf(F, "x");
  EXPECT_EQ(S.NumVersions[X], 3u); // undef + two defs.
  EXPECT_EQ(S.numPhis(), 0u);
}

TEST(SsaBuilder, DiamondPhiOperands) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }");
  SsaForm S = buildSsa(F, placePhisClassic(F, FrozenCfg(F.Graph)));
  std::string Why;
  ASSERT_TRUE(verifySsa(F, S, &Why)) << Why;
  EXPECT_EQ(S.numPhis(), 1u);
  // The phi merges two distinct non-undef versions.
  for (NodeId B = 0; B < F.Graph.numNodes(); ++B)
    for (const SsaPhi &Phi : S.Phis[B]) {
      ASSERT_EQ(Phi.Incoming.size(), 2u);
      EXPECT_NE(Phi.Incoming[0].second, Phi.Incoming[1].second);
      EXPECT_NE(Phi.Incoming[0].second, 0u);
      EXPECT_NE(Phi.Incoming[1].second, 0u);
    }
}

TEST(SsaBuilder, LoopPhiUsesBackedgeVersion) {
  LoweredFunction F = compileOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  SsaForm S = buildSsa(F, placePhisClassic(F, FrozenCfg(F.Graph)));
  std::string Why;
  ASSERT_TRUE(verifySsa(F, S, &Why)) << Why;
  EXPECT_GE(S.numPhis(), 1u);
}

TEST(SsaBuilder, PstPlacementProducesVerifiableSsa) {
  LoweredFunction F = compileOne(R"(
    func f(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        if (s % 2 == 0) { s = s + i; } else { s = s - 1; }
        i = i + 1;
      }
      return s;
    }
  )");
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  SsaForm S = buildSsa(F, placePhisPst(F, V, T));
  std::string Why;
  EXPECT_TRUE(verifySsa(F, S, &Why)) << Why;
}

TEST(SsaBuilder, FormatShowsPhis) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = 0; if (a > 0) { x = 1; } return x; }");
  SsaForm S = buildSsa(F, placePhisClassic(F, FrozenCfg(F.Graph)));
  std::string Text = formatSsa(F, S);
  EXPECT_NE(Text.find("phi("), std::string::npos);
  EXPECT_NE(Text.find("x."), std::string::npos);
}

class SsaRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsaRandomTest, RenamingVerifiesOnGeneratedPrograms) {
  Rng R(GetParam() * 701 + 23);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 20 + static_cast<uint32_t>(R.nextBelow(120));
  Opts.GotoProb = GetParam() % 3 == 0 ? 0.06 : 0.0;
  Function Fn = generateFunction(R, Opts, "gen");
  auto L = lowerFunction(Fn);
  ASSERT_TRUE(L.has_value());

  FrozenCfg V(L->Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  for (bool UsePst : {false, true}) {
    SsaForm S = buildSsa(*L, UsePst ? placePhisPst(*L, V, T)
                                    : placePhisClassic(*L, V));
    std::string Why;
    ASSERT_TRUE(verifySsa(*L, S, &Why))
        << "seed " << GetParam() << (UsePst ? " pst: " : " classic: ")
        << Why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsaRandomTest,
                         ::testing::Range<uint64_t>(0, 60));
