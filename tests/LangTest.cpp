//===- LangTest.cpp - MiniLang front-end tests ---------------------------------===//
//
// Part of the PST library test suite: lexer, parser, AST printing and CFG
// lowering, plus generator/corpus integration (every generated procedure
// must lower to a valid CFG whose PST builds).
//
//===----------------------------------------------------------------------===//

#include "pst/lang/Lower.h"

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/StructureMetrics.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/lang/Lexer.h"
#include "pst/lang/Parser.h"
#include "pst/workload/Corpus.h"
#include "pst/workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace pst;

namespace {

LoweredFunction compileOne(const std::string &Src) {
  std::vector<Diagnostic> Diags;
  auto Fns = compile(Src, &Diags);
  EXPECT_TRUE(Fns.has_value())
      << (Diags.empty() ? "no diagnostics" : Diags[0].str());
  EXPECT_EQ(Fns->size(), 1u);
  return std::move((*Fns)[0]);
}

std::vector<Diagnostic> expectCompileError(const std::string &Src) {
  std::vector<Diagnostic> Diags;
  auto Fns = compile(Src, &Diags);
  EXPECT_FALSE(Fns.has_value());
  EXPECT_FALSE(Diags.empty());
  return Diags;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, KeywordsAndIdents) {
  auto T = lex("func while whilex _x1");
  ASSERT_EQ(T.size(), 5u); // 4 tokens + eof.
  EXPECT_EQ(T[0].Kind, TokKind::KwFunc);
  EXPECT_EQ(T[1].Kind, TokKind::KwWhile);
  EXPECT_EQ(T[2].Kind, TokKind::Ident);
  EXPECT_EQ(T[2].Text, "whilex");
  EXPECT_EQ(T[3].Text, "_x1");
}

TEST(Lexer, NumbersAndOperators) {
  auto T = lex("x = 42 <= 7 != 0 && 1 || 2");
  EXPECT_EQ(T[0].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Kind, TokKind::Assign);
  EXPECT_EQ(T[2].Kind, TokKind::Number);
  EXPECT_EQ(T[2].Value, 42);
  EXPECT_EQ(T[3].Kind, TokKind::LessEq);
  EXPECT_EQ(T[5].Kind, TokKind::NotEq);
  EXPECT_EQ(T[7].Kind, TokKind::AndAnd);
  EXPECT_EQ(T[9].Kind, TokKind::OrOr);
}

TEST(Lexer, CommentsAndLocations) {
  auto T = lex("a # comment with words\nb");
  ASSERT_GE(T.size(), 3u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[1].Line, 2u);
}

TEST(Lexer, UnknownCharacter) {
  auto T = lex("@");
  EXPECT_EQ(T[0].Kind, TokKind::Unknown);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, SimpleFunction) {
  std::vector<Diagnostic> Diags;
  auto P = parseProgram("func f(a, b) { var x = a + b; return x; }", &Diags);
  ASSERT_TRUE(P.has_value());
  ASSERT_EQ(P->Functions.size(), 1u);
  const Function &F = P->Functions[0];
  EXPECT_EQ(F.Name, "f");
  EXPECT_EQ(F.Params, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(F.Body->Body.size(), 2u);
}

TEST(Parser, PrecedenceInFormat) {
  auto P = parseProgram("func f() { var x = 1 + 2 * 3 < 4 && 5 == 6; }");
  ASSERT_TRUE(P.has_value());
  const Stmt &D = *P->Functions[0].Body->Body[0];
  // * binds tighter than +, which binds tighter than <, then ==, then &&.
  EXPECT_EQ(formatExpr(*D.Value), "(((1 + (2 * 3)) < 4) && (5 == 6))");
}

TEST(Parser, DanglingElseBindsInner) {
  auto P = parseProgram(
      "func f(a) { if (a < 1) if (a < 2) a = 1; else a = 2; }");
  ASSERT_TRUE(P.has_value());
  const Stmt &Outer = *P->Functions[0].Body->Body[0];
  ASSERT_EQ(Outer.Kind, StmtKind::If);
  EXPECT_EQ(Outer.Else, nullptr);
  ASSERT_EQ(Outer.Then->Kind, StmtKind::If);
  EXPECT_NE(Outer.Then->Else, nullptr);
}

TEST(Parser, AllStatementForms) {
  const char *Src = R"(
    func f(n) {
      var i = 0;
      var s = 0;
      while (i < n) { s = s + i; i = i + 1; }
      do { s = s - 1; } while (s > 10);
      for (i = 0; i < 4; i = i + 1) { s = s + 2; }
      switch (s % 3) {
        case 0: s = 1;
        case 1: s = 2;
        default: s = 3;
      }
      if (s > 0) { work(s); } else { work(0); }
      top:
      s = s - 1;
      if (s > 0) { goto top; }
      return s;
    }
  )";
  std::vector<Diagnostic> Diags;
  auto P = parseProgram(Src, &Diags);
  ASSERT_TRUE(P.has_value()) << (Diags.empty() ? "" : Diags[0].str());
}

TEST(Parser, ReportsExpectedToken) {
  std::vector<Diagnostic> Diags;
  auto P = parseProgram("func f( { }", &Diags);
  EXPECT_FALSE(P.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("parameter"), std::string::npos);
}

TEST(Parser, ReportsMissingSemi) {
  std::vector<Diagnostic> Diags;
  auto P = parseProgram("func f() { var x = 1 }", &Diags);
  EXPECT_FALSE(P.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("';'"), std::string::npos);
}

TEST(Parser, DuplicateDefaultRejected) {
  std::vector<Diagnostic> Diags;
  auto P = parseProgram(
      "func f(x) { switch (x) { default: x = 1; default: x = 2; } }",
      &Diags);
  EXPECT_FALSE(P.has_value());
}

TEST(Parser, FormatRoundTrips) {
  const char *Src =
      "func f(a) { var x = 1; while (x < a) { x = x + 1; } return x; }";
  auto P1 = parseProgram(Src);
  ASSERT_TRUE(P1.has_value());
  std::string Printed = formatFunction(P1->Functions[0]);
  auto P2 = parseProgram(Printed);
  ASSERT_TRUE(P2.has_value()) << Printed;
  EXPECT_EQ(Printed, formatFunction(P2->Functions[0]));
}

static std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I < N; ++I)
    Out += S;
  return Out;
}

static void expectDepthLimitDiagnostic(const std::string &Src) {
  std::vector<Diagnostic> Diags = expectCompileError(Src);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("depth limit of " +
                                  std::to_string(MaxParseDepth)),
            std::string::npos)
      << Diags[0].str();
}

TEST(Parser, DeepNestingIsDiagnosedNotACrash) {
  // Each shape recursed once per level before the bound, deep enough to
  // overflow the stack.
  expectDepthLimitDiagnostic("func f(x) { return " + repeat("(", 20000) + "x" +
                             repeat(")", 20000) + "; }");
  expectDepthLimitDiagnostic("func f(x) { " + repeat("if (x) ", 20000) +
                             "x = 1; }");
  expectDepthLimitDiagnostic("func f(x) { " + repeat("{ ", 200000) +
                             repeat("} ", 200000) + "}");
  expectDepthLimitDiagnostic("func f(x) { return " + repeat("- ", 200000) +
                             "x; }");
}

TEST(Parser, NestingAtTheDepthLimitCompiles) {
  // 'return' is one level, its expression one, the first unary one, each
  // '-' one more and the primary one: K minus signs nest K + 4 deep.
  auto Unary = [](size_t K) {
    return "func f(x) { return " + repeat("- ", K) + "x; }";
  };
  LoweredFunction F = compileOne(Unary(MaxParseDepth - 4));
  EXPECT_TRUE(validateCfg(F.Graph));
  expectDepthLimitDiagnostic(Unary(MaxParseDepth - 3));
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

TEST(Lower, StraightLine) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = a; var y = x + 1; return y; }");
  EXPECT_TRUE(validateCfg(F.Graph));
  // entry, body, exit.
  EXPECT_EQ(F.Graph.numNodes(), 3u);
  EXPECT_EQ(F.numVars(), 3u); // a, x, y.
}

TEST(Lower, IfElseShape) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = 0; if (a > 0) { x = 1; } else { x = 2; } "
      "return x; }");
  EXPECT_TRUE(validateCfg(F.Graph));
  // entry, body(cond), then, else, join (a pure merge), continuation
  // (with the return), exit.
  EXPECT_EQ(F.Graph.numNodes(), 7u);
  EXPECT_TRUE(isReducible(FrozenCfg(F.Graph)));
}

TEST(Lower, WhileLoopShape) {
  LoweredFunction F = compileOne(
      "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
  EXPECT_TRUE(validateCfg(F.Graph));
  FrozenCfg V(F.Graph);
  EXPECT_TRUE(isReducible(V));
  // The header must have two successors and an incoming backedge.
  bool FoundBackedge = false;
  for (EdgeId E = 0; E < F.Graph.numEdges(); ++E) {
    DfsResult D = depthFirstSearch(V, F.Graph.entry());
    if (D.PreNum[F.Graph.target(E)] < D.PreNum[F.Graph.source(E)])
      FoundBackedge = true;
  }
  EXPECT_TRUE(FoundBackedge);
}

TEST(Lower, DefUseTracking) {
  LoweredFunction F = compileOne(
      "func f(a) { var x = a + a; var y = x * 2; x = y; return x; }");
  VarId A = 0, X = 1, Y = 2;
  EXPECT_EQ(F.VarNames[A], "a");
  EXPECT_EQ(F.VarNames[X], "x");
  // a defined in entry (param), x defined in body twice, y once.
  EXPECT_EQ(F.defBlocks(A).size(), 1u);
  EXPECT_EQ(F.defBlocks(X).size(), 1u); // Both defs in the same block.
  EXPECT_FALSE(F.useBlocks(Y).empty());
}

TEST(Lower, ReturnCutsFlow) {
  LoweredFunction F = compileOne(
      "func f(a) { if (a > 0) { return 1; } return 2; }");
  EXPECT_TRUE(validateCfg(F.Graph));
  // Dead join after both-return if is pruned: no node without a path to
  // exit, no unreachable node (validate checks both).
}

TEST(Lower, GotoMakesIrreducible) {
  // Jump into the middle of a loop from outside: the classic irreducible
  // shape.
  const char *Src = R"(
    func f(a) {
      var x = 0;
      if (a > 0) { goto inside; }
      while (x < 10) {
        x = x + 1;
        inside:
        x = x + 2;
      }
      return x;
    }
  )";
  LoweredFunction F = compileOne(Src);
  EXPECT_TRUE(validateCfg(F.Graph));
  EXPECT_FALSE(isReducible(FrozenCfg(F.Graph)));
}

TEST(Lower, InfiniteLoopGetsEscapeEdge) {
  LoweredFunction F = compileOne(
      "func f() { var x = 0; while (1 > 0) { x = x + 1; } return x; }");
  // while(1>0) still lowers with a header exit edge because the condition
  // is structural; force a truly exitless loop with goto instead.
  EXPECT_TRUE(validateCfg(F.Graph));

  LoweredFunction G = compileOne(
      "func g() { var x = 0; spin: x = x + 1; goto spin; }");
  EXPECT_TRUE(validateCfg(G.Graph));
}

TEST(Lower, BreakAndContinue) {
  LoweredFunction F = compileOne(R"(
    func f(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        if (i > 50) { break; }
        s = s + i;
      }
      return s;
    }
  )");
  EXPECT_TRUE(validateCfg(F.Graph));
  EXPECT_TRUE(isReducible(FrozenCfg(F.Graph)));
}

TEST(Lower, SwitchShape) {
  LoweredFunction F = compileOne(R"(
    func f(x) {
      var r = 0;
      switch (x) {
        case 0: r = 1;
        case 1: r = 2;
        case 2: r = 3;
      }
      return r;
    }
  )");
  EXPECT_TRUE(validateCfg(F.Graph));
  // Selector block must have 4 successors (3 arms + no-default edge).
  bool Found4 = false;
  for (NodeId N = 0; N < F.Graph.numNodes(); ++N)
    Found4 |= F.Graph.succEdges(N).size() == 4;
  EXPECT_TRUE(Found4);
}

TEST(Lower, UndeclaredVariableDiagnosed) {
  auto Diags = expectCompileError("func f() { x = 1; }");
  EXPECT_NE(Diags[0].Message.find("undeclared"), std::string::npos);
}

TEST(Lower, UnknownLabelDiagnosed) {
  auto Diags = expectCompileError("func f() { goto nowhere; }");
  EXPECT_NE(Diags[0].Message.find("unknown label"), std::string::npos);
}

TEST(Lower, BreakOutsideLoopDiagnosed) {
  auto Diags = expectCompileError("func f() { break; }");
  EXPECT_NE(Diags[0].Message.find("break"), std::string::npos);
}

TEST(Lower, DuplicateLabelDiagnosed) {
  auto Diags =
      expectCompileError("func f() { l: var x = 1; l: x = 2; goto l; }");
  EXPECT_NE(Diags[0].Message.find("duplicate label"), std::string::npos);
}

TEST(Lower, RedeclarationDiagnosed) {
  auto Diags = expectCompileError("func f() { var x = 1; var x = 2; }");
  EXPECT_NE(Diags[0].Message.find("redeclaration"), std::string::npos);
}

TEST(Lower, FormatLoweredShowsBlocks) {
  LoweredFunction F = compileOne("func f(a) { return a; }");
  std::string S = formatLowered(F);
  EXPECT_NE(S.find("function f"), std::string::npos);
  EXPECT_NE(S.find("[entry]"), std::string::npos);
  EXPECT_NE(S.find("param a"), std::string::npos);
}

TEST(Lower, PstBuildsOnLoweredCode) {
  LoweredFunction F = compileOne(R"(
    func f(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        if (s % 2 == 0) { s = s + i; } else { s = s - i; }
        i = i + 1;
      }
      return s;
    }
  )");
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  PstStats St = computePstStats(V, T);
  EXPECT_GE(St.NumRegions, 3u);
  EXPECT_GE(St.MaxDepth, 2u);
  EXPECT_TRUE(St.FullyStructured);
}

//===----------------------------------------------------------------------===//
// Generator and corpus
//===----------------------------------------------------------------------===//

class GeneratedProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedProgramTest, LowersValidAndPrintsParseably) {
  Rng R(GetParam() * 977 + 3);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 10 + static_cast<uint32_t>(R.nextBelow(120));
  Opts.GotoProb = GetParam() % 3 == 0 ? 0.08 : 0.0;
  Function F = generateFunction(R, Opts, "gen");

  // Printed source must re-parse (the generator emits real MiniLang).
  std::string Src = formatFunction(F);
  std::vector<Diagnostic> Diags;
  auto P = parseProgram(Src, &Diags);
  ASSERT_TRUE(P.has_value()) << Src;

  auto L = lowerFunction(F, &Diags);
  ASSERT_TRUE(L.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  std::string Why;
  EXPECT_TRUE(validateCfg(L->Graph, &Why)) << Why;

  // And the whole analysis pipeline must run on it.
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(L->Graph));
  EXPECT_GE(T.numRegions(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedProgramTest,
                         ::testing::Range<uint64_t>(0, 60));

TEST(Corpus, MatchesPaperTotals) {
  uint32_t Lines = 0, Procs = 0;
  for (const auto &P : paperCorpusSpec()) {
    Lines += P.Lines;
    Procs += P.Procedures;
  }
  EXPECT_EQ(Lines, 21549u);
  EXPECT_EQ(Procs, 254u);
}

TEST(Corpus, GeneratesAllProcedures) {
  auto Corpus = generatePaperCorpus(42);
  EXPECT_EQ(Corpus.size(), 254u);
  for (const auto &C : Corpus) {
    ASSERT_TRUE(validateCfg(C.Fn.Graph)) << C.Fn.Name;
    ASSERT_GT(C.Fn.Graph.numNodes(), 2u) << C.Fn.Name;
  }
}

TEST(Corpus, DeterministicAcrossRuns) {
  auto A = generatePaperCorpus(7);
  auto B = generatePaperCorpus(7);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Fn.Graph.numNodes(), B[I].Fn.Graph.numNodes());
    EXPECT_EQ(A[I].Fn.Graph.numEdges(), B[I].Fn.Graph.numEdges());
  }
}
