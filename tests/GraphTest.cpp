//===- GraphTest.cpp - CFG substrate unit tests -------------------------------===//
//
// Part of the PST library test suite.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/SeseOracle.h"
#include "pst/graph/Cfg.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/CfgIO.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace pst;

namespace {

Cfg makeDiamond() {
  Cfg G;
  NodeId S = G.addNode("s");
  NodeId A = G.addNode("a");
  NodeId B = G.addNode("b");
  NodeId C = G.addNode("c");
  NodeId E = G.addNode("e");
  G.addEdge(S, A);
  G.addEdge(A, B);
  G.addEdge(A, C);
  G.addEdge(B, E);
  G.addEdge(C, E);
  G.setEntry(S);
  G.setExit(E);
  return G;
}

} // namespace

TEST(Cfg, BasicAccessors) {
  Cfg G = makeDiamond();
  EXPECT_EQ(G.numNodes(), 5u);
  EXPECT_EQ(G.numEdges(), 5u);
  EXPECT_EQ(G.source(1), 1u);
  EXPECT_EQ(G.target(1), 2u);
  EXPECT_EQ(G.successors(1), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(G.predecessors(4), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(G.nodeName(0), "s");
}

TEST(Cfg, UnlabeledNodeNames) {
  Cfg G;
  NodeId N = G.addNode();
  EXPECT_EQ(G.nodeName(N), "n0");
  G.setNodeLabel(N, "renamed");
  EXPECT_EQ(G.nodeName(N), "renamed");
}

TEST(Cfg, MultigraphAllowed) {
  Cfg G;
  NodeId A = G.addNode();
  NodeId B = G.addNode();
  G.addEdge(A, B);
  G.addEdge(A, B); // Parallel.
  G.addEdge(B, B); // Self loop.
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_EQ(G.succEdges(A).size(), 2u);
  EXPECT_EQ(G.succEdges(B).size(), 1u);
  EXPECT_EQ(G.predEdges(B).size(), 3u);
}

TEST(Dfs, VisitsEverythingOnce) {
  Cfg G = makeDiamond();
  DfsResult R = depthFirstSearch(FrozenCfg(G), G.entry());
  EXPECT_EQ(R.Preorder.size(), 5u);
  EXPECT_EQ(R.Postorder.size(), 5u);
  EXPECT_EQ(R.Preorder[0], G.entry());
  EXPECT_EQ(R.Postorder.back(), G.entry());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_NE(R.PreNum[N], UINT32_MAX);
}

TEST(Dfs, ParentEdgesFormTree) {
  Cfg G = makeDiamond();
  DfsResult R = depthFirstSearch(FrozenCfg(G), G.entry());
  EXPECT_EQ(R.ParentEdge[G.entry()], InvalidEdge);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (N == G.entry())
      continue;
    ASSERT_NE(R.ParentEdge[N], InvalidEdge);
    EXPECT_EQ(G.target(R.ParentEdge[N]), N);
  }
}

TEST(Rpo, EntryFirstExitLast) {
  Cfg G = makeDiamond();
  std::vector<NodeId> RPO = reversePostOrder(FrozenCfg(G));
  ASSERT_EQ(RPO.size(), 5u);
  EXPECT_EQ(RPO.front(), G.entry());
  EXPECT_EQ(RPO.back(), G.exit());
}

TEST(Validate, AcceptsDiamond) {
  std::string Why;
  EXPECT_TRUE(validateCfg(makeDiamond(), &Why)) << Why;
}

TEST(Validate, RejectsMissingEntry) {
  Cfg G;
  G.addNode();
  std::string Why;
  EXPECT_FALSE(validateCfg(G, &Why));
  EXPECT_NE(Why.find("entry"), std::string::npos);
}

TEST(Validate, RejectsUnreachableNode) {
  Cfg G = makeDiamond();
  G.addNode("stranded");
  std::string Why;
  EXPECT_FALSE(validateCfg(G, &Why));
  EXPECT_NE(Why.find("stranded"), std::string::npos);
}

TEST(Validate, RejectsNodeNotReachingExit) {
  Cfg G = makeDiamond();
  NodeId Dead = G.addNode("dead");
  G.addEdge(1, Dead); // Reachable but cannot reach exit.
  std::string Why;
  EXPECT_FALSE(validateCfg(G, &Why));
  EXPECT_NE(Why.find("dead"), std::string::npos);
}

TEST(Validate, RejectsEdgeIntoEntry) {
  Cfg G = makeDiamond();
  G.addEdge(1, G.entry());
  EXPECT_FALSE(validateCfg(G));
}

TEST(Reverse, SwapsEverything) {
  Cfg G = makeDiamond();
  Cfg R = reverseCfg(G);
  EXPECT_EQ(R.entry(), G.exit());
  EXPECT_EQ(R.exit(), G.entry());
  ASSERT_EQ(R.numEdges(), G.numEdges());
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    EXPECT_EQ(R.source(E), G.target(E));
    EXPECT_EQ(R.target(E), G.source(E));
  }
  EXPECT_TRUE(validateCfg(R));
}

TEST(Simplify, MergesChains) {
  Cfg G = chainCfg(5); // entry -> b0..b4 -> exit.
  Cfg S = simplifyCfg(G);
  // Entry and exit stay separate; the five inner blocks fuse into one.
  EXPECT_EQ(S.numNodes(), 3u);
  EXPECT_TRUE(validateCfg(S));
}

TEST(Simplify, KeepsDiamond) {
  Cfg G = makeDiamond();
  Cfg S = simplifyCfg(G);
  EXPECT_EQ(S.numNodes(), G.numNodes());
  EXPECT_EQ(S.numEdges(), G.numEdges());
}

TEST(Simplify, KeepsSelfLoopAndStaysValid) {
  Cfg G;
  NodeId S = G.addNode("s");
  NodeId A = G.addNode("a");
  NodeId B = G.addNode("b");
  NodeId E = G.addNode("e");
  G.addEdge(S, A);
  G.addEdge(A, A); // Self loop.
  G.addEdge(A, B);
  G.addEdge(B, E);
  G.setEntry(S);
  G.setExit(E);
  Cfg Out = simplifyCfg(G);
  EXPECT_TRUE(validateCfg(Out));
  // The self loop must survive.
  bool HasSelf = false;
  for (EdgeId Ed = 0; Ed < Out.numEdges(); ++Ed)
    HasSelf |= Out.source(Ed) == Out.target(Ed);
  EXPECT_TRUE(HasSelf);
}

TEST(Reducible, StructuredGraphsAre) {
  EXPECT_TRUE(isReducible(FrozenCfg(makeDiamond())));
  EXPECT_TRUE(isReducible(FrozenCfg(chainCfg(4))));
  EXPECT_TRUE(isReducible(FrozenCfg(nestedWhileCfg(3))));
  EXPECT_TRUE(isReducible(FrozenCfg(nestedRepeatUntilCfg(4))));
}

TEST(Reducible, IrreducibleTriangleIsNot) {
  EXPECT_FALSE(isReducible(FrozenCfg(irreducibleCfg(1))));
  EXPECT_FALSE(isReducible(FrozenCfg(irreducibleCfg(3))));
}

TEST(CfgIO, DotContainsAllEdges) {
  Cfg G = makeDiamond();
  std::ostringstream OS;
  printDot(G, OS, "d");
  std::string S = OS.str();
  EXPECT_NE(S.find("digraph d"), std::string::npos);
  EXPECT_NE(S.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(S.find("n3 -> n4"), std::string::npos);
}

TEST(CfgIO, RoundTrip) {
  Cfg G = makeDiamond();
  std::ostringstream OS;
  printCfgText(G, OS);
  std::string Error;
  auto Parsed = parseCfgText(OS.str(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->numNodes(), G.numNodes());
  EXPECT_EQ(Parsed->numEdges(), G.numEdges());
  EXPECT_EQ(Parsed->entry(), G.entry());
  EXPECT_EQ(Parsed->exit(), G.exit());
  EXPECT_TRUE(validateCfg(*Parsed));
}

TEST(CfgIO, ParseRejectsUnknownNode) {
  std::string Error;
  auto R = parseCfgText("cfg x\nnode a entry\nedge a b\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_NE(Error.find("unknown node 'b'"), std::string::npos);
}

TEST(CfgIO, ParseRejectsDuplicateLabel) {
  std::string Error;
  auto R = parseCfgText("cfg x\nnode a entry\nnode a exit\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(CfgIO, ParseRejectsSecondEntryOrExit) {
  std::string Error;
  auto R = parseCfgText(
      "cfg x\nnode a entry\nnode b entry\nnode c exit\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 3: second entry node 'b' ('a' is already the entry)");
  R = parseCfgText("cfg x\nnode a entry\nnode b exit\nnode c exit\nend\n",
                   &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 4: second exit node 'c' ('b' is already the exit)");
}

TEST(CfgIO, ParseRejectsTrailingTokens) {
  std::string Error;
  auto R = parseCfgText(
      "cfg x\nnode a entry\nnode c exit\nedge a c garbage\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 4: unexpected token 'garbage' on edge line");
  R = parseCfgText("cfg x\nnode a entry exit\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 2: unexpected token 'exit' on node line");
}

TEST(CfgIO, ParseRejectsHeaderWithoutName) {
  std::string Error;
  auto R = parseCfgText("cfg\nnode a entry\nnode b exit\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 1: cfg line missing name");
}

TEST(CfgIO, ParseRejectsTokensAfterHeaderName) {
  std::string Error;
  auto R =
      parseCfgText("cfg a b c\nnode a entry\nnode b exit\nend\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 1: unexpected token 'b' on cfg line");
}

TEST(CfgIO, ParseRejectsSecondHeader) {
  std::string Error;
  auto R = parseCfgText("cfg x\nnode a entry\ncfg y\nnode b exit\nend\n",
                        &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 3: second 'cfg' header");
}

TEST(CfgIO, ParseRejectsTokensAfterEnd) {
  std::string Error;
  auto R = parseCfgText("cfg x\nnode a entry\nnode b exit\nend garbage\n",
                        &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 4: unexpected token 'garbage' on end line");
}

TEST(CfgIO, ParseRejectsLinesAfterEnd) {
  std::string Error;
  auto R = parseCfgText(
      "cfg x\nnode a entry\nnode b exit\nend\n\n# note\nmore stuff here\n",
      &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Error, "line 7: unexpected 'more' after 'end'");
  // Blank and comment lines after the end are still fine.
  R = parseCfgText("cfg x\nnode a entry\nnode b exit\nedge a b\nend\n\n"
                   "  # note\n",
                   &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->numEdges(), 1u);
}

TEST(CfgIO, ParseRejectsMissingEnd) {
  std::string Error;
  auto R = parseCfgText("cfg x\nnode a entry\n", &Error);
  EXPECT_FALSE(R.has_value());
  EXPECT_NE(Error.find("end"), std::string::npos);
}

TEST(CfgIO, ParseSkipsComments) {
  std::string Error;
  auto R = parseCfgText(
      "cfg x\n# comment\nnode a entry\nnode b exit\nedge a b\nend\n", &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->numNodes(), 2u);
}

namespace {

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream IS(Text);
  for (std::string L; std::getline(IS, L);)
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + '\n';
  return Out;
}

/// One seeded mutation of a CFG text: a line dropped, a line copied to a
/// random place, two tokens anywhere in the text swapped, the text cut at
/// a random byte, or one byte flipped.
std::string mutateCfgText(std::string Text, Rng &R) {
  if (Text.empty())
    return Text;
  std::vector<std::string> Lines = splitLines(Text);
  switch (R.nextBelow(5)) {
  case 0:
    Lines.erase(Lines.begin() + R.nextBelow(Lines.size()));
    return joinLines(Lines);
  case 1: {
    std::string Copy = Lines[R.nextBelow(Lines.size())];
    Lines.insert(Lines.begin() + R.nextBelow(Lines.size() + 1), Copy);
    return joinLines(Lines);
  }
  case 2: {
    std::vector<std::vector<std::string>> Toks(Lines.size());
    std::vector<std::string *> All;
    for (size_t I = 0; I < Lines.size(); ++I) {
      std::istringstream LS(Lines[I]);
      for (std::string T; LS >> T;)
        Toks[I].push_back(T);
      for (std::string &T : Toks[I])
        All.push_back(&T);
    }
    if (All.size() < 2)
      return Text;
    std::swap(*All[R.nextBelow(All.size())], *All[R.nextBelow(All.size())]);
    for (size_t I = 0; I < Lines.size(); ++I) {
      Lines[I].clear();
      for (const std::string &T : Toks[I])
        Lines[I] += (Lines[I].empty() ? "" : " ") + T;
    }
    return joinLines(Lines);
  }
  case 3:
    Text.resize(R.nextBelow(Text.size()));
    return Text;
  default:
    Text[R.nextBelow(Text.size())] ^= static_cast<char>(1 + R.nextBelow(255));
    return Text;
  }
}

} // namespace

// Seeded mutants of printed CFG texts, one to three mutations each. The
// parser must reject every mutant with a diagnostic or return a graph, and
// a returned graph that passes validateCfg must get exactly the oracle's
// canonical regions from the PST.
TEST(CfgIO, MutatedTextsAreRejectedOrAnalyzed) {
  uint32_t Rejected = 0, Invalid = 0, Checked = 0;
  for (uint64_t Seed = 0; Seed < 500; ++Seed) {
    Rng R(Seed * 7919 + 5);
    RandomCfgOptions Opts;
    Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(9));
    Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(8));
    std::ostringstream OS;
    printCfgText(randomBackboneCfg(R, Opts), OS, "m" + std::to_string(Seed));
    for (int M = 0; M < 10; ++M) {
      std::string Text = OS.str();
      for (uint64_t K = 1 + R.nextBelow(3); K > 0; --K)
        Text = mutateCfgText(Text, R);
      std::string Error;
      std::optional<Cfg> G = parseCfgText(Text, &Error);
      if (!G) {
        EXPECT_FALSE(Error.empty()) << Text;
        ++Rejected;
        continue;
      }
      if (!validateCfg(*G)) {
        ++Invalid;
        continue;
      }
      ++Checked;
      ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(*G));
      std::set<std::pair<EdgeId, EdgeId>> Fast;
      for (RegionId X = 1; X < T.numRegions(); ++X)
        Fast.insert({T.region(X).EntryEdge, T.region(X).ExitEdge});
      auto Oracle = canonicalRegionsBrute(*G);
      std::set<std::pair<EdgeId, EdgeId>> Slow(Oracle.begin(), Oracle.end());
      EXPECT_EQ(Fast, Slow) << Text;
    }
  }
  // Each outcome is reached often, so the sweep exercises all three paths.
  std::string Counts = "rejected " + std::to_string(Rejected) +
                       ", invalid " + std::to_string(Invalid) +
                       ", checked " + std::to_string(Checked);
  EXPECT_GE(Rejected, 2000u) << Counts;
  EXPECT_GE(Invalid, 100u) << Counts;
  EXPECT_GE(Checked, 200u) << Counts;
}
