//===- GraphTest.cpp - CFG substrate unit tests -------------------------------===//
//
// Part of the PST library test suite.
//
//===----------------------------------------------------------------------===//

#include "pst/graph/Cfg.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/CfgIO.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

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
