//===- GeneratorsTest.cpp - workload generator tests ---------------------------===//
//
// Part of the PST library test suite.
//
//===----------------------------------------------------------------------===//

#include "pst/workload/CfgGenerators.h"

#include "pst/graph/CfgAlgorithms.h"

#include <gtest/gtest.h>

using namespace pst;

TEST(Generators, ChainShape) {
  Cfg G = chainCfg(5);
  EXPECT_EQ(G.numNodes(), 7u);
  EXPECT_EQ(G.numEdges(), 6u);
  EXPECT_TRUE(validateCfg(G));
}

TEST(Generators, DiamondLadderShape) {
  Cfg G = diamondLadderCfg(4);
  EXPECT_EQ(G.numNodes(), 2u + 4 * 4);
  EXPECT_TRUE(validateCfg(G));
  EXPECT_TRUE(isReducible(FrozenCfg(G)));
}

TEST(Generators, NestedWhileValid) {
  for (uint32_t D = 1; D <= 6; ++D) {
    Cfg G = nestedWhileCfg(D, 2);
    EXPECT_TRUE(validateCfg(G)) << "depth " << D;
    EXPECT_TRUE(isReducible(FrozenCfg(G))) << "depth " << D;
  }
}

TEST(Generators, NestedRepeatUntilValid) {
  for (uint32_t D = 1; D <= 8; ++D) {
    Cfg G = nestedRepeatUntilCfg(D);
    EXPECT_TRUE(validateCfg(G)) << "depth " << D;
    EXPECT_TRUE(isReducible(FrozenCfg(G))) << "depth " << D;
  }
}

TEST(Generators, IrreducibleIsIrreducible) {
  Cfg G = irreducibleCfg(2);
  EXPECT_TRUE(validateCfg(G));
  EXPECT_FALSE(isReducible(FrozenCfg(G)));
}

TEST(Generators, PaperFigureValid) {
  EXPECT_TRUE(validateCfg(paperFigure1Cfg()));
}

class RandomCfgValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCfgValidity, AlwaysValid) {
  Rng R(GetParam());
  RandomCfgOptions Opts;
  Opts.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(40));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(60));
  Opts.SelfLoopProb = 0.15;
  Opts.ParallelProb = 0.15;
  Cfg G = randomBackboneCfg(R, Opts);
  std::string Why;
  EXPECT_TRUE(validateCfg(G, &Why)) << Why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCfgValidity,
                         ::testing::Range<uint64_t>(0, 100));

TEST(RandomCfg, DeterministicForSeed) {
  RandomCfgOptions Opts;
  Opts.NumNodes = 12;
  Opts.NumExtraEdges = 10;
  Rng A(5), B(5);
  Cfg GA = randomBackboneCfg(A, Opts);
  Cfg GB = randomBackboneCfg(B, Opts);
  ASSERT_EQ(GA.numEdges(), GB.numEdges());
  for (EdgeId E = 0; E < GA.numEdges(); ++E) {
    EXPECT_EQ(GA.source(E), GB.source(E));
    EXPECT_EQ(GA.target(E), GB.target(E));
  }
}

TEST(RandomCfg, ForwardOnlyIsAcyclicApartFromSelfLoops) {
  Rng R(77);
  RandomCfgOptions Opts;
  Opts.NumNodes = 20;
  Opts.NumExtraEdges = 25;
  Opts.AllowBackEdges = false;
  Opts.SelfLoopProb = 0.0;
  Cfg G = randomBackboneCfg(R, Opts);
  EXPECT_TRUE(validateCfg(G));
  EXPECT_TRUE(isReducible(FrozenCfg(G))); // A DAG is always reducible.
}
