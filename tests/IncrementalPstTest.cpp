//===- IncrementalPstTest.cpp - incremental PST maintenance tests ------------===//
//
// Part of the PST library test suite: unit tests for the DynamicCfg edit
// API and journal, golden tests for dirty-subtree splicing (survive and
// dissolve cases), and the randomized equivalence sweep — the incremental
// tree must be node-for-node identical to a from-scratch build after every
// commit, over hundreds of random edit sequences on both structured and
// goto-heavy generated CFGs, including sequences that force the
// full-recompute fallback.
//
//===----------------------------------------------------------------------===//

#include "pst/incremental/IncrementalPst.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pst;

namespace {

void expectMatchesFromScratch(const IncrementalPst &IP, uint64_t Seed,
                              int Step) {
  std::string Why;
  EXPECT_TRUE(IP.equalsFromScratch(&Why))
      << "seed " << Seed << " step " << Step << ": " << Why;
}

} // namespace

//===----------------------------------------------------------------------===//
// DynamicCfg basics
//===----------------------------------------------------------------------===//

TEST(DynamicCfg, InsertDeleteJournal) {
  DynamicCfg DG(diamondLadderCfg(1));
  uint32_t E0 = DG.numLiveEdges();

  // A diamond arm: find the then-branch edge (head has two succs).
  EdgeId Ins = DG.insertEdge(DG.entry() + 1, DG.exit());
  ASSERT_NE(Ins, InvalidEdge);
  EXPECT_EQ(DG.numLiveEdges(), E0 + 1);
  EXPECT_TRUE(DG.edgeLive(Ins));

  EXPECT_TRUE(DG.deleteEdge(Ins));
  EXPECT_EQ(DG.numLiveEdges(), E0);
  EXPECT_TRUE(DG.edgeDead(Ins));

  ASSERT_EQ(DG.journal().size(), 2u);
  EXPECT_EQ(DG.journal()[0].K, CfgEdit::Kind::InsertEdge);
  EXPECT_EQ(DG.journal()[1].K, CfgEdit::Kind::DeleteEdge);
  EXPECT_EQ(DG.journal()[1].E, Ins);
}

TEST(DynamicCfg, RejectsInvalidEdits) {
  DynamicCfg DG(chainCfg(2)); // entry -> b1 -> b2 -> exit
  // No predecessors for entry, no successors for exit.
  EXPECT_EQ(DG.insertEdge(DG.exit() - 1, DG.entry()), InvalidEdge);
  EXPECT_EQ(DG.insertEdge(DG.exit(), DG.entry() + 1), InvalidEdge);
  EXPECT_EQ(DG.addBlock(DG.exit(), DG.entry() + 1), InvalidNode);
  // Deleting any chain edge disconnects the graph.
  for (EdgeId E = 0; E < DG.graph().numEdges(); ++E)
    EXPECT_FALSE(DG.deleteEdge(E)) << "edge " << E;
  EXPECT_TRUE(DG.journal().empty());
}

TEST(DynamicCfg, SplitBlockRewires) {
  DynamicCfg DG(chainCfg(1));
  EdgeId E = DG.graph().succEdges(DG.entry())[0];
  NodeId M = DG.splitBlock(E, "mid");
  EXPECT_TRUE(DG.edgeDead(E));
  const CfgEdit &Ed = DG.journal().back();
  EXPECT_EQ(Ed.K, CfgEdit::Kind::SplitBlock);
  EXPECT_EQ(Ed.NewNode, M);
  EXPECT_EQ(DG.graph().source(Ed.NewEdges[0]), Ed.Src);
  EXPECT_EQ(DG.graph().target(Ed.NewEdges[0]), M);
  EXPECT_EQ(DG.graph().source(Ed.NewEdges[1]), M);
  EXPECT_EQ(DG.graph().target(Ed.NewEdges[1]), Ed.Dst);
  EXPECT_TRUE(DG.validWithoutEdge(InvalidEdge));
}

TEST(DynamicCfg, MaterializeMapsLiveEdges) {
  DynamicCfg DG(diamondLadderCfg(2));
  // Duplicate a cond->then arm, then delete the original: the parallel
  // copy keeps the graph valid and leaves one tombstone behind.
  EdgeId Killed = DG.graph().succEdges(DG.entry() + 1)[0];
  ASSERT_NE(DG.insertEdge(DG.graph().source(Killed),
                          DG.graph().target(Killed)),
            InvalidEdge);
  ASSERT_TRUE(DG.deleteEdge(Killed));
  std::vector<EdgeId> GlobalOf, CompactOf;
  Cfg M = DG.materialize(&GlobalOf, &CompactOf);
  EXPECT_EQ(M.numEdges(), DG.numLiveEdges());
  EXPECT_EQ(M.numNodes(), DG.numNodes());
  EXPECT_EQ(CompactOf[Killed], InvalidEdge);
  for (EdgeId C = 0; C < M.numEdges(); ++C) {
    EXPECT_EQ(CompactOf[GlobalOf[C]], C);
    EXPECT_EQ(M.source(C), DG.graph().source(GlobalOf[C]));
    EXPECT_EQ(M.target(C), DG.graph().target(GlobalOf[C]));
  }
  EXPECT_TRUE(validateCfg(M));
}

//===----------------------------------------------------------------------===//
// Sub-CFG extraction
//===----------------------------------------------------------------------===//

TEST(SubCfgExtraction, Figure1LoopBody) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  // The loop region entered by edge 5 with body nodes {5, 6} (head, body).
  RegionId Loop = T.regionEnteredBy(V, 5);
  ASSERT_NE(Loop, InvalidRegion);
  std::vector<NodeId> Body = T.allNodes(Loop);
  SubCfg S = extractRegionSubCfg(G, Body, T.region(Loop).EntryEdge,
                                 T.region(Loop).ExitEdge);
  ASSERT_FALSE(S.BoundaryViolation);
  EXPECT_EQ(S.Graph.numNodes(), Body.size() + 2);
  EXPECT_TRUE(validateCfg(S.Graph));
  // Boundary edges map back to the region's real boundary.
  EXPECT_EQ(S.GlobalEdge[S.LocalEntryEdge], T.region(Loop).EntryEdge);
  EXPECT_EQ(S.GlobalEdge[S.LocalExitEdge], T.region(Loop).ExitEdge);
  // The sub-build sees the nested body region.
  ProgramStructureTree SubT = ProgramStructureTree::build(FrozenCfg(S.Graph));
  EXPECT_GE(SubT.numCanonicalRegions(), 2u);
}

TEST(SubCfgExtraction, DetectsBoundaryViolation) {
  Cfg G = paperFigure1Cfg();
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  RegionId Loop = T.regionEnteredBy(V, 5);
  std::vector<NodeId> Body = T.allNodes(Loop);
  Body.pop_back(); // Drop one body node: its edges now cross the cut.
  SubCfg S = extractRegionSubCfg(G, Body, T.region(Loop).EntryEdge,
                                 T.region(Loop).ExitEdge);
  EXPECT_TRUE(S.BoundaryViolation);
}

//===----------------------------------------------------------------------===//
// IncrementalPst golden cases
//===----------------------------------------------------------------------===//

TEST(IncrementalPst, InitialTreeMatches) {
  DynamicCfg DG(paperFigure1Cfg());
  IncrementalPst IP(DG);
  EXPECT_EQ(IP.numCanonicalRegions(), 6u);
  expectMatchesFromScratch(IP, 0, 0);
  EXPECT_EQ(IP.stats().EditsApplied, 0u);
}

TEST(IncrementalPst, DeepEditOnlyRebuildsSubtree) {
  // 6 nested whiles with a few body blocks: an edit in the innermost body
  // must not reprocess the whole graph.
  Cfg G = nestedWhileCfg(6, 3);
  DynamicCfg DG(G);
  IncrementalPst IP(DG);
  uint32_t N = DG.numNodes();

  // Split a block deep inside: pick the innermost region's first immediate
  // node via the maintained tree (deepest live region).
  RegionId Deepest = IP.root();
  for (RegionId R : IP.liveRegions())
    if (!IP.immediateNodes(R).empty() &&
        IP.depth(R) > IP.depth(Deepest))
      Deepest = R;
  ASSERT_NE(Deepest, IP.root());
  NodeId Victim = IP.immediateNodes(Deepest).front();
  ASSERT_FALSE(DG.graph().succEdges(Victim).empty());
  IP.splitBlock(DG.graph().succEdges(Victim)[0], "wedge");
  IP.commit();

  expectMatchesFromScratch(IP, 0, 1);
  EXPECT_EQ(IP.stats().SubtreesRebuilt, 1u);
  EXPECT_EQ(IP.stats().FullRebuilds, 0u);
  EXPECT_LT(IP.stats().NodesReprocessed, N / 2)
      << "deep edit reprocessed too much";
}

TEST(IncrementalPst, RegionDissolvesWhenArmDeleted) {
  // entry -> a =(two parallel edges)=> b -> exit. The parallel edges make
  // (entry->a, b->exit) a canonical region D. Deleting one parallel edge
  // leaves a chain whose interior edge joins D's boundary class, so D must
  // dissolve and be replaced by the chain regions the sub-build finds.
  Cfg G;
  NodeId Entry = G.addNode("entry");
  NodeId A = G.addNode("a");
  NodeId B = G.addNode("b");
  NodeId Exit = G.addNode("exit");
  G.addEdge(Entry, A);
  EdgeId Arm = G.addEdge(A, B);
  G.addEdge(A, B);
  G.addEdge(B, Exit);
  G.setEntry(Entry);
  G.setExit(Exit);
  ASSERT_TRUE(validateCfg(G));

  DynamicCfg DG(std::move(G));
  IncrementalPst IP(DG);
  uint32_t Before = IP.numCanonicalRegions();
  ASSERT_TRUE(IP.deleteEdge(Arm));
  IP.commit();

  expectMatchesFromScratch(IP, 0, 1);
  EXPECT_NE(IP.numCanonicalRegions(), Before);
  EXPECT_EQ(IP.stats().FullRebuilds, 0u);
}

TEST(IncrementalPst, RootEditFallsBackToFullRebuild) {
  DynamicCfg DG(diamondLadderCfg(3));
  IncrementalPst IP(DG);
  // entry and exit share only the root region.
  NodeId AfterEntry = DG.graph().target(DG.graph().succEdges(DG.entry())[0]);
  NodeId BeforeExit = DG.graph().source(DG.graph().predEdges(DG.exit())[0]);
  ASSERT_NE(IP.insertEdge(AfterEntry, BeforeExit), InvalidEdge);
  IP.commit();
  EXPECT_EQ(IP.stats().FullRebuilds, 1u);
  EXPECT_EQ(IP.stats().SubtreesRebuilt, 0u);
  expectMatchesFromScratch(IP, 0, 1);
}

TEST(IncrementalPst, LocalDeleteRejectedWhenItDisconnects) {
  DynamicCfg DG(nestedWhileCfg(2, 2));
  IncrementalPst IP(DG);
  // Any edge whose removal breaks validity must be rejected, and the
  // rejection must not leave pending state behind.
  uint64_t Before = IP.stats().EditsApplied;
  uint32_t Rejected = 0;
  for (EdgeId E = 0; E < DG.graph().numEdges(); ++E)
    if (!DG.validWithoutEdge(E)) {
      EXPECT_FALSE(IP.deleteEdge(E)) << "edge " << E;
      ++Rejected;
    }
  ASSERT_GT(Rejected, 0u);
  EXPECT_EQ(IP.stats().EditsApplied, Before);
  EXPECT_EQ(IP.stats().EditsRejected, Rejected);
  IP.commit();
  expectMatchesFromScratch(IP, 0, 1);
}

// IncrementalPst::deleteEdge checks validity only inside the dirty
// region; DynamicCfg::deleteEdge sweeps the whole graph. The two must
// give every delete the same verdict, mid-batch as well as right after a
// commit: twins take one seeded stream of inserts, splits, added blocks
// and deletes, with the incremental twin committing every 1-6 edits.
TEST(IncrementalPst, LocalDeleteVerdictMatchesWholeGraphCheck) {
  uint32_t Accepted = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    Rng R(Seed * 977 + 5);
    Cfg G;
    if (Seed % 2) {
      RandomCfgOptions Opts;
      Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(20));
      Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(10));
      G = randomBackboneCfg(R, Opts);
    } else {
      G = nestedWhileCfg(1 + static_cast<uint32_t>(Seed % 4),
                         1 + static_cast<uint32_t>(Seed % 3));
    }
    DynamicCfg Twin(G), Bare(std::move(G));
    IncrementalPst IP(Twin);
    int SinceCommit = 0, NextCommit = 1 + static_cast<int>(R.nextBelow(6));
    for (int Step = 0; Step < 40; ++Step) {
      uint64_t Kind = R.nextBelow(100);
      NodeId Src = static_cast<NodeId>(R.nextBelow(Bare.numNodes()));
      NodeId Dst = static_cast<NodeId>(R.nextBelow(Bare.numNodes()));
      EdgeId E = static_cast<EdgeId>(R.nextBelow(Bare.graph().numEdges()));
      if (Kind < 20) {
        ASSERT_EQ(IP.insertEdge(Src, Dst), Bare.insertEdge(Src, Dst));
      } else if (Kind < 30) {
        ASSERT_EQ(IP.addBlock(Src, Dst), Bare.addBlock(Src, Dst));
      } else if (!Bare.edgeLive(E)) {
        continue;
      } else if (Kind < 45) {
        ASSERT_EQ(IP.splitBlock(E), Bare.splitBlock(E));
      } else {
        bool Local = IP.deleteEdge(E);
        ASSERT_EQ(Local, Bare.deleteEdge(E))
            << "seed " << Seed << " step " << Step << " edge " << E;
        ++(Local ? Accepted : Rejected);
      }
      if (++SinceCommit >= NextCommit) {
        IP.commit();
        SinceCommit = 0;
        NextCommit = 1 + static_cast<int>(R.nextBelow(6));
      }
    }
    IP.commit();
    expectMatchesFromScratch(IP, Seed, 40);
  }
  // Both verdicts really occurred.
  EXPECT_GT(Accepted, 50u);
  EXPECT_GT(Rejected, 50u);
}

TEST(IncrementalPst, DirectDynamicCfgEditsAbsorbedAtCommit) {
  DynamicCfg DG(diamondLadderCfg(4));
  IncrementalPst IP(DG);
  // Edit behind the maintainer's back; commit must still fold it in.
  NodeId Head = InvalidNode;
  for (NodeId N = 0; N < DG.numNodes(); ++N)
    if (DG.graph().succEdges(N).size() == 2)
      Head = N;
  ASSERT_NE(Head, InvalidNode);
  ASSERT_NE(DG.splitBlock(DG.graph().succEdges(Head)[0]), InvalidNode);
  EXPECT_EQ(IP.pendingEdits(), 1u);
  IP.commit();
  expectMatchesFromScratch(IP, 0, 1);
}

TEST(IncrementalPst, BatchedEditsCoalesce) {
  DynamicCfg DG(diamondLadderCfg(6));
  IncrementalPst IP(DG);
  // Several splits inside one diamond coalesce into at most a couple of
  // dirty subtrees, not one rebuild per edit.
  NodeId Head = InvalidNode;
  for (NodeId N = 0; N < DG.numNodes(); ++N)
    if (DG.graph().succEdges(N).size() == 2) {
      Head = N;
      break;
    }
  ASSERT_NE(Head, InvalidNode);
  EdgeId Arm = DG.graph().succEdges(Head)[0];
  NodeId M1 = IP.splitBlock(Arm);
  NodeId M2 = IP.splitBlock(DG.graph().succEdges(M1)[0]);
  IP.splitBlock(DG.graph().succEdges(M2)[0]);
  uint32_t Rebuilt = IP.commit();
  EXPECT_LE(Rebuilt, 2u);
  EXPECT_EQ(IP.stats().Commits, 1u);
  expectMatchesFromScratch(IP, 0, 1);
}

//===----------------------------------------------------------------------===//
// Randomized equivalence sweep
//===----------------------------------------------------------------------===//

namespace {

/// Applies \p NumEdits random edits with commits every 1-3 edits, checking
/// incremental == from-scratch after every commit. Returns the stats.
IncrementalPstStats runRandomEditSequence(Cfg G, uint64_t Seed,
                                          int NumEdits) {
  Rng R(Seed);
  DynamicCfg DG(std::move(G));
  IncrementalPst IP(DG);

  int SinceCommit = 0, NextCommit = 1 + static_cast<int>(R.nextBelow(3));
  for (int Step = 0; Step < NumEdits; ++Step) {
    uint64_t Kind = R.nextBelow(100);
    if (Kind < 40) {
      NodeId Src = static_cast<NodeId>(R.nextBelow(DG.numNodes()));
      NodeId Dst = static_cast<NodeId>(R.nextBelow(DG.numNodes()));
      IP.insertEdge(Src, Dst); // May be rejected; that's part of the test.
    } else if (Kind < 65) {
      EdgeId E = static_cast<EdgeId>(R.nextBelow(DG.graph().numEdges()));
      if (DG.edgeLive(E))
        IP.deleteEdge(E);
    } else if (Kind < 85) {
      EdgeId E = static_cast<EdgeId>(R.nextBelow(DG.graph().numEdges()));
      if (DG.edgeLive(E))
        IP.splitBlock(E);
    } else {
      NodeId Src = static_cast<NodeId>(R.nextBelow(DG.numNodes()));
      NodeId Dst = static_cast<NodeId>(R.nextBelow(DG.numNodes()));
      IP.addBlock(Src, Dst);
    }
    if (++SinceCommit >= NextCommit) {
      IP.commit();
      expectMatchesFromScratch(IP, Seed, Step);
      SinceCommit = 0;
      NextCommit = 1 + static_cast<int>(R.nextBelow(3));
    }
  }
  IP.commit();
  expectMatchesFromScratch(IP, Seed, NumEdits);
  return IP.stats();
}

} // namespace

class IncrementalRandomTest : public ::testing::TestWithParam<uint64_t> {};

// Goto-heavy family: random backbone CFGs with loops, parallel edges and
// self loops. Shallow trees here routinely force the root fallback.
TEST_P(IncrementalRandomTest, MatchesFromScratchOnRandomCfgs) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 131 + 7);
  RandomCfgOptions Opts;
  Opts.NumNodes = 4 + static_cast<uint32_t>(R.nextBelow(16));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(14));
  Opts.SelfLoopProb = 0.06;
  Opts.ParallelProb = 0.06;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  runRandomEditSequence(std::move(G), Seed * 3 + 1, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomTest,
                         ::testing::Range<uint64_t>(0, 60));

class IncrementalStructuredTest : public ::testing::TestWithParam<uint64_t> {
};

// Structured family: deep diamond ladders, loop nests and the
// repeat-until worst case, where edits land inside real subtrees.
TEST_P(IncrementalStructuredTest, MatchesFromScratchOnStructuredCfgs) {
  uint64_t Seed = GetParam();
  Cfg G;
  switch (Seed % 3) {
  case 0:
    G = diamondLadderCfg(2 + static_cast<uint32_t>(Seed % 7));
    break;
  case 1:
    G = nestedWhileCfg(1 + static_cast<uint32_t>(Seed % 5),
                       1 + static_cast<uint32_t>(Seed % 3));
    break;
  default:
    G = nestedRepeatUntilCfg(2 + static_cast<uint32_t>(Seed % 5));
    break;
  }
  runRandomEditSequence(std::move(G), Seed * 7 + 3, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalStructuredTest,
                         ::testing::Range<uint64_t>(0, 60));

// The sweep must have exercised both the incremental path and the
// full-recompute fallback somewhere; pin that with dedicated seeds so a
// distribution change cannot silently hollow the test out.
TEST(IncrementalPst, SweepExercisesBothPaths) {
  IncrementalPstStats Sub =
      runRandomEditSequence(nestedWhileCfg(4, 2), 17, 16);
  EXPECT_GT(Sub.SubtreesRebuilt, 0u);

  Rng R(99);
  RandomCfgOptions Opts;
  Opts.NumNodes = 8;
  Opts.NumExtraEdges = 8;
  IncrementalPstStats Full =
      runRandomEditSequence(randomBackboneCfg(R, Opts), 23, 16);
  EXPECT_GT(Full.FullRebuilds, 0u);
}
