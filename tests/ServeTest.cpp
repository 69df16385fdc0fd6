//===- ServeTest.cpp - pst/serve epoch tables, shards, server, protocol --------===//
//
// Part of the PST library (see pst/serve/PstServer.h for the reference).
//
// Covers the serving layer bottom-up: the EpochTable pin/publish/reclaim
// protocol (including the TSan-facing concurrent suite), per-function
// snapshot freezing and the byte-identity invariant, shard edit/commit/
// publish cycles with pinned-reader isolation, server query semantics and
// batch position-stability, and the line protocol's determinism contract
// (same script -> byte-identical transcript at any batch size or worker
// count).
//
// The concurrency tests here run in CI's thread-sanitizer job; keep new
// shared-state tests in the *Concurrent* naming pattern so the ctest
// regex picks them up.
//
//===----------------------------------------------------------------------===//

#include "pst/serve/EpochTable.h"
#include "pst/serve/Protocol.h"
#include "pst/serve/PstServer.h"
#include "pst/serve/Snapshot.h"

#include "pst/dom/Dominators.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pst;
using namespace pst::serve;

namespace {

//===----------------------------------------------------------------------===//
// EpochTable
//===----------------------------------------------------------------------===//

/// Snapshot stand-in that counts live instances, so reclaim/leak behavior
/// is observable.
struct Counted {
  static std::atomic<int> Live;
  uint64_t Value;
  explicit Counted(uint64_t V) : Value(V) { Live.fetch_add(1); }
  ~Counted() { Live.fetch_sub(1); }
};
std::atomic<int> Counted::Live{0};

TEST(EpochTableTest, PublishPinReadReclaim) {
  ASSERT_EQ(Counted::Live.load(), 0);
  {
    EpochTable<Counted> T(4);
    EXPECT_EQ(T.currentVersion(), 0u);
    T.publish(std::make_unique<Counted>(10), 1);
    EXPECT_EQ(T.currentVersion(), 1u);

    auto P1 = T.pin();
    ASSERT_TRUE(P1);
    EXPECT_EQ(P1->Value, 10u);
    EXPECT_EQ(P1.version(), 1u);

    // A new publish does not disturb the held pin.
    T.publish(std::make_unique<Counted>(20), 2);
    EXPECT_EQ(P1->Value, 10u);
    EXPECT_EQ(T.currentVersion(), 2u);
    EXPECT_EQ(T.liveSnapshots(), 2u); // v1 pinned + v2 current.

    // New pins see the new epoch; the reader's lag is observable.
    auto P2 = T.pin();
    EXPECT_EQ(P2->Value, 20u);
    EXPECT_EQ(T.currentVersion() - P1.version(), 1u);
    EXPECT_EQ(T.currentVersion() - P2.version(), 0u);

    // The pinned retired epoch survives reclaim attempts...
    EXPECT_EQ(T.reclaimQuiescent(), 0u);
    EXPECT_EQ(T.liveSnapshots(), 2u);

    // ...and drains once the pin drops.
    P1.release();
    EXPECT_FALSE(P1);
    EXPECT_EQ(T.reclaimQuiescent(), 1u);
    EXPECT_EQ(T.liveSnapshots(), 1u);
    EXPECT_EQ(Counted::Live.load(), 1);
  }
  // Table destruction frees the current snapshot too.
  EXPECT_EQ(Counted::Live.load(), 0);
}

TEST(EpochTableTest, SteadyStatePublishingStaysBounded) {
  EpochTable<Counted> T(4);
  for (uint64_t V = 1; V <= 100; ++V)
    T.publish(std::make_unique<Counted>(V), V);
  // With no pins outstanding, every publish reclaims the previous epoch.
  EXPECT_EQ(T.liveSnapshots(), 1u);
  EXPECT_EQ(T.publishCount(), 100u);
  EXPECT_EQ(T.reclaimCount(), 99u);
  EXPECT_EQ(T.pin()->Value, 100u);
}

TEST(EpochTableTest, MovedPinTransfersOwnership) {
  EpochTable<Counted> T(4);
  T.publish(std::make_unique<Counted>(7), 1);
  auto P = T.pin();
  auto Q = std::move(P);
  EXPECT_FALSE(P);
  ASSERT_TRUE(Q);
  EXPECT_EQ(Q->Value, 7u);
  EXPECT_EQ((*Q).Value, 7u);
  Q.release();
  Q.release(); // Idempotent.
  EXPECT_EQ(T.reclaimQuiescent(), 0u); // Slot is current, never reclaimed.
}

/// The TSan-facing suite: hammer the pin/publish/reclaim handshake from
/// several reader threads while the writer publishes as fast as it can.
/// Each snapshot embeds its version, so a reader observing a torn or
/// reclaimed snapshot would trip the consistency assertion (and TSan
/// would flag the racing free).
TEST(EpochTableTest, ConcurrentPinsDuringPublishes) {
  ASSERT_EQ(Counted::Live.load(), 0);
  constexpr int NumReaders = 3;
  constexpr uint64_t NumEpochs = 1000;
  {
    EpochTable<Counted> T(8);
    T.publish(std::make_unique<Counted>(1), 1);

    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> Reads{0};
    std::vector<std::thread> Readers;
    Readers.reserve(NumReaders);
    for (int R = 0; R < NumReaders; ++R) {
      Readers.emplace_back([&T, &Stop, &Reads] {
        uint64_t LastSeen = 0;
        while (!Stop.load(std::memory_order_relaxed)) {
          auto P = T.pin();
          // The pinned snapshot is internally consistent...
          ASSERT_EQ(P->Value, P.version());
          // ...and epochs never run backwards for a single reader.
          ASSERT_GE(P.version(), LastSeen);
          LastSeen = P.version();
          Reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    for (uint64_t V = 2; V <= NumEpochs; ++V)
      T.publish(std::make_unique<Counted>(V), V);
    // On a single-core host the writer can finish before any reader is
    // ever scheduled; insist on overlap-or-after reads before stopping.
    while (Reads.load(std::memory_order_relaxed) == 0)
      std::this_thread::yield();
    Stop.store(true);
    for (std::thread &R : Readers)
      R.join();

    EXPECT_GT(Reads.load(), 0u);
    EXPECT_EQ(T.currentVersion(), NumEpochs);
    // Quiescent now: everything but the current epoch drains.
    T.reclaimQuiescent();
    EXPECT_EQ(T.liveSnapshots(), 1u);
    EXPECT_EQ(Counted::Live.load(), 1);
  }
  EXPECT_EQ(Counted::Live.load(), 0);
}

//===----------------------------------------------------------------------===//
// Snapshots and shards
//===----------------------------------------------------------------------===//

/// 0 -> {1,2} -> 3: the smallest CFG with a branch, a join, and known
/// dominance structure.
Cfg diamondCfg() {
  Cfg G;
  NodeId N0 = G.addNode("entry");
  NodeId N1 = G.addNode("then");
  NodeId N2 = G.addNode("else");
  NodeId N3 = G.addNode("join");
  G.addEdge(N0, N1);
  G.addEdge(N0, N2);
  G.addEdge(N1, N3);
  G.addEdge(N2, N3);
  G.setEntry(N0);
  G.setExit(N3);
  return G;
}

/// A small mixed-shape corpus image, memory-backed.
CorpusImage makeTestImage(uint32_t NumFns = 6) {
  std::vector<Cfg> Graphs;
  std::vector<std::string> Names;
  for (uint32_t I = 0; I < NumFns; ++I) {
    switch (I % 4) {
    case 0:
      Graphs.push_back(diamondCfg());
      break;
    case 1:
      Graphs.push_back(diamondLadderCfg(2 + I % 3));
      break;
    case 2:
      Graphs.push_back(nestedWhileCfg(2));
      break;
    default:
      Graphs.push_back(chainCfg(4));
      break;
    }
    Names.push_back("fn" + std::to_string(I));
  }
  std::vector<const Cfg *> Ptrs;
  for (const Cfg &G : Graphs)
    Ptrs.push_back(&G);
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(buildCorpusImage(Ptrs, Names),
                                           &Error);
  EXPECT_TRUE(Img.valid()) << Error;
  return Img;
}

TEST(SnapshotTest, FreezeMatchesFromScratchByConstruction) {
  Cfg G = diamondCfg();
  auto S = FunctionSnapshot::freeze(G, "diamond");
  ASSERT_TRUE(S);
  EXPECT_EQ(S->name(), "diamond");
  EXPECT_EQ(S->cfg().numNodes(), 4u);
  EXPECT_TRUE(snapshotMatchesFromScratch(*S, G));

  // A structurally different graph is detected with a diagnostic.
  Cfg H = diamondCfg();
  H.addEdge(H.entry(), H.exit());
  std::string Why;
  EXPECT_FALSE(snapshotMatchesFromScratch(*S, H, &Why));
  EXPECT_FALSE(Why.empty());
}

TEST(ShardTest, ResolvesBaseFunctionsThroughEpochZero) {
  CorpusImage Img = makeTestImage();
  Shard S0(Img, /*Index=*/0, /*NumShards=*/2);
  EXPECT_TRUE(S0.owns(0));
  EXPECT_FALSE(S0.owns(1));
  EXPECT_TRUE(S0.owns(4));
  EXPECT_EQ(S0.currentVersion(), 0u);

  auto P = S0.pin();
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Overlay.size(), 0u);
  ResolvedFunction F = S0.resolve(*P, 0);
  EXPECT_FALSE(F.FromOverlay);
  EXPECT_EQ(F.Name, "fn0");
  EXPECT_EQ(F.View.numNodes(), Img.cfg(0).numNodes());
  EXPECT_EQ(F.Pst.numRegions(), Img.pst(0).numRegions());
}

TEST(ShardTest, CommitPublishesOverlayWithoutDisturbingPinnedReaders) {
  CorpusImage Img = makeTestImage();
  Shard S0(Img, 0, 2);
  uint32_t BaseNodes = Img.cfg(0).numNodes();

  // A reader pins epoch 0 before any writes land.
  auto Old = S0.pin();

  // addblock splices a node into the 0->1 edge of the diamond.
  NodeId NewNode = S0.addBlock(0, 0, 1);
  EXPECT_NE(NewNode, InvalidNode);
  EXPECT_EQ(S0.pendingFunctions(), 1u);
  std::string Why;
  EXPECT_EQ(S0.commit(), 1u);
  EXPECT_EQ(S0.pendingFunctions(), 0u);
  EXPECT_TRUE(S0.verifyPublished(&Why)) << Why;

  // Once fn 0 is overlaid, journaled-but-uncommitted edits make verify
  // refuse: the byte-identity invariant is defined at commit points.
  EXPECT_NE(S0.addBlock(0, 0, 2), InvalidNode);
  EXPECT_FALSE(S0.verifyPublished(&Why));
  EXPECT_NE(Why.find("journaled"), std::string::npos);
  EXPECT_EQ(S0.commit(), 2u);
  EXPECT_TRUE(S0.verifyPublished(&Why)) << Why;

  // The old pin still resolves to the base image.
  ResolvedFunction OldF = S0.resolve(*Old, 0);
  EXPECT_FALSE(OldF.FromOverlay);
  EXPECT_EQ(OldF.View.numNodes(), BaseNodes);

  // A fresh pin sees the overlay snapshot with both spliced nodes.
  auto New = S0.pin();
  EXPECT_EQ(New.version(), 2u);
  ResolvedFunction NewF = S0.resolve(*New, 0);
  EXPECT_TRUE(NewF.FromOverlay);
  EXPECT_EQ(NewF.View.numNodes(), BaseNodes + 2);

  ShardStats St = S0.stats();
  EXPECT_EQ(St.Edits, 2u);
  EXPECT_EQ(St.Commits, 2u);
  EXPECT_EQ(St.Refrozen, 2u);
}

TEST(ShardTest, RejectsInvalidEdits) {
  CorpusImage Img = makeTestImage();
  Shard S0(Img, 0, 2);
  // No such live edge in the diamond.
  EXPECT_FALSE(S0.deleteEdge(0, 1, 2));
  EXPECT_EQ(S0.splitBlock(0, 3, 0), InvalidNode);
  // Out-of-range nodes.
  EXPECT_EQ(S0.insertEdge(0, 0, 999), InvalidEdge);
  // Nothing was journaled; the epoch did not move.
  EXPECT_EQ(S0.pendingFunctions(), 0u);
  EXPECT_EQ(S0.commit(), 0u);
  EXPECT_EQ(S0.stats().Edits, 0u);
  EXPECT_EQ(S0.stats().EditsRejected, 3u);
}

/// A one-function image named "fn0".
CorpusImage oneFunctionImage(const Cfg &G) {
  const Cfg *Fns[1] = {&G};
  std::string Names[1] = {"fn0"};
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(buildCorpusImage(Fns, Names),
                                           &Error);
  EXPECT_TRUE(Img.valid()) << Error;
  return Img;
}

/// entry -> exit over \p Edges parallel edges: few nodes, many edges.
Cfg parallelEdgeCfg(uint32_t Edges) {
  Cfg G;
  NodeId Entry = G.addNode("entry"), Exit = G.addNode("exit");
  for (uint32_t I = 0; I < Edges; ++I)
    G.addEdge(Entry, Exit);
  G.setEntry(Entry);
  G.setExit(Exit);
  return G;
}

TEST(ShardTest, RejectsGrowthPastMaxFunctionSize) {
  // Node cap: a chain one node below it takes exactly one added block.
  Cfg Chain;
  for (uint32_t I = 0; I + 1 < MaxFunctionSize; ++I) {
    Chain.addNode();
    if (I)
      Chain.addEdge(I - 1, I);
  }
  Chain.setEntry(0);
  Chain.setExit(MaxFunctionSize - 2);
  CorpusImage Long = oneFunctionImage(Chain);
  Shard S0(Long, 0, 1);
  EXPECT_EQ(S0.addBlock(0, 0, 1), MaxFunctionSize - 1);
  EXPECT_EQ(S0.addBlock(0, 1, 2), InvalidNode);
  EXPECT_EQ(S0.splitBlock(0, 1, 2), InvalidNode);
  // Deletes never grow a function, so they still go through.
  EXPECT_TRUE(S0.deleteEdge(0, 0, 1));
  EXPECT_EQ(S0.stats().Edits, 2u);
  EXPECT_EQ(S0.stats().EditsRejected, 2u);
  S0.commit();
  std::string Why;
  EXPECT_TRUE(S0.verifyPublished(&Why)) << Why;
  EXPECT_EQ(S0.writerGraph(0).numNodes(), MaxFunctionSize);

  // Edge cap, tombstones included: one insert fits, and deleting an edge
  // does not make room for another.
  CorpusImage Wide = oneFunctionImage(parallelEdgeCfg(MaxFunctionSize - 1));
  Shard S1(Wide, 0, 1);
  EXPECT_EQ(S1.insertEdge(0, 0, 1), MaxFunctionSize - 1);
  EXPECT_TRUE(S1.deleteEdge(0, 0, 1));
  EXPECT_EQ(S1.insertEdge(0, 0, 1), InvalidEdge);
  EXPECT_EQ(S1.addBlock(0, 0, 1), InvalidNode);
  EXPECT_EQ(S1.splitBlock(0, 0, 1), InvalidNode);
  EXPECT_EQ(S1.stats().Edits, 2u);
  EXPECT_EQ(S1.stats().EditsRejected, 3u);
}

/// The acceptance invariant, exercised hard: a deterministic pseudo-random
/// edit stream across the shard's functions with periodic commits, and
/// after every commit each published overlay snapshot must be
/// byte-identical to a from-scratch freeze of the writer's graph.
TEST(ShardTest, RandomizedEditsKeepPublishedSnapshotsByteIdentical) {
  CorpusImage Img = makeTestImage(8);
  Shard S0(Img, 0, 2);
  uint64_t Owned[] = {0, 2, 4, 6};

  uint64_t Rng = 0x9e3779b97f4a7c15ull;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };

  for (int Round = 0; Round < 12; ++Round) {
    for (int E = 0; E < 4; ++E) {
      uint64_t Fn = Owned[Next() % 4];
      Cfg G = S0.writerGraph(Fn);
      if (!G.numEdges())
        continue;
      EdgeId Edge = static_cast<EdgeId>(Next() % G.numEdges());
      NodeId Src = G.source(Edge), Dst = G.target(Edge);
      switch (Next() % 4) {
      case 0:
        S0.addBlock(Fn, Src, Dst);
        break;
      case 1:
        S0.splitBlock(Fn, Src, Dst);
        break;
      case 2:
        // Parallel edge between existing endpoints; may be rejected.
        S0.insertEdge(Fn, Src, Dst);
        break;
      default:
        // May disconnect the graph; then it is rejected, which is fine.
        S0.deleteEdge(Fn, Src, Dst);
        break;
      }
    }
    S0.commit();
    std::string Why;
    ASSERT_TRUE(S0.verifyPublished(&Why)) << "round " << Round << ": " << Why;

    // Belt and braces: check the snapshots directly too.
    auto P = S0.pin();
    for (const auto &[Fn, Snap] : P->Overlay) {
      Cfg Current = S0.writerGraph(Fn);
      ASSERT_TRUE(snapshotMatchesFromScratch(*Snap, Current, &Why))
          << "fn " << Fn << ": " << Why;
    }
  }
  EXPECT_GT(S0.stats().Edits, 0u);
  EXPECT_GT(S0.stats().Commits, 0u);
}

/// TSan-facing: readers resolve functions under pinned epochs while the
/// writer edits and commits. Readers must only ever observe fully
/// published snapshots (base node count or a count from some committed
/// epoch — never a half-applied journal).
TEST(ShardTest, ConcurrentReadersDuringCommits) {
  CorpusImage Img = makeTestImage();
  Shard S0(Img, 0, 2);
  uint32_t BaseNodes = Img.cfg(0).numNodes();
  constexpr int NumReaders = 3;
  constexpr int NumCommits = 60;

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int R = 0; R < NumReaders; ++R) {
    Readers.emplace_back([&] {
      uint64_t LastVersion = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        auto P = S0.pin();
        ASSERT_GE(P->Version, LastVersion);
        LastVersion = P->Version;
        ResolvedFunction F = S0.resolve(*P, 0);
        // Every commit adds exactly one block to fn 0, so a consistent
        // snapshot's node count is Base + its number of commits; the
        // epoch version *is* that commit count here.
        ASSERT_EQ(F.View.numNodes(), BaseNodes + P->Version);
        ASSERT_EQ(F.Name, "fn0");
      }
    });
  }

  for (int C = 0; C < NumCommits; ++C) {
    ASSERT_NE(S0.addBlock(0, 0, 1), InvalidNode);
    S0.commit();
  }
  Stop.store(true);
  for (std::thread &R : Readers)
    R.join();

  std::string Why;
  EXPECT_TRUE(S0.verifyPublished(&Why)) << Why;
  EXPECT_EQ(S0.currentVersion(), static_cast<uint64_t>(NumCommits));
}

//===----------------------------------------------------------------------===//
// PstServer queries
//===----------------------------------------------------------------------===//

Request makeRequest(RequestKind K, uint64_t Fn, NodeId A = InvalidNode,
                    NodeId B = InvalidNode) {
  Request R;
  R.Kind = K;
  R.Fn = Fn;
  R.A = A;
  R.B = B;
  return R;
}

TEST(PstServerTest, AnswersQueriesAgainstTheBaseImage) {
  ServeOptions Opts;
  Opts.NumShards = 2;
  Opts.NumThreads = 2;
  PstServer Server(makeTestImage(), Opts);
  EXPECT_EQ(Server.numFunctions(), 6u);
  EXPECT_EQ(Server.numShards(), 2u);

  // fn0 is the diamond: 0 -> {1,2} -> 3.
  EXPECT_EQ(Server.execute(makeRequest(RequestKind::Name, 0)),
            "ok name fn=0 fn0");
  EXPECT_EQ(Server.execute(makeRequest(RequestKind::Dom, 0, 3)),
            "ok dom fn=0 node=3 idom=0");
  // Node 1 is control dependent on taking the branch edge 0->1.
  EXPECT_EQ(Server.execute(makeRequest(RequestKind::Cdep, 0, 1)),
            "ok cdep fn=0 node=1 edges=[0:0->1]");
  // Defs in both arms force a phi at the join.
  Request Phi = makeRequest(RequestKind::Phi, 0);
  Phi.Defs = {1, 2};
  EXPECT_EQ(Server.execute(Phi),
            "ok phi fn=0 defs=[1,2] blocks=[3]");

  // Oracle cross-check on a generated function: idom answers must match
  // a directly built dominator tree.
  CfgView V = Server.image().cfg(1);
  DomTree D = DomTree::buildIterative(V);
  for (NodeId N = 0; N < V.numNodes(); ++N) {
    std::string Resp = Server.execute(makeRequest(RequestKind::Dom, 1, N));
    std::string Expect =
        "ok dom fn=1 node=" + std::to_string(N) + " idom=" +
        (D.idom(N) == InvalidNode ? "-" : std::to_string(D.idom(N)));
    EXPECT_EQ(Resp, Expect);
  }
}

TEST(PstServerTest, RejectsOutOfRangeRequests) {
  PstServer Server(makeTestImage());
  std::string R = Server.execute(makeRequest(RequestKind::Name, 999));
  EXPECT_EQ(R.rfind("err", 0), 0u) << R;
  R = Server.execute(makeRequest(RequestKind::Dom, 0, 999));
  EXPECT_EQ(R.rfind("err", 0), 0u) << R;
  Request Bad;
  Bad.Kind = RequestKind::Invalid;
  Bad.Error = "boom";
  EXPECT_EQ(Server.execute(Bad), "err boom");
}

TEST(PstServerTest, BatchResponsesArePositionStable) {
  ServeOptions Opts;
  Opts.NumThreads = 4;
  PstServer Server(makeTestImage(), Opts);

  std::vector<Request> Batch;
  for (uint64_t Fn = 0; Fn < Server.numFunctions(); ++Fn) {
    Batch.push_back(makeRequest(RequestKind::Name, Fn));
    Batch.push_back(makeRequest(RequestKind::Regions, Fn));
    Batch.push_back(makeRequest(RequestKind::Dom, Fn, 1));
  }

  std::vector<std::string> Serial;
  for (const Request &R : Batch)
    Serial.push_back(Server.execute(R));

  std::vector<std::string> Parallel;
  Server.executeBatch(Batch, Parallel);
  EXPECT_EQ(Parallel, Serial);
}

/// TSan-facing: parallel query batches while per-shard writers commit.
/// Queries on untouched functions must be bit-stable across the whole
/// run; queries on the edited function must always reflect a committed
/// epoch.
TEST(PstServerTest, ConcurrentBatchesDuringCommits) {
  ServeOptions Opts;
  Opts.NumShards = 2;
  Opts.NumThreads = 2;
  PstServer Server(makeTestImage(), Opts);

  // Baseline answers for functions the writer never touches.
  std::vector<Request> Batch;
  for (uint64_t Fn = 1; Fn < Server.numFunctions(); ++Fn) {
    Batch.push_back(makeRequest(RequestKind::Regions, Fn));
    Batch.push_back(makeRequest(RequestKind::Name, Fn));
  }
  std::vector<std::string> Baseline;
  Server.executeBatch(Batch, Baseline);

  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    Shard &S0 = Server.shardOf(0);
    for (int C = 0; C < 40 && !Stop.load(std::memory_order_relaxed); ++C) {
      S0.addBlock(0, 0, 1);
      S0.commit();
    }
    Stop.store(true);
  });

  uint32_t BaseNodes = Server.image().cfg(0).numNodes();
  while (!Stop.load(std::memory_order_relaxed)) {
    std::vector<std::string> Got;
    Server.executeBatch(Batch, Got);
    ASSERT_EQ(Got, Baseline);
    // The edited diamond keeps its shape: one added block per commit
    // turns region summaries over, but the idom of the join stays the
    // entry node in every committed epoch.
    ASSERT_EQ(Server.execute(makeRequest(RequestKind::Dom, 0, 3)),
              "ok dom fn=0 node=3 idom=0");
    (void)BaseNodes;
  }
  Writer.join();

  std::string Why;
  EXPECT_TRUE(Server.shardOf(0).verifyPublished(&Why)) << Why;
}

//===----------------------------------------------------------------------===//
// Line protocol
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, ParsesQueriesEditsAndBarriers) {
  ParsedLine L = parseLine("region 3 1 2");
  EXPECT_EQ(L.Kind, ParsedLine::Type::Query);
  EXPECT_EQ(L.Q.Kind, RequestKind::Region);
  EXPECT_EQ(L.Q.Fn, 3u);
  EXPECT_EQ(L.Q.A, 1u);
  EXPECT_EQ(L.Q.B, 2u);

  L = parseLine("phi 0 4,7,9");
  EXPECT_EQ(L.Q.Kind, RequestKind::Phi);
  EXPECT_EQ(L.Q.Defs, (std::vector<NodeId>{4, 7, 9}));

  L = parseLine("edit 5 addblock 0 1");
  EXPECT_EQ(L.Kind, ParsedLine::Type::Edit);
  EXPECT_EQ(L.Op, ParsedLine::EditOp::AddBlock);
  EXPECT_EQ(L.Fn, 5u);
  EXPECT_EQ(L.Src, 0u);
  EXPECT_EQ(L.Dst, 1u);

  EXPECT_EQ(parseLine("commit").Kind, ParsedLine::Type::Commit);
  EXPECT_EQ(parseLine("verify").Kind, ParsedLine::Type::Verify);
  EXPECT_EQ(parseLine("epoch").Kind, ParsedLine::Type::Epoch);
  EXPECT_EQ(parseLine("stats").Kind, ParsedLine::Type::Stats);
  EXPECT_EQ(parseLine("quit").Kind, ParsedLine::Type::Quit);
  EXPECT_EQ(parseLine("").Kind, ParsedLine::Type::Empty);
  EXPECT_EQ(parseLine("# a comment").Kind, ParsedLine::Type::Empty);

  // Malformed input becomes an err-producing Invalid query.
  L = parseLine("frobnicate 1 2");
  EXPECT_EQ(L.Kind, ParsedLine::Type::Query);
  EXPECT_EQ(L.Q.Kind, RequestKind::Invalid);
  EXPECT_FALSE(L.Q.Error.empty());
  EXPECT_EQ(parseLine("dom notanumber 3").Q.Kind, RequestKind::Invalid);
  EXPECT_EQ(parseLine("edit 1 teleport 0 1").Q.Kind, RequestKind::Invalid);
}

TEST(ProtocolTest, RejectsNumbersPastU64) {
  // 2^64 - 1 still parses as a function id; 2^64 and 2^64 + 3 used to wrap
  // to 0 and 3 and answer for function 0 or node 3.
  ParsedLine L = parseLine("name 18446744073709551615");
  EXPECT_EQ(L.Q.Kind, RequestKind::Name);
  EXPECT_EQ(L.Q.Fn, UINT64_MAX);
  for (const char *Line :
       {"dom 18446744073709551616 3", "name 18446744073709551619",
        "regions 99999999999999999999999", "dom 0 18446744073709551619",
        "cdep 0 18446744073709551616", "region 0 1 18446744073709551618",
        "phi 0 2,18446744073709551619",
        "edit 18446744073709551616 insert 0 1"}) {
    L = parseLine(Line);
    EXPECT_EQ(L.Kind, ParsedLine::Type::Query) << Line;
    EXPECT_EQ(L.Q.Kind, RequestKind::Invalid) << Line;
  }
  EXPECT_EQ(parseLine("dom 18446744073709551616 3").Q.Error,
            "usage: dom <fn> ...");
  EXPECT_EQ(parseLine("dom 0 18446744073709551619").Q.Error,
            "usage: dom <fn> <node>");
}

TEST(ProtocolTest, RejectsEmptyDefTokens) {
  for (const char *Line : {"phi 0 3,", "phi 0 ,3", "phi 0 3,,4", "phi 0 ,"}) {
    ParsedLine L = parseLine(Line);
    EXPECT_EQ(L.Q.Kind, RequestKind::Invalid) << Line;
    EXPECT_EQ(L.Q.Error, "phi: bad def list") << Line;
  }
  ParsedLine L = parseLine("phi 0 3");
  EXPECT_EQ(L.Q.Kind, RequestKind::Phi);
  EXPECT_EQ(L.Q.Defs, (std::vector<NodeId>{3}));
}

std::string runScript(PstServer &Server, const std::string &Script,
                      size_t MaxBatch) {
  std::istringstream In(Script);
  std::ostringstream Out;
  ServerSession Session(Server, MaxBatch);
  Session.run(In, Out);
  return Out.str();
}

const char *sessionScript() {
  return "# scripted session\n"
         "name 0\n"
         "regions 0\n"
         "dom 0 3\n"
         "cdep 0 1\n"
         "phi 0 1,2\n"
         "epoch\n"
         "edit 0 addblock 0 1\n"
         "edit 4 split 0 1\n"
         "commit\n"
         "regions 0\n"
         "dom 0 3\n"
         "verify\n"
         "stats\n"
         "quit\n";
}

TEST(ProtocolTest, SessionRespondsOncePerRequestLine) {
  PstServer Server(makeTestImage());
  std::string Out = runScript(Server, sessionScript(), 256);

  // One response line per non-comment, non-empty input line.
  size_t Lines = 0;
  for (char C : Out)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 14u);
  EXPECT_EQ(Out.rfind("ok name fn=0 fn0\n", 0), 0u) << Out;
  EXPECT_NE(Out.find("ok verify shards="), std::string::npos) << Out;
  EXPECT_NE(Out.find("ok bye\n"), std::string::npos) << Out;
  // Both edits hit shard 0 (fn 0 and fn 4 under 4 shards), so one commit
  // batch refroze two functions.
  EXPECT_NE(Out.find("ok stats edits=2 rejected=0 commits=1 refrozen=2"),
            std::string::npos)
      << Out;
}

TEST(ProtocolTest, TranscriptsAreBatchSizeAndWorkerCountInvariant) {
  // The determinism contract: same script, byte-identical transcript,
  // whatever the batching or parallelism. Each configuration gets a
  // fresh server so the edit history is replayed identically.
  std::string Golden;
  for (size_t MaxBatch : {size_t(1), size_t(3), size_t(256)}) {
    for (unsigned Threads : {1u, 4u}) {
      ServeOptions Opts;
      Opts.NumShards = 3;
      Opts.NumThreads = Threads;
      PstServer Server(makeTestImage(), Opts);
      std::string Out = runScript(Server, sessionScript(), MaxBatch);
      if (Golden.empty())
        Golden = Out;
      else
        EXPECT_EQ(Out, Golden) << "batch=" << MaxBatch
                               << " threads=" << Threads;
    }
  }
}

TEST(ProtocolTest, SessionSurfacesErrorsWithoutDying) {
  PstServer Server(makeTestImage());
  std::string Out = runScript(Server,
                              "bogus command\n"
                              "dom 999 0\n"
                              "name 1\n",
                              256);
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);
  EXPECT_EQ(L1.rfind("err", 0), 0u) << L1;
  EXPECT_EQ(L2.rfind("err", 0), 0u) << L2;
  EXPECT_EQ(L3, "ok name fn=1 fn1");
}

TEST(ProtocolTest, EditsPastMaxFunctionSizeAreRejected) {
  // Two edges below the cap: one addblock (+1 node, +2 edges) fits.
  PstServer Server(oneFunctionImage(parallelEdgeCfg(MaxFunctionSize - 2)));
  EXPECT_EQ(runScript(Server,
                      "edit 0 addblock 0 1\n"
                      "edit 0 addblock 0 1\n"
                      "edit 0 insert 0 1\n"
                      "edit 0 split 0 1\n"
                      "commit\n"
                      "verify\n"
                      "stats\n",
                      256),
            "ok edit fn=0 addblock 0->1 node=2\n"
            "err edit fn=0 addblock 0->1 rejected\n"
            "err edit fn=0 insert 0->1 rejected\n"
            "err edit fn=0 split 0->1 rejected\n"
            "ok commit versions=[1,0,0,0]\n"
            "ok verify shards=4 identical\n"
            "ok stats edits=1 rejected=3 commits=1 refrozen=1 published=5 "
            "reclaimed=1\n");
}

TEST(ProtocolTest, OverlongLineGetsOneErrorAndSessionContinues) {
  PstServer Server(makeTestImage());
  // A multi-megabyte request (a phi def list nobody should send) between
  // two valid queries, batched with them: exactly three responses, in
  // input order, and the session keeps serving after the discarded bytes.
  std::string Huge = "phi 0 ";
  while (Huge.size() < 4 * 1024 * 1024)
    Huge += "1,";
  std::string Out =
      runScript(Server, "name 0\n" + Huge + "2\nname 1\ncommit\nname 2\n", 256);
  EXPECT_EQ(Out, "ok name fn=0 fn0\n"
                 "err line exceeds " +
                     std::to_string(MaxLineBytes) +
                     " bytes\n"
                     "ok name fn=1 fn1\n"
                     "ok commit versions=[0,0,0,0]\n"
                     "ok name fn=2 fn2\n");

  // A line of exactly the cap is still parsed normally, and an overlong
  // final line without a newline is answered too.
  std::string AtCap = "name 3";
  AtCap.resize(MaxLineBytes, ' ');
  EXPECT_EQ(runScript(Server, AtCap + "\n" + Huge, 256),
            "ok name fn=3 fn3\nerr line exceeds " +
                std::to_string(MaxLineBytes) + " bytes\n");
}

TEST(ProtocolTest, PhiDefListsAreCapped) {
  // MaxPhiDefs defs still parse and are answered; one more is rejected
  // with the cap in the message, and a session answers it with exactly one
  // err line, in order.
  std::string AtCap = "phi 0 1";
  for (size_t I = 1; I < MaxPhiDefs; ++I)
    AtCap += ",1";
  ParsedLine L = parseLine(AtCap);
  EXPECT_EQ(L.Q.Kind, RequestKind::Phi);
  EXPECT_EQ(L.Q.Defs.size(), MaxPhiDefs);

  const std::string Over = AtCap + ",2";
  const std::string Err =
      "err phi: more than " + std::to_string(MaxPhiDefs) + " defs";
  L = parseLine(Over);
  EXPECT_EQ(L.Q.Kind, RequestKind::Invalid);
  EXPECT_EQ("err " + L.Q.Error, Err);

  PstServer Server(makeTestImage());
  EXPECT_EQ(runScript(Server, "name 0\n" + Over + "\nname 1\n", 256),
            "ok name fn=0 fn0\n" + Err + "\nok name fn=1 fn1\n");
  EXPECT_EQ(runScript(Server, AtCap + "\n", 256).rfind("ok phi fn=0 ", 0), 0u);
}

} // namespace
