//===- DerivedCacheTest.cpp - derived-analysis cache, cdep CSR, region LCA ---===//
//
// Part of the PST library (see pst/serve/DerivedCache.h for the reference).
//
// Three layers:
//
//  - CdepCsrTest: the precomputed control-dependence CSR against the
//    brute-force Ferrante/Ottenstein/Warren scan the uncached query path
//    runs — same sets, same ascending-edge-id order.
//  - DerivedCacheTest: slot/counter semantics (exactly-once builds, warm
//    hits, region/regions/name never touching a bundle), the
//    cached-vs-uncached response-identity contract across randomized
//    edit/commit rounds (which also proves refreeze drops stale bundles),
//    and the TSan-facing suites where readers race first-touch bundle
//    builds against each other and against committing writers.
//  - PstLcaTest: the `region` query's parent-chain walk to the least
//    common ancestor, against the deepest region whose node set holds
//    both nodes, on structured shapes and a seed sweep of random CFGs.
//
// The concurrency tests run in CI's thread-sanitizer job; keep new
// shared-state tests in the *Concurrent* naming pattern so the ctest
// regex picks them up.
//
//===----------------------------------------------------------------------===//

#include "pst/serve/DerivedCache.h"
#include "pst/serve/PstServer.h"
#include "pst/serve/Snapshot.h"

#include "pst/dom/ControlDependenceCsr.h"
#include "pst/dom/Dominators.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/image/CorpusImage.h"
#include "pst/workload/CfgGenerators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace pst;
using namespace pst::serve;

namespace {

//===----------------------------------------------------------------------===//
// ControlDependenceCsr: precomputed relation vs the FOW scan
//===----------------------------------------------------------------------===//

/// The exact scan the uncached `cdep` query runs: N is control dependent
/// on edge (C, M) iff N postdominates M and does not strictly
/// postdominate C. Ascending edge ids by construction.
std::vector<EdgeId> cdepByScan(const Cfg &G, const DomTree &Pdt, NodeId N) {
  std::vector<EdgeId> Out;
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    NodeId C = G.source(E), M = G.target(E);
    if (Pdt.dominates(N, M) && !(N != C && Pdt.dominates(N, C)))
      Out.push_back(E);
  }
  return Out;
}

void expectCdepMatchesScan(const Cfg &G, const char *What) {
  DomTree Pdt = DomTree::buildPostDom(FrozenCfg(G));
  ControlDependenceCsr Csr(FrozenCfg(G), Pdt);
  size_t Total = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    std::vector<EdgeId> Expect = cdepByScan(G, Pdt, N);
    std::span<const EdgeId> Got = Csr.controllingEdges(N);
    ASSERT_EQ(std::vector<EdgeId>(Got.begin(), Got.end()), Expect)
        << What << " node " << N;
    Total += Expect.size();
  }
  EXPECT_EQ(Csr.relationSize(), Total) << What;
  EXPECT_GT(Csr.bytes(), 0u) << What;
}

TEST(CdepCsrTest, StructuredShapesMatchScan) {
  expectCdepMatchesScan(chainCfg(5), "chain");
  expectCdepMatchesScan(diamondLadderCfg(4), "diamond ladder");
  expectCdepMatchesScan(nestedWhileCfg(3), "nested while");
  expectCdepMatchesScan(nestedRepeatUntilCfg(3), "nested repeat-until");
  expectCdepMatchesScan(irreducibleCfg(2), "irreducible");
  expectCdepMatchesScan(paperFigure1Cfg(), "paper figure 1");
}

class CdepCsrRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CdepCsrRandomTest, MatchesScanOnRandomCfgs) {
  // Self loops, parallel edges and back edges all stress the walk's
  // termination cases; the seeds sweep all of them in.
  Rng R(GetParam() * 2862933555777941757ull + 3037000493ull);
  RandomCfgOptions Opts;
  Opts.NumNodes = 3 + static_cast<uint32_t>(R.nextBelow(30));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(40));
  Opts.SelfLoopProb = 0.15;
  Opts.ParallelProb = 0.15;
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectCdepMatchesScan(G, "random");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdepCsrRandomTest,
                         ::testing::Range<uint64_t>(0, 40));

//===----------------------------------------------------------------------===//
// DerivedCache: slots, counters, and the response-identity contract
//===----------------------------------------------------------------------===//

/// 0 -> {1,2} -> 3.
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

/// A small mixed-shape corpus image, memory-backed; deterministic, so two
/// servers built from equal \p NumFns start byte-identical.
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

Request makeRequest(RequestKind K, uint64_t Fn, NodeId A = InvalidNode,
                    NodeId B = InvalidNode) {
  Request R;
  R.Kind = K;
  R.Fn = Fn;
  R.A = A;
  R.B = B;
  return R;
}

/// Every derived-analysis-backed query kind, for every node of \p Fn.
std::vector<Request> queryBattery(const PstServer &S, uint64_t Fn) {
  std::vector<Request> Batch;
  // Node ids come from the base image so the battery is identical across
  // servers and rounds; after edits grow a function the extra nodes still
  // answer deterministically (the base ids all stay valid).
  uint32_t Nodes = S.image().cfg(Fn).numNodes();
  Batch.push_back(makeRequest(RequestKind::Regions, Fn));
  for (NodeId N = 0; N < Nodes; ++N) {
    Batch.push_back(makeRequest(RequestKind::Dom, Fn, N));
    Batch.push_back(makeRequest(RequestKind::Cdep, Fn, N));
    Batch.push_back(makeRequest(RequestKind::Region, Fn, N, N / 2));
    Request Phi = makeRequest(RequestKind::Phi, Fn);
    Phi.Defs = {N, static_cast<NodeId>(Nodes - 1)};
    Batch.push_back(Phi);
  }
  return Batch;
}

/// Requests in \p Batch that read a derived bundle (dom, cdep, phi).
uint64_t bundleQueries(const std::vector<Request> &Batch) {
  return std::count_if(Batch.begin(), Batch.end(), [](const Request &R) {
    return R.Kind == RequestKind::Dom || R.Kind == RequestKind::Cdep ||
           R.Kind == RequestKind::Phi;
  });
}

TEST(DerivedCacheTest, DisabledCacheServesIdenticalAnswersWithNoSlots) {
  ServeOptions On, Off;
  Off.DerivedCache = false;
  PstServer Cached(makeTestImage(), On);
  PstServer Uncached(makeTestImage(), Off);
  ASSERT_NE(Cached.derivedCache(), nullptr);
  ASSERT_EQ(Uncached.derivedCache(), nullptr);

  for (uint64_t Fn = 0; Fn < Cached.numFunctions(); ++Fn)
    for (const Request &R : queryBattery(Cached, Fn))
      ASSERT_EQ(Cached.execute(R), Uncached.execute(R));

  // The uncached server never touched a slot or a counter.
  DerivedCacheStats Off1 = Uncached.derivedCacheStats();
  EXPECT_EQ(Off1.Builds + Off1.Hits + Off1.Waits, 0u);
  // The cached one built exactly one bundle per function.
  DerivedCacheStats On1 = Cached.derivedCacheStats();
  EXPECT_EQ(On1.Builds, Cached.numFunctions());
  EXPECT_GT(On1.BytesBuilt, 0u);
  EXPECT_EQ(Cached.derivedCache()->numSlots(), Cached.numFunctions());
}

TEST(DerivedCacheTest, WarmPassIsAllHitsAndBuildsNothing) {
  PstServer S(makeTestImage());
  std::vector<Request> Batch;
  for (uint64_t Fn = 0; Fn < S.numFunctions(); ++Fn)
    for (const Request &R : queryBattery(S, Fn))
      Batch.push_back(R);

  std::vector<std::string> Cold, Warm;
  S.executeBatch(Batch, Cold);
  DerivedCacheStats AfterCold = S.derivedCacheStats();
  EXPECT_EQ(AfterCold.Builds, S.numFunctions());

  S.executeBatch(Batch, Warm);
  DerivedCacheStats AfterWarm = S.derivedCacheStats();
  EXPECT_EQ(Warm, Cold);
  EXPECT_EQ(AfterWarm.Builds, AfterCold.Builds); // Nothing rebuilt.
  EXPECT_EQ(AfterWarm.BytesBuilt, AfterCold.BytesBuilt);
  EXPECT_EQ(AfterWarm.Hits, AfterCold.Hits + bundleQueries(Batch));
}

TEST(DerivedCacheTest, NameAndErrorQueriesNeverMaterializeABundle) {
  PstServer S(makeTestImage());
  for (uint64_t Fn = 0; Fn < S.numFunctions(); ++Fn) {
    S.execute(makeRequest(RequestKind::Name, Fn));
    S.execute(makeRequest(RequestKind::Regions, Fn));
    uint32_t Nodes = S.image().cfg(Fn).numNodes();
    for (NodeId N = 0; N < Nodes; ++N)
      ASSERT_EQ(S.execute(makeRequest(RequestKind::Region, Fn, N, Nodes - 1))
                    .rfind("ok region", 0),
                0u);
  }
  S.execute(makeRequest(RequestKind::Dom, 0, 999));       // err: node range.
  S.execute(makeRequest(RequestKind::Region, 0, 0, 999)); // err: node range.
  S.execute(makeRequest(RequestKind::Name, 999));         // err: fn range.
  S.execute(makeRequest(RequestKind::Regions, 999));      // err: fn range.
  DerivedCacheStats St = S.derivedCacheStats();
  EXPECT_EQ(St.Builds, 0u);
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Waits, 0u);
}

/// The acceptance contract, exercised hard: two servers over identical
/// images — one cached, one not — replay the same deterministic edit/
/// commit stream, and after every commit the full query battery must be
/// byte-identical. Every commit refreezes edited functions into new
/// snapshots, so a cached answer reflecting a *stale* bundle (or an
/// uncached answer diverging from the CSR/LCA paths) fails here.
TEST(DerivedCacheTest, CachedMatchesUncachedAcrossRandomizedEditRounds) {
  ServeOptions On, Off;
  On.NumShards = 2;
  Off.NumShards = 2;
  Off.DerivedCache = false;
  PstServer Cached(makeTestImage(8), On);
  PstServer Uncached(makeTestImage(8), Off);

  uint64_t Rng = 0x5eed0fca11ab1e00ull ^ 0x9e3779b97f4a7c15ull;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };

  uint64_t Tombstoning = 0; // Accepted deleteEdge and splitBlock edits.
  for (int Round = 0; Round < 10; ++Round) {
    // Identical edits on both servers, driven off the cached server's
    // writer graphs (both evolve in lockstep, so the ops stay valid or
    // get rejected identically). deleteEdge and splitBlock leave
    // tombstones in the writer graph, which the commit's view drops.
    std::set<uint64_t> Edited;
    for (int E = 0; E < 4; ++E) {
      uint64_t Fn = Next() % 8;
      Shard &A = Cached.shardOf(Fn);
      Shard &B = Uncached.shardOf(Fn);
      Cfg G = A.writerGraph(Fn);
      if (!G.numEdges())
        continue;
      EdgeId Edge = static_cast<EdgeId>(Next() % G.numEdges());
      NodeId Src = G.source(Edge), Dst = G.target(Edge);
      bool Accepted = false;
      switch (Next() % 4) {
      case 0:
        Accepted = A.addBlock(Fn, Src, Dst) != InvalidNode;
        ASSERT_EQ(B.addBlock(Fn, Src, Dst) != InvalidNode, Accepted);
        break;
      case 1:
        Accepted = A.splitBlock(Fn, Src, Dst) != InvalidNode;
        ASSERT_EQ(B.splitBlock(Fn, Src, Dst) != InvalidNode, Accepted);
        Tombstoning += Accepted;
        break;
      case 2:
        Accepted = A.deleteEdge(Fn, Src, Dst);
        ASSERT_EQ(B.deleteEdge(Fn, Src, Dst), Accepted);
        Tombstoning += Accepted;
        break;
      default:
        Accepted = A.insertEdge(Fn, Src, Dst) != InvalidEdge;
        ASSERT_EQ(B.insertEdge(Fn, Src, Dst) != InvalidEdge, Accepted);
        break;
      }
      if (Accepted)
        Edited.insert(Fn);
    }
    // shardOf(Fn) maps by Fn % NumShards, so Fn = 0..NumShards-1 visits
    // every shard once. The cached server's commits build one bundle per
    // refrozen function; the uncached server's build none.
    const DerivedCacheStats BeforeCommits = Cached.derivedCacheStats();
    for (uint64_t Sh = 0; Sh < Cached.numShards(); ++Sh) {
      Cached.shardOf(Sh).commit();
      Uncached.shardOf(Sh).commit();
    }
    const DerivedCacheStats AfterCommits = Cached.derivedCacheStats();
    ASSERT_EQ(AfterCommits.Builds - BeforeCommits.Builds, Edited.size())
        << "round " << Round;

    // The first dom/cdep/phi queries on each edited function find its
    // bundle ready: hits only, no build, no wait.
    for (uint64_t Fn : Edited) {
      Cached.execute(makeRequest(RequestKind::Dom, Fn, 0));
      Cached.execute(makeRequest(RequestKind::Cdep, Fn, 0));
      Request Phi = makeRequest(RequestKind::Phi, Fn);
      Phi.Defs = {0};
      Cached.execute(Phi);
    }
    const DerivedCacheStats AfterFirst = Cached.derivedCacheStats();
    EXPECT_EQ(AfterFirst.Builds, AfterCommits.Builds) << "round " << Round;
    EXPECT_EQ(AfterFirst.Waits, AfterCommits.Waits) << "round " << Round;
    EXPECT_EQ(AfterFirst.Hits - AfterCommits.Hits, 3 * Edited.size())
        << "round " << Round;

    for (uint64_t Fn = 0; Fn < Cached.numFunctions(); ++Fn)
      for (const Request &R : queryBattery(Cached, Fn))
        ASSERT_EQ(Cached.execute(R), Uncached.execute(R))
            << "round " << Round << " fn " << Fn;

    std::string Why;
    for (uint64_t Sh = 0; Sh < Cached.numShards(); ++Sh) {
      ASSERT_TRUE(Cached.shardOf(Sh).verifyPublished(&Why))
          << "round " << Round << ": " << Why;
      ASSERT_TRUE(Uncached.shardOf(Sh).verifyPublished(&Why))
          << "round " << Round << ": " << Why;
    }
  }
  // The rounds did leave tombstones behind.
  EXPECT_GT(Tombstoning, 0u);
  // The edit rounds really did turn bundles over: more builds than base
  // functions means refrozen snapshots were rebuilt, not reused.
  EXPECT_GT(Cached.derivedCacheStats().Builds, Cached.numFunctions());
  // The uncached server never built, hit or waited on a bundle.
  DerivedCacheStats Never = Uncached.derivedCacheStats();
  EXPECT_EQ(Never.Builds + Never.Hits + Never.Waits, 0u);
}

/// TSan-facing: many readers race the first touch of every slot on a
/// fresh cached server. The once-init protocol must build each base
/// bundle exactly once, everyone else hitting or waiting, and all
/// responses must agree with a serial replay.
TEST(DerivedCacheTest, ConcurrentFirstTouchBuildsAreExactlyOnce) {
  constexpr int NumReaders = 4;
  ServeOptions Opts;
  Opts.NumThreads = 2;
  PstServer S(makeTestImage(), Opts);

  std::vector<Request> Battery;
  for (uint64_t Fn = 0; Fn < S.numFunctions(); ++Fn)
    for (const Request &R : queryBattery(S, Fn))
      Battery.push_back(R);

  std::atomic<bool> Go{false};
  std::vector<std::vector<std::string>> Got(NumReaders);
  std::vector<std::thread> Readers;
  for (int R = 0; R < NumReaders; ++R) {
    Readers.emplace_back([&, R] {
      // The caller-provided-scratch overload is the thread-safe path.
      QueryScratch Sc;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (const Request &Q : Battery)
        Got[R].push_back(S.execute(Q, Sc));
    });
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  // Exactly one build per function, no matter how the race went. Every
  // dom/cdep/phi query resolves as a build or (possibly after a wait
  // episode) a hit, so hits + builds is exactly their count; waits are
  // extra episodes, not outcomes.
  DerivedCacheStats St = S.derivedCacheStats();
  EXPECT_EQ(St.Builds, S.numFunctions());
  EXPECT_EQ(St.Hits + St.Builds, bundleQueries(Battery) * NumReaders);

  for (int R = 1; R < NumReaders; ++R)
    ASSERT_EQ(Got[R], Got[0]) << "reader " << R;
}

/// TSan-facing: readers hammer derived-analysis queries (racing
/// first-touch builds on freshly refrozen snapshots) while a writer
/// commits. Every response must come from a committed epoch's bundle —
/// the idom of the diamond's join is the entry in every epoch, and
/// untouched functions must stay bit-stable throughout.
TEST(DerivedCacheTest, ConcurrentReadersDuringCommits) {
  constexpr int NumReaders = 3;
  constexpr int NumCommits = 40;
  ServeOptions Opts;
  Opts.NumShards = 2;
  Opts.NumThreads = 2;
  PstServer S(makeTestImage(), Opts);

  // Baseline answers for functions the writer never touches.
  std::vector<Request> Stable;
  for (uint64_t Fn = 1; Fn < S.numFunctions(); ++Fn)
    for (const Request &R : queryBattery(S, Fn))
      Stable.push_back(R);
  // Serially, so the warm-up itself cannot wait. fn 0's base bundle is
  // warmed too: with every base bundle built and every overlay bundle
  // built by the committing writer, no reader ever builds or waits.
  std::vector<std::string> Baseline;
  for (const Request &R : Stable)
    Baseline.push_back(S.execute(R));
  ASSERT_EQ(S.execute(makeRequest(RequestKind::Dom, 0, 3)),
            "ok dom fn=0 node=3 idom=0");

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Iterations{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R < NumReaders; ++R) {
    Readers.emplace_back([&] {
      // The caller-provided-scratch overload is the thread-safe path.
      QueryScratch Sc;
      while (!Stop.load(std::memory_order_relaxed)) {
        // fn 0 is the edited one: every commit publishes it with a
        // freshly built bundle.
        ASSERT_EQ(S.execute(makeRequest(RequestKind::Dom, 0, 3), Sc),
                  "ok dom fn=0 node=3 idom=0");
        S.execute(makeRequest(RequestKind::Cdep, 0, 1), Sc);
        Request Phi = makeRequest(RequestKind::Phi, 0);
        Phi.Defs = {1, 2};
        S.execute(Phi, Sc);
        for (size_t I = 0; I < Stable.size(); ++I)
          ASSERT_EQ(S.execute(Stable[I], Sc), Baseline[I]);
        Iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int C = 0; C < NumCommits; ++C) {
    ASSERT_NE(S.shardOf(0).addBlock(0, 0, 1), InvalidNode);
    S.shardOf(0).commit();
  }
  // On a single-core host the writer can drain its commits before any
  // reader runs; insist on at least one full reader pass so the fn 0
  // bundle (base or refrozen snapshot) really was exercised. Bounded, so
  // a reader dying on an assertion cannot hang the suite.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Iterations.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();

  std::string Why;
  EXPECT_TRUE(S.shardOf(0).verifyPublished(&Why)) << Why;
  // Exactly the base slots plus one bundle per commit, and no reader
  // ever waited, however the threads were scheduled.
  DerivedCacheStats St = S.derivedCacheStats();
  EXPECT_EQ(St.Builds, S.numFunctions() + NumCommits);
  EXPECT_EQ(St.Waits, 0u);
}

//===----------------------------------------------------------------------===//
// Region queries: the server's parent walk vs a containment oracle
//===----------------------------------------------------------------------===//

/// A one-function server over \p G.
std::unique_ptr<PstServer> serverFor(const Cfg &G) {
  const Cfg *Fns[1] = {&G};
  std::string Names[1] = {"f"};
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(buildCorpusImage(Fns, Names),
                                           &Error);
  EXPECT_TRUE(Img.valid()) << Error;
  return std::make_unique<PstServer>(std::move(Img));
}

std::string edgeField(EdgeId E) {
  return E == InvalidEdge ? "-" : std::to_string(E);
}

/// The `region` response the walk must produce: the deepest region whose
/// node set (its own nodes and every nested region's) holds both nodes,
/// found by membership rather than by parent chains.
std::vector<std::string> expectedRegionResponses(const ProgramStructureTree &T,
                                                 uint32_t NumNodes) {
  std::vector<std::vector<bool>> In(T.numRegions(),
                                    std::vector<bool>(NumNodes, false));
  for (RegionId R = 0; R < T.numRegions(); ++R)
    for (NodeId N : T.allNodes(R))
      In[R][N] = true;
  std::vector<std::string> Out;
  for (NodeId A = 0; A < NumNodes; ++A)
    for (NodeId B = 0; B < NumNodes; ++B) {
      RegionId Best = T.root();
      for (RegionId R = 0; R < T.numRegions(); ++R)
        if (In[R][A] && In[R][B] && T.region(R).Depth > T.region(Best).Depth)
          Best = R;
      const SeseRegion &Reg = T.region(Best);
      Out.push_back("ok region fn=0 a=" + std::to_string(A) +
                    " b=" + std::to_string(B) +
                    " region=" + std::to_string(Best) +
                    " depth=" + std::to_string(Reg.Depth) +
                    " entry=" + edgeField(Reg.EntryEdge) +
                    " exit=" + edgeField(Reg.ExitEdge));
    }
  return Out;
}

void expectRegionQueriesMatchContainment(const Cfg &G, const char *What) {
  std::unique_ptr<PstServer> S = serverFor(G);
  std::vector<std::string> Expect =
      expectedRegionResponses(S->image().pst(0), G.numNodes());
  size_t I = 0;
  for (NodeId A = 0; A < G.numNodes(); ++A)
    for (NodeId B = 0; B < G.numNodes(); ++B, ++I)
      ASSERT_EQ(S->execute(makeRequest(RequestKind::Region, 0, A, B)),
                Expect[I])
          << What;
}

/// The region= field of a `region` response.
std::string regionField(const std::string &Resp) {
  size_t At = Resp.find(" region=") + 8;
  return Resp.substr(At, Resp.find(' ', At) - At);
}

TEST(PstLcaTest, StructuredShapesMatchWalk) {
  expectRegionQueriesMatchContainment(chainCfg(5), "chain");
  expectRegionQueriesMatchContainment(diamondLadderCfg(4), "diamond ladder");
  expectRegionQueriesMatchContainment(nestedWhileCfg(3), "nested while");
  expectRegionQueriesMatchContainment(nestedRepeatUntilCfg(3),
                                      "nested repeat-until");
  expectRegionQueriesMatchContainment(irreducibleCfg(2), "irreducible");
  expectRegionQueriesMatchContainment(paperFigure1Cfg(), "paper figure 1");
}

TEST(PstLcaTest, LcaIsReflexiveSymmetricAndRootAbsorbing) {
  Cfg G = nestedWhileCfg(3);
  std::unique_ptr<PstServer> S = serverFor(G);
  ProgramStructureTree T = S->image().pst(0);
  auto Region = [&](NodeId A, NodeId B) {
    return regionField(S->execute(makeRequest(RequestKind::Region, 0, A, B)));
  };
  for (NodeId A = 0; A < G.numNodes(); ++A) {
    EXPECT_EQ(Region(A, A), std::to_string(T.regionOfNode(A)));
    // The entry node sits in the synthetic root, region 0.
    EXPECT_EQ(Region(A, G.entry()), "0");
    for (NodeId B = 0; B < G.numNodes(); ++B)
      EXPECT_EQ(Region(A, B), Region(B, A));
  }
}

class PstLcaRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstLcaRandomTest, MatchesWalkOnRandomCfgs) {
  Rng R(GetParam() * 6364136223846793005ull + 1442695040888963407ull);
  RandomCfgOptions Opts;
  Opts.NumNodes = 3 + static_cast<uint32_t>(R.nextBelow(40));
  Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(30));
  Cfg G = randomBackboneCfg(R, Opts);
  ASSERT_TRUE(validateCfg(G));
  expectRegionQueriesMatchContainment(G, "random");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstLcaRandomTest,
                         ::testing::Range<uint64_t>(0, 40));

} // namespace
