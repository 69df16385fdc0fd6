//===- RegionProfileTest.cpp - dynamic region profiler tests ---------------------===//
//
// Part of the PST library test suite:
//  * flow conservation of the interpreter's edge profile (per-block entry
//    counts vs traversed in/out-edge counts) on randomized programs,
//  * region-level differential invariants: entries == exits, inclusive ==
//    self + children, inclusive independently recomputed via allNodes,
//  * the planner: hot-loop top-ranking, nesting disjointness, golden plan
//    reports on hand-written loop nests,
//  * byte-determinism of the JSON report.
//
//===----------------------------------------------------------------------===//

#include "pst/prof/ParallelismPlanner.h"
#include "pst/prof/ProfileReport.h"
#include "pst/prof/RegionProfile.h"

#include "pst/dom/Dominators.h"
#include "pst/dom/LoopInfo.h"
#include "pst/lang/Parser.h"
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

const char *HotLoopSource = R"(
func hotloop(n, m) {
  var i = 0;
  var j = 0;
  var acc = 0;
  if (n < 0) { n = 0; }
  if (m < 0) { m = 0; }
  while (i < n) {
    j = 0;
    while (j < m) {
      acc = acc + (i * m + j) % 7;
      j = j + 1;
    }
    i = i + 1;
  }
  if (acc % 2 == 1) { acc = acc + 1; }
  return acc;
}
)";

const char *MixSource = R"(
func mix(n, bias) {
  var k = 0;
  var s = bias;
  while (k < n) {
    s = s + k * k % 11;
    k = k + 1;
  }
  if (s > 100) {
    s = s - 100;
  } else {
    if (s < 0) { s = 0 - s; } else { s = s + 1; }
  }
  return s;
}
)";

/// Per-run flow conservation over the raw counts: every block's entry
/// count balances its traversed in-edges (plus one for the start block)
/// and its traversed out-edges (plus one for the block the run stopped
/// in).
void expectFlowConserved(const LoweredFunction &F, const CfgExecResult &R) {
  const Cfg &G = F.Graph;
  ASSERT_EQ(R.BlockCounts.size(), G.numNodes());
  ASSERT_EQ(R.EdgeCounts.size(), G.numEdges());
  uint64_t StepSum = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    uint64_t In = N == G.entry() ? 1 : 0;
    for (EdgeId E : G.predEdges(N))
      In += R.EdgeCounts[E];
    EXPECT_EQ(R.BlockCounts[N], In) << "in-flow at node " << G.nodeName(N);
    if (R.Finished) {
      uint64_t Out = N == G.exit() ? 1 : 0;
      for (EdgeId E : G.succEdges(N))
        Out += R.EdgeCounts[E];
      EXPECT_EQ(R.BlockCounts[N], Out) << "out-flow at node " << G.nodeName(N);
    }
    StepSum += R.BlockCounts[N] * F.Code[N].size();
  }
  if (R.Finished) {
    EXPECT_EQ(StepSum, R.Steps);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter edge profile
//===----------------------------------------------------------------------===//

TEST(EdgeCounts, OffByDefaultAndSemanticsUnchanged) {
  LoweredFunction F = compileOne(HotLoopSource);
  CfgExecResult Plain = runLowered(F, {5, 6});
  EXPECT_TRUE(Plain.Finished);
  EXPECT_TRUE(Plain.EdgeCounts.empty());

  CfgExecResult Counted = runLowered(F, {5, 6}, 1 << 20, /*CountEdges=*/true);
  EXPECT_EQ(Counted.EdgeCounts.size(), F.Graph.numEdges());
  EXPECT_EQ(Plain.Finished, Counted.Finished);
  EXPECT_EQ(Plain.ReturnValue, Counted.ReturnValue);
  EXPECT_EQ(Plain.Steps, Counted.Steps);
  EXPECT_EQ(Plain.BlockCounts, Counted.BlockCounts);
}

TEST(EdgeCounts, FlowConservationOnRandomPrograms) {
  Rng R(0x5e51015);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 50;
  Opts.GotoProb = 0.3; // Unstructured flow must balance too.
  size_t Finished = 0;
  for (int I = 0; I < 40; ++I) {
    Function Fn = generateFunction(R, Opts, "gen");
    auto L = lowerFunction(Fn);
    ASSERT_TRUE(L.has_value());
    for (int64_t A = -2; A <= 2; ++A) {
      CfgExecResult Run =
          runLowered(*L, {A, A + 7, 3 - A}, 200000, /*CountEdges=*/true);
      expectFlowConserved(*L, Run);
      Finished += Run.Finished;
    }
  }
  // Goto-heavy generated programs frequently spin past the budget; make
  // sure the out-flow half of the invariant was still exercised on a
  // healthy number of complete traces.
  EXPECT_GT(Finished, 40u);
}

//===----------------------------------------------------------------------===//
// Region attribution
//===----------------------------------------------------------------------===//

TEST(RegionProfile, RejectsUnfinishedAndUncountedRuns) {
  LoweredFunction F = compileOne(
      "func f(x) { var i = 0; while (x > 0) { i = i + 1; } return i; }");
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  RegionProfile P(F, T);
  // No edge counts.
  EXPECT_FALSE(P.addRun(runLowered(F, {0})));
  // Budget exhausted (x > 0 never flips).
  CfgExecResult Spin = runLowered(F, {1}, 1000, /*CountEdges=*/true);
  EXPECT_FALSE(Spin.Finished);
  EXPECT_FALSE(P.addRun(Spin));
  EXPECT_EQ(P.numRuns(), 0u);
}

TEST(RegionProfile, InvariantsOnRandomPrograms) {
  Rng R(0xa77b1b);
  ProgramGenOptions Opts;
  Opts.TargetStatements = 60;
  Opts.GotoProb = 0.25;
  size_t ProfiledRuns = 0;
  for (int I = 0; I < 25; ++I) {
    Function Fn = generateFunction(R, Opts, "gen");
    auto L = lowerFunction(Fn);
    ASSERT_TRUE(L.has_value());
    ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(L->Graph));
    RegionProfile P(*L, T);
    for (int64_t A = 0; A < 4; ++A)
      if (P.runAndAdd({A * 3 + 1, 5 - A, A}, 200000).Finished)
        ++ProfiledRuns;
    P.finalize();

    // The root accounts for everything.
    EXPECT_EQ(P.dynamics(T.root()).InclusiveCost, P.totalWork());
    EXPECT_EQ(P.dynamics(T.root()).Entries, P.numRuns());

    std::vector<uint64_t> Cost(L->Graph.numNodes());
    for (NodeId N = 0; N < L->Graph.numNodes(); ++N)
      Cost[N] = L->Code[N].size();

    for (RegionId Reg = 0; Reg < T.numRegions(); ++Reg) {
      const RegionDynamics &D = P.dynamics(Reg);
      // SESE soundness: complete runs enter exactly as often as they exit.
      EXPECT_EQ(D.Entries, D.Exits) << "region " << Reg;
      // Inclusive = self + children (the tree recurrence)...
      uint64_t FromChildren = D.SelfCost;
      for (RegionId C : T.children(Reg))
        FromChildren += P.dynamics(C).InclusiveCost;
      EXPECT_EQ(D.InclusiveCost, FromChildren) << "region " << Reg;
      // ...and independently, the flat sum over every contained block.
      uint64_t Flat = 0;
      for (NodeId N : T.allNodes(Reg))
        Flat += P.blockTotals()[N] * Cost[N];
      EXPECT_EQ(D.InclusiveCost, Flat) << "region " << Reg;
      if (Reg != T.root()) {
        EXPECT_EQ(D.Entries, P.edgeTotals()[T.region(Reg).EntryEdge]);
      }
    }
  }
  EXPECT_GT(ProfiledRuns, 15u);
}

TEST(RegionProfile, WhileLoopTripCounts) {
  LoweredFunction F = compileOne(
      "func f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; "
      "i = i + 1; } return s; }");
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  RegionProfile P(F, T);
  EXPECT_TRUE(P.runAndAdd({5}).Finished);
  EXPECT_TRUE(P.runAndAdd({0}).Finished);
  EXPECT_TRUE(P.runAndAdd({9}).Finished);
  P.finalize();

  // Locate the loop region: the cyclic one.
  RegionId LoopReg = InvalidRegion;
  for (RegionId Reg = 1; Reg < T.numRegions(); ++Reg)
    if (P.dynamics(Reg).Cyclic) {
      ASSERT_EQ(LoopReg, InvalidRegion) << "expected exactly one cyclic region";
      LoopReg = Reg;
    }
  ASSERT_NE(LoopReg, InvalidRegion);

  const RegionDynamics &D = P.dynamics(LoopReg);
  EXPECT_EQ(D.Kind, RegionKind::Loop);
  EXPECT_EQ(D.Entries, 3u);
  // Iterations = header executions: (5+1) + (0+1) + (9+1).
  EXPECT_EQ(D.Iterations, 17u);
  // Per-run trip samples: 6, 1, 10.
  EXPECT_EQ(D.RunIterations.Count, 3u);
  EXPECT_EQ(D.RunIterations.Min, 1u);
  EXPECT_EQ(D.RunIterations.Max, 10u);
  EXPECT_EQ(D.RunIterations.Sum, 17u);
}

//===----------------------------------------------------------------------===//
// Planner
//===----------------------------------------------------------------------===//

TEST(Planner, HotLoopIsTopRanked) {
  LoweredFunction F = compileOne(HotLoopSource);
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  RegionProfile P(F, T);
  for (uint64_t Run = 0; Run < 8; ++Run)
    EXPECT_TRUE(P.runAndAdd({static_cast<int64_t>((7 * Run + 5) % 23),
                             static_cast<int64_t>((7 * Run + 8) % 23)})
                    .Finished);
  P.finalize();
  ParallelismPlan Plan = planParallelism(P);

  ASSERT_FALSE(Plan.Entries.empty());
  const PlanEntry &Top = Plan.Entries[0];
  EXPECT_NE(Top.Region, T.root());
  EXPECT_EQ(Top.Kind, RegionKind::Loop);
  EXPECT_GT(Top.Coverage, 0.9);

  // The top region is the canonical SESE region of the hot (outermost)
  // natural loop: it contains every node of that loop and is itself
  // contained in no planned region.
  DomTree DT = DomTree::buildIterative(V);
  LoopInfo LI(V, DT);
  LoopId Outer = InvalidLoop;
  for (LoopId L = 0; L < LI.numLoops(); ++L)
    if (LI.loop(L).Depth == 1) {
      ASSERT_EQ(Outer, InvalidLoop) << "expected one outermost loop";
      Outer = L;
    }
  ASSERT_NE(Outer, InvalidLoop);
  for (NodeId N : LI.loop(Outer).Nodes)
    EXPECT_TRUE(T.contains(Top.Region, T.regionOfNode(N)))
        << "loop node " << F.Graph.nodeName(N) << " outside the top region";
}

TEST(Planner, PlanIsNestingDisjointAndRanked) {
  // Two sequential hot loops: both must be planned (they do not nest),
  // and descendants of a planned region must not appear.
  LoweredFunction F = compileOne(R"(
func twoloops(n, m) {
  var i = 0;
  var a = 0;
  while (i < n) { a = a + i * 3 % 5; i = i + 1; }
  var j = 0;
  while (j < m) { a = a + j * j % 7; j = j + 1; }
  return a;
}
)");
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  RegionProfile P(F, T);
  for (int64_t A = 4; A <= 24; A += 5)
    EXPECT_TRUE(P.runAndAdd({A, 29 - A}).Finished);
  P.finalize();
  ParallelismPlan Plan = planParallelism(P);

  ASSERT_EQ(Plan.Entries.size(), 2u);
  for (const PlanEntry &E : Plan.Entries)
    EXPECT_EQ(E.Kind, RegionKind::Loop);
  for (size_t I = 0; I < Plan.Entries.size(); ++I)
    for (size_t J = I + 1; J < Plan.Entries.size(); ++J) {
      EXPECT_GE(Plan.Entries[I].Benefit, Plan.Entries[J].Benefit);
      EXPECT_FALSE(
          T.contains(Plan.Entries[I].Region, Plan.Entries[J].Region));
      EXPECT_FALSE(
          T.contains(Plan.Entries[J].Region, Plan.Entries[I].Region));
    }
}

TEST(Planner, GoldenPlanOnHotLoopNest) {
  LoweredFunction F = compileOne(HotLoopSource);
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  RegionProfile P(F, T);
  const int64_t Workload[][2] = {{6, 7}, {3, 11}, {0, 5}, {12, 2}};
  for (auto [N, M] : Workload)
    EXPECT_TRUE(P.runAndAdd({N, M}).Finished);
  P.finalize();
  EXPECT_EQ(formatParallelismPlan(P, planParallelism(P)),
            "parallelism plan for hotloop: candidates=2 selected=1 work=421\n"
            "  #1 region 6 (b8->while9, while9->after10) loop: "
            "coverage=0.914489 selfpar=6.250000 iters/entry=6.250000 "
            "benefit=0.768171\n");
}

TEST(Planner, GoldenPlanOnMixedShape) {
  LoweredFunction F = compileOne(MixSource);
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  RegionProfile P(F, T);
  const int64_t Workload[][2] = {{9, 3}, {14, -20}, {2, 150}};
  for (auto [N, Bias] : Workload)
    EXPECT_TRUE(P.runAndAdd({N, Bias}).Finished);
  P.finalize();
  EXPECT_EQ(formatParallelismPlan(P, planParallelism(P)),
            "parallelism plan for mix: candidates=2 selected=2 work=101\n"
            "  #1 region 2 (b2->while3, while3->after4) loop: "
            "coverage=0.772277 selfpar=9.333333 iters/entry=9.333333 "
            "benefit=0.689533\n"
            "  #2 region 4 (while3->after4, join6->b13) if-then-else: "
            "coverage=0.079208 selfpar=1.142857 benefit=0.009901\n");
}

//===----------------------------------------------------------------------===//
// Report determinism
//===----------------------------------------------------------------------===//

TEST(ProfileReport, JsonByteDeterministic) {
  LoweredFunction F = compileOne(HotLoopSource);
  ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
  auto MakeJson = [&] {
    RegionProfile P(F, T);
    for (uint64_t Run = 0; Run < 6; ++Run)
      P.runAndAdd({static_cast<int64_t>((5 * Run + 2) % 17),
                   static_cast<int64_t>((3 * Run + 4) % 13)});
    P.finalize();
    ParallelismPlan Plan = planParallelism(P);
    return profileToJson(P, Plan);
  };
  std::string A = MakeJson();
  std::string B = MakeJson();
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.empty());
  // Spot-check shape: one region array, one plan object.
  EXPECT_NE(A.find("\"regions\":["), std::string::npos);
  EXPECT_NE(A.find("\"plan\":{"), std::string::npos);
  EXPECT_NE(A.find("\"trip_stats\":{"), std::string::npos);
}
