//===- PipelineTest.cpp - whole-pipeline integration tests ----------------------===//
//
// Part of the PST library test suite: runs every analysis end-to-end over a
// slice of the paper-calibrated corpus — the same inputs the benches use —
// checking the cross-algorithm invariants hold on realistic procedures,
// not just on synthetic property-test graphs.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/core/StructureMetrics.h"
#include "pst/cycleequiv/CycleEquivBrute.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/ssa/SsaBuilder.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

using namespace pst;

namespace {

/// A deterministic slice of the corpus, small enough for CI.
std::vector<CorpusFunction> corpusSlice(size_t MaxFns, uint32_t MaxBlocks) {
  static std::vector<CorpusFunction> Full = generatePaperCorpus(20260705);
  std::vector<CorpusFunction> Out;
  for (size_t I = 0; I < Full.size() && Out.size() < MaxFns; I += 7) {
    if (Full[I].Fn.Graph.numNodes() <= MaxBlocks) {
      CorpusFunction C;
      C.Suite = Full[I].Suite;
      C.Program = Full[I].Program;
      C.Fn = Full[I].Fn; // Copy; the static corpus stays intact.
      Out.push_back(std::move(C));
    }
  }
  return Out;
}

} // namespace

TEST(Pipeline, CorpusFunctionsAreValidAndAnalyzable) {
  for (const auto &C : corpusSlice(25, 400)) {
    std::string Why;
    ASSERT_TRUE(validateCfg(C.Fn.Graph, &Why)) << C.Fn.Name << ": " << Why;
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    PstStats S = computePstStats(V, T);
    EXPECT_GE(S.NumRegions, 1u) << C.Fn.Name;
  }
}

TEST(Pipeline, PhiPlacementsAgreeOnCorpus) {
  for (const auto &C : corpusSlice(20, 250)) {
    FrozenCfg FV(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(FV);
    PhiPlacement A = placePhisClassic(C.Fn, FV);
    PhiPlacement B = placePhisPst(C.Fn, FV, T);
    for (VarId V = 0; V < C.Fn.numVars(); ++V)
      ASSERT_EQ(A.PhiBlocks[V], B.PhiBlocks[V])
          << C.Fn.Name << " var " << C.Fn.VarNames[V];
  }
}

TEST(Pipeline, SsaVerifiesOnCorpus) {
  for (const auto &C : corpusSlice(15, 250)) {
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    SsaForm S = buildSsa(C.Fn, placePhisPst(C.Fn, V, T));
    std::string Why;
    ASSERT_TRUE(verifySsa(C.Fn, S, &Why)) << C.Fn.Name << ": " << Why;
  }
}

TEST(Pipeline, ControlRegionVariantsAgreeOnCorpus) {
  for (const auto &C : corpusSlice(20, 300)) {
    FrozenCfg V(C.Fn.Graph);
    auto L = canonicalizePartition(
        computeControlRegionsLinear(V).NodeClass);
    auto LI = canonicalizePartition(
        computeControlRegionsLinearImplicit(V).NodeClass);
    ASSERT_EQ(L, LI) << C.Fn.Name;
  }
}

TEST(Pipeline, DataflowSolversAgreeOnCorpus) {
  for (const auto &C : corpusSlice(12, 200)) {
    const Cfg &G = C.Fn.Graph;
    FrozenCfg V(G);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    BitVectorProblem P = makeReachingDefs(C.Fn);
    DataflowSolution It = solveIterative(V, P);
    DataflowSolution El = solveElimination(V, T, P);
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_EQ(It.In[N], El.In[N]) << C.Fn.Name;
      ASSERT_EQ(It.Out[N], El.Out[N]) << C.Fn.Name;
    }
    DomTree DT = DomTree::buildIterative(V);
    DominanceFrontiers DF(V, DT);
    DataflowSolution Sg = solveOnSeg(V, DF, P);
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_EQ(It.In[N], Sg.In[N]) << C.Fn.Name;
      ASSERT_EQ(It.Out[N], Sg.Out[N]) << C.Fn.Name;
    }
  }
}

TEST(Pipeline, QpgProjectionAgreesOnCorpus) {
  for (const auto &C : corpusSlice(12, 200)) {
    const Cfg &G = C.Fn.Graph;
    FrozenCfg V(G);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    auto Keys = expressionKeys(C.Fn);
    if (Keys.empty())
      continue;
    BitVectorProblem P = makeSingleExprAvailability(C.Fn, Keys.front());
    EdgeSolution Sparse = solveOnQpg(V, T, P);
    EdgeSolution Dense = edgeView(V, solveIterative(V, P));
    for (EdgeId E = 0; E < G.numEdges(); ++E)
      ASSERT_EQ(Sparse.EdgeValue[E], Dense.EdgeValue[E])
          << C.Fn.Name << " edge " << E;
  }
}

TEST(Pipeline, PstDominatorsAgreeOnCorpus) {
  for (const auto &C : corpusSlice(20, 300)) {
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    DomTree Ref = DomTree::buildIterative(V);
    DomTree Dc = buildDominatorsViaPst(V, T);
    for (NodeId N = 0; N < C.Fn.Graph.numNodes(); ++N)
      ASSERT_EQ(Dc.idom(N), Ref.idom(N)) << C.Fn.Name << " node " << N;
  }
}

TEST(Pipeline, StatementLevelExpansionStaysConsistent) {
  for (const auto &C : corpusSlice(8, 120)) {
    LoweredFunction S = expandToStatementLevel(C.Fn);
    std::string Why;
    ASSERT_TRUE(validateCfg(S.Graph, &Why)) << C.Fn.Name << ": " << Why;
    // Block-level and statement-level reaching-def solutions agree at
    // block boundaries: the IN of a block equals the IN of its first
    // statement node.
    std::vector<NodeId> FirstOf;
    LoweredFunction S2 = expandToStatementLevel(C.Fn, &FirstOf);
    BitVectorProblem PB = makeReachingDefs(C.Fn);
    BitVectorProblem PS = makeReachingDefs(S2);
    DataflowSolution A = solveIterative(FrozenCfg(C.Fn.Graph), PB);
    DataflowSolution B = solveIterative(FrozenCfg(S2.Graph), PS);
    // Bit universes match: defs are enumerated in the same order.
    ASSERT_EQ(PB.NumBits, PS.NumBits);
    for (NodeId N = 0; N < C.Fn.Graph.numNodes(); ++N)
      ASSERT_EQ(A.In[N], B.In[FirstOf[N]]) << C.Fn.Name << " block " << N;
  }
}
