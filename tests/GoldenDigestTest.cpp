//===- GoldenDigestTest.cpp - Pinned per-stage pipeline digests -----------===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
// Every analysis stage's exact output over two fixed corpora, folded into
// one FNV-1a-64 digest per stage and diffed against tests/golden/. The
// digests pin results bit for bit — the same class ids, the same region
// numbering, the same idom arrays, the same fixpoints — not merely
// equivalent results, so any refactor of a kernel that changes a visit
// order shows up here as a named stage, even when every oracle test still
// passes. One line is deliberately id-blind: `pst.structure` pins the PST
// by its edge pairs, so a change that only renumbers regions moves
// `pst.format` and leaves `pst.structure` as it was.
//
// Corpora: the seeded 254-procedure paper corpus, and a seeded set of
// goto-heavy generated procedures (irreducible flow, dissolved regions).
//
// Regenerate after an intentional output change with:
//   PST_UPDATE_GOLDEN_DIGESTS=1 ./tests/test_golden
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/core/StructureMetrics.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dataflow/Dataflow.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/dom/ControlDependenceCsr.h"
#include "pst/dom/Dominators.h"
#include "pst/dom/LoopInfo.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/CfgView.h"
#include "pst/graph/Intervals.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/workload/Corpus.h"
#include "pst/workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

using namespace pst;

namespace {

/// Streaming FNV-1a-64 over a canonical encoding: every value is folded in
/// as a little-endian 32-bit word and every sequence is length-prefixed, so
/// distinct results cannot collide by concatenation.
class Digest {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void add(std::span<const uint32_t> V) {
    add(V.size());
    for (uint32_t X : V)
      add(X);
  }
  void add(const std::string &S) {
    add(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  void add(const BitVector &B) {
    add(B.size());
    add(B.count());
    B.forEachSetBit([&](size_t I) { add(I); });
  }
  void add(const DataflowSolution &S) {
    add(S.In.size());
    for (size_t I = 0; I < S.In.size(); ++I) {
      add(S.In[I]);
      add(S.Out[I]);
    }
  }
  void add(const ControlRegionsResult &R) {
    add(R.NumClasses);
    add(R.NodeClass);
  }
  void add(const PstStats &S) {
    add(S.NumRegions);
    add(S.DepthHist.numBuckets());
    for (size_t D = 0; D < S.DepthHist.numBuckets(); ++D)
      add(S.DepthHist.count(D));
    add(S.MaxDepth);
    uint64_t Avg = std::bit_cast<uint64_t>(S.AvgDepth);
    add(Avg);
    add(Avg >> 32);
    add(S.MaxRegionSize);
    for (uint64_t W : S.WeightedKind)
      add(W);
    add(S.FullyStructured ? 1 : 0);
  }
  uint64_t value() const { return H; }

private:
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  uint64_t H = 0xcbf29ce484222325ull;
};

/// One procedure of a digest corpus.
struct Procedure {
  std::string Name;
  LoweredFunction Fn;
};

std::vector<Procedure> paperProcedures() {
  std::vector<Procedure> Out;
  for (CorpusFunction &C : generatePaperCorpus(/*Seed=*/1994))
    Out.push_back({C.Suite + "/" + C.Fn.Name, std::move(C.Fn)});
  return Out;
}

/// Goto-heavy generated procedures: every one uses gotos, so the set is
/// dense in irreducible loops and regions that dissolve into dags.
std::vector<Procedure> gotoHeavyProcedures() {
  std::vector<Procedure> Out;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    Rng R(Seed * 7919 + 20261016);
    ProgramGenOptions Opts;
    Opts.TargetStatements = 10 + static_cast<uint32_t>(R.nextBelow(120));
    Opts.GotoProb = 0.25;
    std::string Name = "goto" + std::to_string(Seed);
    Function F = generateFunction(R, Opts, Name);
    std::optional<LoweredFunction> L = lowerFunction(F);
    EXPECT_TRUE(L.has_value()) << Name;
    if (!L)
      continue;
    EXPECT_TRUE(validateCfg(L->Graph)) << Name;
    Out.push_back({Name, std::move(*L)});
  }
  return Out;
}

/// Folds \p T into \p Dg without reading a single region id: each region
/// is named by its (entry edge, exit edge) pair (the root by the invalid
/// pair), and regions are visited in pair order. Per region: its parent's
/// pair, its depth, its children's pairs in child order and its immediate
/// nodes; per edge, the pair of its innermost region. Two trees that differ
/// only in how their regions are numbered digest identically.
void addTreeStructure(Digest &Dg, const CfgView &V,
                      const ProgramStructureTree &T) {
  auto Pair = [&](RegionId R) {
    return std::pair(T.region(R).EntryEdge, T.region(R).ExitEdge);
  };
  auto AddPair = [&](RegionId R) {
    Dg.add(Pair(R).first);
    Dg.add(Pair(R).second);
  };
  std::vector<RegionId> ByPair(T.numRegions());
  for (RegionId R = 0; R < T.numRegions(); ++R)
    ByPair[R] = R;
  std::sort(ByPair.begin(), ByPair.end(),
            [&](RegionId A, RegionId B) { return Pair(A) < Pair(B); });
  Dg.add(T.numRegions());
  for (RegionId R : ByPair) {
    AddPair(R);
    const SeseRegion &Reg = T.region(R);
    if (Reg.Parent == InvalidRegion) {
      Dg.add(InvalidEdge);
      Dg.add(InvalidEdge);
    } else {
      AddPair(Reg.Parent);
    }
    Dg.add(Reg.Depth);
    Dg.add(T.children(R).size());
    for (RegionId C : T.children(R))
      AddPair(C);
    std::span<const NodeId> Imm = T.immediateNodes(R);
    Dg.add(std::vector<uint32_t>(Imm.begin(), Imm.end()));
  }
  for (EdgeId E = 0; E < V.numEdges(); ++E)
    AddPair(T.regionOfEdge(V, E));
}

/// Runs every stage over \p Procs and returns one digest per stage name.
std::map<std::string, uint64_t>
digestStages(const std::vector<Procedure> &Procs) {
  std::map<std::string, Digest> D;
  CfgViewScratch VS;
  CycleEquivScratch CES;
  PstBuildScratch PB;
  ControlRegionsScratch CRS;

  for (const Procedure &Proc : Procs) {
    const LoweredFunction &F = Proc.Fn;
    const Cfg &G = F.Graph;
    CfgView V = CfgView::build(G, VS);
    D["procedures"].add(Proc.Name);

    // Cycle equivalence: class id per edge (plus the return edge).
    CycleEquivResult CE = computeCycleEquivalence(V, /*AddReturnEdge=*/true,
                                                  CES);
    D["cycleequiv.classes"].add(CE.NumClasses);
    D["cycleequiv.classes"].add(CE.EdgeClass);
    // The partial-T(S) run that analyzeFunction and the control-region
    // kernel use: raw edge and node class ids, before any densifying.
    CycleEquivClasses PT = computeCycleEquivalencePartialTs(V, CES);
    D["cycleequiv.partial_ts"].add(PT.NumClasses);
    D["cycleequiv.partial_ts"].add(PT.EdgeClass);
    D["cycleequiv.partial_ts"].add(PT.NodeClass);

    // PST: the printed outline (shape, node assignment, region kinds),
    // the figure measurements and the divide-and-conquer dominator tree
    // built from it.
    ProgramStructureTree T = ProgramStructureTree::build(V, PB);
    D["pst.format"].add(formatPst(G, T));
    addTreeStructure(D["pst.structure"], V, T);
    D["pst.stats"].add(computePstStats(V, T));
    DomTree PstDom = buildDominatorsViaPst(V, T);

    // Control regions: the linear implicit-T(S) algorithm, the explicit-
    // T(S) ablation and both baselines.
    D["cdg.linear_implicit"].add(computeControlRegionsLinearImplicit(V, CRS));
    D["cdg.linear_explicit"].add(computeControlRegionsLinear(V));
    D["cdg.fow"].add(computeControlRegionsFOW(V));
    D["cdg.refinement"].add(computeControlRegionsRefinement(V));

    // Dominators, postdominators, Lengauer-Tarjan, frontiers.
    DomTree Dom = DomTree::buildIterative(V);
    DomTree PostDom = DomTree::buildPostDom(V);
    DomTree Lt = DomTree::buildLengauerTarjan(V);
    DominanceFrontiers DF(V, Dom);
    ControlDependenceCsr Cdep(V, PostDom);
    for (NodeId N = 0; N < V.numNodes(); ++N) {
      D["dom.iterative"].add(Dom.idom(N));
      D["dom.postdom"].add(PostDom.idom(N));
      D["dom.lengauer_tarjan"].add(Lt.idom(N));
      D["dom.via_pst"].add(PstDom.idom(N));
      std::span<const NodeId> Df = DF.frontier(N);
      D["dom.frontiers"].add(std::vector<uint32_t>(Df.begin(), Df.end()));
      std::span<const EdgeId> Ctl = Cdep.controllingEdges(N);
      D["dom.cdep_csr"].add(std::vector<uint32_t>(Ctl.begin(), Ctl.end()));
    }

    // Natural loops: ids, headers, backedges, members, nesting.
    LoopInfo LI(V, Dom);
    Digest &Loops = D["dom.loops"];
    Loops.add(LI.numLoops());
    for (LoopId L = 0; L < LI.numLoops(); ++L) {
      const LoopInfo::Loop &Lp = LI.loop(L);
      Loops.add(Lp.Header);
      Loops.add(Lp.Backedges);
      Loops.add(Lp.Nodes);
      Loops.add(Lp.Parent);
      Loops.add(Lp.Children);
      Loops.add(Lp.Depth);
    }
    for (NodeId N = 0; N < V.numNodes(); ++N)
      Loops.add(LI.loopOf(N));
    Loops.add(LI.irreducibleEdges());

    // Intervals and the T1/T2 reducibility verdict.
    IntervalPartition IP = computeIntervals(V);
    Digest &Iv = D["graph.intervals"];
    Iv.add(IP.IntervalOf);
    Iv.add(IP.Intervals.size());
    for (const IntervalPartition::Interval &I : IP.Intervals) {
      Iv.add(I.Header);
      Iv.add(I.Nodes);
    }
    D["graph.reducible"].add(isReducible(V) ? 1 : 0);
    D["graph.rpo"].add(reversePostOrder(V));

    // The four dataflow solvers, on a union-meet and an intersect-meet
    // problem; QPG on single-expression availability.
    const BitVectorProblem Problems[] = {makeReachingDefs(F),
                                         makeAvailableExpressions(F)};
    for (const BitVectorProblem &P : Problems) {
      D["dataflow.iterative"].add(solveIterative(V, P));
      D["dataflow.elimination"].add(solveElimination(V, T, P));
      D["dataflow.seg"].add(solveOnSeg(V, DF, P));
    }
    for (const std::string &Key : expressionKeys(F)) {
      EdgeSolution Q =
          solveOnQpg(V, T, makeSingleExprAvailability(F, Key));
      D["dataflow.qpg"].add(Q.EdgeValue.size());
      for (const BitVector &B : Q.EdgeValue)
        D["dataflow.qpg"].add(B);
    }

    // Both phi placements.
    for (const std::vector<NodeId> &Phis : placePhisClassic(F, V).PhiBlocks)
      D["ssa.phi_classic"].add(Phis);
    PhiPlacement Pst = placePhisPst(F, V, T);
    for (const std::vector<NodeId> &Phis : Pst.PhiBlocks)
      D["ssa.phi_pst"].add(Phis);
    D["ssa.phi_pst"].add(Pst.RegionsExamined);
  }

  std::map<std::string, uint64_t> Out;
  for (const auto &[Stage, Dg] : D)
    Out[Stage] = Dg.value();
  return Out;
}

std::string render(const std::map<std::string, uint64_t> &Digests) {
  std::ostringstream OS;
  for (const auto &[Stage, Value] : Digests) {
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Value);
    OS << Stage << ' ' << Hex << '\n';
  }
  return OS.str();
}

/// Diffs \p Actual against tests/golden/<FileName>; with
/// PST_UPDATE_GOLDEN_DIGESTS set, rewrites the golden instead (and skips).
void checkGolden(const std::string &Actual, const char *FileName) {
  const std::string Path = std::string(PST_GOLDEN_DIR) + "/" + FileName;
  if (const char *Update = std::getenv("PST_UPDATE_GOLDEN_DIGESTS");
      Update && *Update) {
    std::ofstream Out(Path);
    Out << Actual;
    ASSERT_TRUE(Out.good()) << "cannot write golden: " << Path;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden: " << Path;
  std::stringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str())
      << "a pipeline stage's output drifted from " << Path
      << "; if the change is intentional, regenerate with "
         "PST_UPDATE_GOLDEN_DIGESTS=1";
}

TEST(GoldenDigest, PaperCorpus) {
  checkGolden(render(digestStages(paperProcedures())), "digests_paper.txt");
}

TEST(GoldenDigest, GotoHeavyCorpus) {
  std::vector<Procedure> Procs = gotoHeavyProcedures();
  ASSERT_EQ(Procs.size(), 64u);
  checkGolden(render(digestStages(Procs)), "digests_goto.txt");
}

} // namespace
