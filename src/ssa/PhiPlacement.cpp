//===- PhiPlacement.cpp - Phi placement (classic & PST) -----------------------===//
//
// Part of the PST library (see PhiPlacement.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/ssa/PhiPlacement.h"

#include "pst/core/RegionAnalysis.h"
#include "pst/dom/Dominators.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <optional>

using namespace pst;

PhiPlacement pst::placePhisClassic(const LoweredFunction &F,
                                   const CfgView &G) {
  PST_SPAN("ssa.phi_classic");
  PST_COUNTER("ssa.classic_placements", 1);
  DomTree DT = DomTree::buildIterative(G);
  DominanceFrontiers DF(G, DT);

  PhiPlacement P;
  P.PhiBlocks.resize(F.numVars());
  P.RegionsExamined.resize(F.numVars());
  // The classic algorithm has no region notion; both Figure-10 counters
  // are filled in by the caller when comparing against the PST variant.
  for (VarId V = 0; V < F.numVars(); ++V) {
    // Convention: every variable has an implicit definition at entry (the
    // "undefined" initial value), as in Cytron et al.
    std::vector<NodeId> Defs = F.defBlocks(V);
    Defs.push_back(G.entry());
    std::sort(Defs.begin(), Defs.end());
    Defs.erase(std::unique(Defs.begin(), Defs.end()), Defs.end());
    P.PhiBlocks[V] = DF.iterated(Defs);
    P.RegionsExamined[V] = 0;
  }
  return P;
}

namespace {

/// Per-region quotient machinery cached across variables: the dominator
/// tree and dominance frontiers of the collapsed body (a CFG whose Start
/// stands for the region entry).
struct RegionSolver {
  DomTree DT;
  DominanceFrontiers DF;

  explicit RegionSolver(const CfgView &Body)
      : DT(DomTree::buildIterative(Body)), DF(Body, DT) {}
};

} // namespace

PhiPlacement pst::placePhisPst(const LoweredFunction &F, const CfgView &G,
                               const ProgramStructureTree &T) {
  PST_SPAN("ssa.phi_pst");
  PST_COUNTER("ssa.pst_placements", 1);
  uint32_t NumRegions = T.numRegions();

  PhiPlacement P;
  P.PhiBlocks.resize(F.numVars());
  P.RegionsExamined.resize(F.numVars());
  P.RegionsTotal = NumRegions;

  // Every region's body, and lazily built per-region solvers shared
  // across variables.
  BodyForest Bodies(G, T);
  std::vector<std::optional<RegionSolver>> Solvers(NumRegions);

  // Epoch-stamped mark array, reused per variable.
  std::vector<uint32_t> MarkEpoch(NumRegions, 0);
  std::vector<uint32_t> DefEpoch(G.numNodes(), 0);
  uint32_t Epoch = 0;

  for (VarId V = 0; V < F.numVars(); ++V) {
    ++Epoch;
    std::vector<NodeId> Defs = F.defBlocks(V);
    for (NodeId D : Defs)
      DefEpoch[D] = Epoch;

    // Step 1: mark every region whose subtree contains a definition by
    // walking ancestors from each def block's innermost region.
    std::vector<RegionId> Marked;
    for (NodeId D : Defs) {
      for (RegionId R = T.regionOfNode(D);
           R != InvalidRegion && MarkEpoch[R] != Epoch;
           R = T.region(R).Parent) {
        MarkEpoch[R] = Epoch;
        Marked.push_back(R);
      }
    }
    // Figure 10's measure: regions the variable's own assignments force
    // us to examine.
    P.RegionsExamined[V] = static_cast<uint32_t>(Marked.size());
    PST_COUNTER("ssa.regions_examined", Marked.size());

    // The implicit entry definition (same convention as the classic side)
    // additionally marks the root.
    DefEpoch[G.entry()] = Epoch;
    if (MarkEpoch[T.root()] != Epoch) {
      MarkEpoch[T.root()] = Epoch;
      Marked.push_back(T.root());
    }

    // Steps 2+3: solve each marked region on its collapsed body.
    std::vector<NodeId> Phis;
    for (RegionId R : Marked) {
      CollapsedBody B = Bodies.body(R);
      if (!Solvers[R])
        Solvers[R].emplace(B.Graph);
      // Definition sites in the quotient: Start (the region entry acts as
      // a definition), immediate def blocks, and marked children (a
      // collapsed child containing a def is one definition).
      std::vector<NodeId> QDefs{B.start()};
      for (uint32_t I = 0; I < B.numNodes(); ++I)
        if (B.isRegion(I) ? MarkEpoch[B.region(I)] == Epoch
                          : DefEpoch[B.node(I)] == Epoch)
          QDefs.push_back(I);
      for (NodeId M : Solvers[R]->DF.iterated(QDefs)) {
        // Phis land on immediate CFG nodes only (a collapsed child has a
        // single external predecessor, its entry edge).
        if (M < B.numNodes() && !B.isRegion(M))
          Phis.push_back(B.node(M));
      }
    }
    std::sort(Phis.begin(), Phis.end());
    Phis.erase(std::unique(Phis.begin(), Phis.end()), Phis.end());
    P.PhiBlocks[V] = std::move(Phis);
  }
  return P;
}
