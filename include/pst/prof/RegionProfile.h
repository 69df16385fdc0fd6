//===- pst/prof/RegionProfile.h - Dynamic region cost profile ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the region story: fold interpreter execution
/// profiles (per-block entry counts and per-edge traversal counts from
/// \c runLowered) onto the PST, so every canonical SESE region carries its
/// observed dynamic cost.
///
/// The attribution rules are the natural ones the SESE discipline makes
/// exact:
///
///  * A region is *entered* once per traversal of its entry edge, and on a
///    complete run entered exactly as often as it is *exited* (the entry
///    and exit edge are cycle equivalent in G + (end -> start), and a
///    finished trace plus the return edge is a closed walk).
///  * A region's *self cost* is the dynamic instruction count of the blocks
///    whose innermost region it is: sum over immediate nodes of
///    entries(block) * |instructions(block)| — exactly the interpreter's
///    step counter restricted to those blocks.
///  * Its *inclusive cost* adds the inclusive cost of every child region;
///    the root's inclusive cost equals the workload's total step count.
///  * A cyclic region's *iterations* count entry-edge traversals plus
///    traversals of the back edges of its collapsed body (for a natural
///    while loop: header executions, i.e. trip count + 1 per entry).
///
/// Profiles aggregate any number of runs (a workload of input vectors);
/// everything is integer arithmetic over the traversal counts, so a
/// profile is bit-deterministic in the workload.
///
//===----------------------------------------------------------------------===//

#ifndef PST_PROF_REGIONPROFILE_H
#define PST_PROF_REGIONPROFILE_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/lang/Interp.h"
#include "pst/obs/Telemetry.h"

#include <vector>

namespace pst {

/// Aggregated dynamic behavior of one PST region across a workload.
struct RegionDynamics {
  /// Traversals of the region's entry edge (the root region: number of
  /// finished runs).
  uint64_t Entries = 0;
  /// Traversals of the exit edge. Equals \c Entries on complete runs — the
  /// SESE soundness invariant the tests pin.
  uint64_t Exits = 0;
  /// Dynamic instructions executed in the region's immediate blocks.
  uint64_t SelfCost = 0;
  /// SelfCost plus the inclusive cost of every child region.
  uint64_t InclusiveCost = 0;
  /// Cyclic regions: entries + back-edge traversals of the collapsed body
  /// (header executions for a natural while loop). 0 for acyclic regions.
  uint64_t Iterations = 0;
  /// True when the collapsed body is cyclic (kind loop or cyclic).
  bool Cyclic = false;
  /// Figure-7 shape of the collapsed body (static, cached here for
  /// reporting).
  RegionKind Kind = RegionKind::Block;
  /// Estimated critical path per entry, in dynamic instructions: the
  /// longest path through the collapsed body's acyclic skeleton, each
  /// quotient node weighted by its observed execution frequency, child
  /// regions priced at their mean inclusive cost per entry (serial —
  /// a child's own parallelism is credited to the child, Kremlin-style
  /// *self*-parallelism). For cyclic regions the depth is normalized per
  /// iteration instead of per entry: iterations are the parallelism axis.
  double SpanPerEntry = 0;
  /// Per-run iteration totals of cyclic regions (the loop trip-count
  /// statistics; one sample per run that entered the region).
  ValueStats RunIterations;

  /// Mean inclusive work per entry.
  double workPerEntry() const {
    return Entries ? static_cast<double>(InclusiveCost) /
                         static_cast<double>(Entries)
                   : 0.0;
  }

  /// Kremlin-style self-parallelism: work per entry over span per entry,
  /// clamped to >= 1. 1 for never-entered regions.
  double selfParallelism() const {
    if (!Entries || SpanPerEntry <= 0)
      return 1.0;
    double Sp = workPerEntry() / SpanPerEntry;
    return Sp < 1.0 ? 1.0 : Sp;
  }

  /// Mean iterations per entry (cyclic regions; 0 otherwise).
  double meanIterations() const {
    return Entries && Cyclic
               ? static_cast<double>(Iterations) / static_cast<double>(Entries)
               : 0.0;
  }
};

/// A dynamic cost profile of one lowered function over a workload of
/// interpreter runs, attributed to the canonical SESE regions of its PST.
///
/// Usage: construct from the function and its PST (both must outlive the
/// profile), feed runs via \c addRun / \c runAndAdd, then \c finalize()
/// once; the per-region dynamics are valid from then on.
class RegionProfile {
public:
  /// \p T must be the PST of \p F.Graph.
  RegionProfile(const LoweredFunction &F, const ProgramStructureTree &T);

  /// Folds one *finished* run into the aggregate. The run must carry edge
  /// counts (\c runLowered with CountEdges = true). Returns false — and
  /// accumulates nothing — for unfinished or edge-count-free runs.
  bool addRun(const CfgExecResult &Run);

  /// Convenience: executes the function on \p Args (edge counting on) and
  /// folds the run in if it finished. Returns the run either way.
  CfgExecResult runAndAdd(const std::vector<int64_t> &Args,
                          uint64_t MaxSteps = 1 << 20);

  /// Computes the per-region dynamics from the aggregated counts. Call
  /// once after the last run; accessors below require it.
  void finalize();

  const LoweredFunction &function() const { return *F; }
  const ProgramStructureTree &pst() const { return *T; }

  /// Number of finished runs folded in.
  uint64_t numRuns() const { return NumRuns; }
  /// Total dynamic instructions across all folded runs (== the root
  /// region's inclusive cost).
  uint64_t totalWork() const { return TotalSteps; }

  /// Aggregated per-block entry counts / per-edge traversal counts.
  const std::vector<uint64_t> &blockTotals() const { return BlockTotal; }
  const std::vector<uint64_t> &edgeTotals() const { return EdgeTotal; }

  bool finalized() const { return Finalized; }
  /// Dynamics of region \p R (requires \c finalize()).
  const RegionDynamics &dynamics(RegionId R) const;
  uint32_t numRegions() const { return T->numRegions(); }

private:
  /// Static shape of one region's collapsed body, computed once up front:
  /// its back edges (whose traversal counts define the iteration axis) and
  /// a topological order of the acyclic rest.
  struct RegionShape {
    RegionKind Kind = RegionKind::Block;
    bool Cyclic = false;
    /// Per body-graph edge: a back edge of the DFS from Start.
    std::vector<bool> IsBack;
    /// CFG edge ids of the back edges.
    std::vector<EdgeId> BackCfgEdges;
    /// Reverse postorder of that DFS: a topological order of the body
    /// graph without its back edges.
    std::vector<NodeId> Topo;
  };

  void computeShapes();

  const LoweredFunction *F;
  const ProgramStructureTree *T;
  /// BlockCost[n] = |instructions of block n| (the unit cost model: one
  /// interpreter step per instruction).
  std::vector<uint64_t> BlockCost;
  /// Every region's collapsed body.
  BodyForest Bodies;
  std::vector<RegionShape> Shapes;

  uint64_t NumRuns = 0;
  uint64_t TotalSteps = 0;
  std::vector<uint64_t> BlockTotal;
  std::vector<uint64_t> EdgeTotal;

  bool Finalized = false;
  std::vector<RegionDynamics> Dyn;
};

} // namespace pst

#endif // PST_PROF_REGIONPROFILE_H
