//===- pst/cdg/ControlRegions.h - Control regions in O(E) -------*- C++ -*-===//
//
// Part of the PST library (see ControlDependence.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control regions: the partition of CFG nodes by equal control dependence
/// sets (Section 5). Three algorithms:
///
///  * \c computeControlRegionsLinear - the paper's O(E) contribution.
///    Theorem 7 reduces control-dependence equivalence to *node* cycle
///    equivalence in S = G + (end -> start); Theorem 8 reduces that to
///    *edge* cycle equivalence of the representative edges in the
///    node-expanded graph T(S) (Definition 9), solved by the Figure-4
///    algorithm. \c computeControlRegionsLinearImplicit computes the same
///    partition from one run over a partial T(S), which also yields the
///    PST's edge classes; the batch pipeline uses that run for both.
///  * \c computeControlRegionsFOW - the FOW87-style baseline: materialize
///    each node's control dependence set and group equal sets (hashing).
///  * \c computeControlRegionsRefinement - the CFS90-style baseline: start
///    from one class and refine by the dependent set of every branch edge
///    (O(EN) worst case).
///
/// Reproduction note (an erratum in Theorem 7 as literally stated): the
/// cycle-equivalence partition is *strictly finer* than Definition-8
/// control-dependence-set equality. Counterexample: in
/// `entry -> h; h -> b; b -> h; h -> a; a -> exit` (a plain while loop),
/// the header h and its unconditional body b both have CD set
/// {h -> b}, yet the cycle entry -> h -> a -> exit -> entry (through the
/// return edge) contains h but not b, so they are not cycle equivalent.
/// Cycle equivalence is the "strong region" notion (nodes that execute the
/// same number of times in every run — h runs once more than b), which is
/// what instruction scheduling needs; CD-set equality is CFS90's "weak"
/// notion. The tests assert the refinement relationship and that the two
/// notions agree everywhere except such loop-carried pairs.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CDG_CONTROLREGIONS_H
#define PST_CDG_CONTROLREGIONS_H

#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/graph/Cfg.h"

#include <vector>

namespace pst {

/// A partition of the CFG nodes into control regions.
struct ControlRegionsResult {
  /// Class id per node; nodes with equal ids have identical control
  /// dependence sets.
  std::vector<uint32_t> NodeClass;
  uint32_t NumClasses = 0;
};

/// Definition 9: the node-expanding transformation T. Node n becomes
/// n_i (id 2n) and n_o (id 2n+1) joined by the representative edge
/// n_i -> n_o, which receives EdgeId n; every edge (u, v) of \p G becomes
/// u_o -> v_i (appended after the representative edges). Entry/exit map to
/// entry_i / exit_o. Labels are derived from \p G's ("n_i", "n_o").
Cfg nodeExpand(const Cfg &G);

/// The paper's linear-time algorithm (Theorems 7 + 8), in its textbook
/// form: T(S) is materialized as a Cfg, frozen, and run through the
/// Figure-4 solver. O(N + E). The paper-literal reference the fused
/// pipeline is tested against; the ablation bench/time_control_regions
/// compares it with \c computeControlRegionsLinearImplicit.
ControlRegionsResult computeControlRegionsLinear(const CfgView &V);

/// Working memory for \c computeControlRegionsLinearImplicit: the Figure-4
/// solver scratch its one run leaves the classes in (it also holds the
/// densification map). Same reuse contract as \c CycleEquivScratch.
using ControlRegionsScratch = CycleEquivScratch;

/// Same partition as \c computeControlRegionsLinear, from one solver run
/// over the *partial* T(S) (\c computeCycleEquivalencePartialTs): only
/// nodes with two or more in-edges and out-edges in S are expanded, and
/// nothing is materialized. This is the paper's implementation note ("we
/// avoid explicitly expanding nodes and undirecting edges... the savings
/// in space and time ... are significant") taken one step further. With
/// the scratch warm only the returned partition allocates.
ControlRegionsResult computeControlRegionsLinearImplicit(
    const CfgView &V, ControlRegionsScratch &Scratch);

/// The control-region partition from a partial-T(S) run's node classes:
/// \p C.NodeClass renumbered densely in first-occurrence order (the
/// partition's canonical form). \p C must come from
/// \c computeCycleEquivalencePartialTs on \p Scratch, whose class map it
/// reuses; only the result allocates. The batch pipeline calls this after
/// building the PST from the same run's edge classes.
ControlRegionsResult controlRegionsFromClasses(const CycleEquivClasses &C,
                                               CycleEquivScratch &Scratch);

/// As above with a local scratch (for one-shot callers).
ControlRegionsResult computeControlRegionsLinearImplicit(const CfgView &V);

/// FOW87-style baseline: group nodes by materialized control dependence
/// sets. O(N * E) time and space in the worst case.
ControlRegionsResult computeControlRegionsFOW(const CfgView &V);

/// CFS90-style baseline: iterative partition refinement, one pass per
/// control dependence "direction". O(N * E) worst case, O(N + E) space.
ControlRegionsResult computeControlRegionsRefinement(const CfgView &V);

/// Brute-force node cycle equivalence in S = G + (end -> start), straight
/// from Definition 4 (cycles through one node avoiding the other). Used by
/// tests to validate Theorem 7 itself. O(N^2 (N + E)).
ControlRegionsResult computeNodeCycleEquivalenceBrute(const Cfg &G);

} // namespace pst

#endif // PST_CDG_CONTROLREGIONS_H
