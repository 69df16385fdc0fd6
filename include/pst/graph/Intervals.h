//===- pst/graph/Intervals.h - Allen-Cocke intervals ------------*- C++ -*-===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allen-Cocke interval analysis [AC76] — the classic hierarchical
/// decomposition the paper's Section 6.2 positions the PST against ("The
/// classic approach to elimination algorithms uses an interval
/// decomposition"), and the tool Theorem 10 makes relevant: every SESE
/// region of a reducible graph is reducible, so regions that are not
/// simple constructs can still be solved with interval methods.
///
/// An interval I(h) is the maximal single-entry subgraph with header h:
/// grow by adding nodes all of whose predecessors are already inside.
/// Collapsing each interval yields the derived graph; iterating the
/// derivation reaches a single node exactly for reducible graphs.
///
//===----------------------------------------------------------------------===//

#ifndef PST_GRAPH_INTERVALS_H
#define PST_GRAPH_INTERVALS_H

#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <vector>

namespace pst {

/// One interval partition of a CFG.
struct IntervalPartition {
  struct Interval {
    NodeId Header = InvalidNode;
    /// Member nodes in the order the construction added them (header
    /// first) — also a valid processing order for interval-based solvers.
    std::vector<NodeId> Nodes;
  };
  std::vector<Interval> Intervals;
  /// Node -> index into Intervals.
  std::vector<uint32_t> IntervalOf;
};

/// Computes the interval partition with headers discovered from the entry.
IntervalPartition computeIntervals(const CfgView &V);

/// Collapses each interval to one node (parallel edges deduplicated).
/// Entry/exit map to their intervals.
Cfg derivedGraph(const Cfg &G, const IntervalPartition &P);

/// Iterates derivation to the limit graph. Returns the number of
/// derivation steps taken in \p *Steps if non-null.
Cfg limitGraph(const Cfg &G, uint32_t *Steps = nullptr);

/// Reducibility via interval analysis: the limit graph has one node.
/// Agrees with the T1/T2 test \c isReducible (tested).
bool isReducibleByIntervals(const Cfg &G);

} // namespace pst

#endif // PST_GRAPH_INTERVALS_H
