//===- pst/dataflow/Qpg.h - Quick propagation graphs ------------*- C++ -*-===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's quick propagation graph (Section 6.2): a shrunken copy of
/// the CFG whose edges bypass maximal SESE regions with only identity
/// transfer functions. Inside such a *transparent* region every value
/// equals the value on its entry edge, so the region contributes nothing
/// to the fixed point and is skipped entirely; the solution is projected
/// back onto bypassed edges afterwards.
///
/// Each QPG edge is a pair (e1, e2) of CFG edges where e1 == e2 or
/// (e1, e2) encloses a SESE region; the QPG edge connects source(e1) to
/// target(e2). The paper reports QPGs averaging under 10% of the
/// (statement-level) CFG for single-instance problems, which
/// bench/fig_qpg_sparsity reproduces at block level.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DATAFLOW_QPG_H
#define PST_DATAFLOW_QPG_H

#include "pst/dataflow/Dataflow.h"

#include <vector>

namespace pst {

/// A quick propagation graph over one CFG + problem instance.
struct Qpg {
  /// Kept CFG nodes, in discovery order; Nodes[0] is the CFG entry.
  std::vector<NodeId> Nodes;
  /// CFG node -> index into Nodes, or UINT32_MAX if bypassed.
  std::vector<uint32_t> NodeIndex;

  /// One QPG edge: the CFG edge pair it abbreviates.
  struct Edge {
    uint32_t Src = 0, Dst = 0; ///< Indices into Nodes.
    EdgeId First = InvalidEdge, Last = InvalidEdge;
  };
  std::vector<Edge> Edges;
  /// Successor/predecessor edge indices per kept node.
  std::vector<std::vector<uint32_t>> Succ, Pred;

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  uint32_t numEdges() const { return static_cast<uint32_t>(Edges.size()); }
};

/// Builds the QPG for \p P over \p V, bypassing maximal regions whose
/// every node has an identity transfer function.
Qpg buildQpg(const CfgView &V, const ProgramStructureTree &T,
             const BitVectorProblem &P);

/// A dataflow solution expressed per CFG edge (the natural granularity of
/// QPG projection: the value "flowing along" each edge).
struct EdgeSolution {
  std::vector<BitVector> EdgeValue;
};

/// Solves \p P on the QPG and projects the solution back to every CFG
/// edge. Identical to iterative OUT[source(e)] for every edge e (tested).
EdgeSolution solveOnQpg(const CfgView &V, const ProgramStructureTree &T,
                        const BitVectorProblem &P, Qpg *OutQpg = nullptr);

/// The per-edge view of a whole-CFG solution (for comparisons).
EdgeSolution edgeView(const CfgView &V, const DataflowSolution &S);

} // namespace pst

#endif // PST_DATAFLOW_QPG_H
