//===- pst/dataflow/Seg.h - Sparse evaluation graphs ------------*- C++ -*-===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse evaluation graphs after Choi, Cytron & Ferrante [CCF91] — the
/// related work the paper compares its quick propagation graphs against:
/// "these graphs also bypass uninteresting regions of the control flow
/// graph and in general will be smaller than our quick propagation graphs.
/// However, they are more costly to build" (they need dominance frontiers,
/// where the QPG only needs the PST). bench/fig_qpg_sparsity reports both
/// sizes so the trade-off is visible.
///
/// SEG nodes are the entry, every node with a non-identity transfer
/// function, and the iterated dominance frontier of those (the "meet"
/// nodes where distinct sparse values join). Every other node is governed
/// by the unique SEG node whose value reaches it.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DATAFLOW_SEG_H
#define PST_DATAFLOW_SEG_H

#include "pst/dataflow/Dataflow.h"
#include "pst/dom/Dominators.h"

#include <vector>

namespace pst {

/// A sparse evaluation graph over one CFG + problem instance.
struct Seg {
  /// SEG nodes as CFG node ids; Nodes[0] is the CFG entry.
  std::vector<NodeId> Nodes;
  /// CFG node -> index into Nodes, or UINT32_MAX.
  std::vector<uint32_t> NodeIndex;
  /// Edges between SEG nodes (indices into Nodes), deduplicated.
  struct Edge {
    uint32_t Src = 0, Dst = 0;
  };
  std::vector<Edge> Edges;
  std::vector<std::vector<uint32_t>> Preds; // Incoming edge ids per node.
  /// For every CFG node, the SEG node whose OUT value is its IN value
  /// (for SEG members: themselves; their IN comes from SEG edges).
  std::vector<uint32_t> GovernedBy;

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  uint32_t numEdges() const { return static_cast<uint32_t>(Edges.size()); }
};

/// Builds the SEG for \p P over \p V. Requires dominance frontiers (that
/// is the construction cost the paper contrasts with the QPG's).
Seg buildSeg(const CfgView &V, const DominanceFrontiers &DF,
             const BitVectorProblem &P);

/// Solves \p P on its SEG and projects back to a full per-node solution.
/// Identical to \c solveIterative on every node (tested).
DataflowSolution solveOnSeg(const CfgView &V, const DominanceFrontiers &DF,
                            const BitVectorProblem &P, Seg *OutSeg = nullptr);

} // namespace pst

#endif // PST_DATAFLOW_SEG_H
