//===- pst/core/RegionAnalysis.h - Collapse & classify regions --*- C++ -*-===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region bodies with nested regions collapsed to single quotient nodes,
/// and the pattern classification behind the paper's Figure 7 ("a simple
/// pattern-matching pass" identifying each region as a basic block, a case
/// construct, a loop, a dag, or a cyclic unstructured region).
///
/// The collapsed body is the workhorse for every divide-and-conquer
/// application in Section 6: per-region SSA placement treats a collapsed
/// child as one statement, and the elimination dataflow solver summarizes a
/// child region by one transfer function. The body is itself a valid
/// two-terminal CFG: the quotient nodes plus a synthetic \c Start that
/// feeds the region's entry-side node and a synthetic \c End fed by its
/// exit-side node, standing in for the region's entry and exit edges. So
/// every consumer runs the library's ordinary \c CfgView kernels on it
/// (DFS, dominators, frontiers, reducibility, the dataflow fixpoint) with
/// no adjacency of its own.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_REGIONANALYSIS_H
#define PST_CORE_REGIONANALYSIS_H

#include "pst/core/ProgramStructureTree.h"

#include <string>
#include <vector>

namespace pst {

/// A region body where each immediately nested region is one node, held
/// as a two-terminal CFG.
///
/// Layout: quotient nodes are \c 0..numNodes()-1 (the region's immediate
/// CFG nodes in \c immediateNodes order, then its children in \c children
/// order); \c start() feeds \c EntryQ and \c ExitQ feeds \c end(). Body
/// edges (parallel edges and self loops preserved) take ids
/// \c 0..numBodyEdges()-1; the two boundary edges Start -> EntryQ and
/// ExitQ -> End take the last two ids, so every quotient node's successor
/// order is that of its body edges, and the boundary edge trails it.
///
/// Move-only: the view points into storage the body owns.
struct CollapsedBody {
  /// One quotient node: either an immediate CFG node of the region or a
  /// collapsed child region.
  struct QNode {
    bool IsRegion = false;
    NodeId Node = InvalidNode;     // Valid when !IsRegion.
    RegionId Region = InvalidRegion; // Valid when IsRegion.
  };

  std::vector<QNode> Nodes;
  /// The body graph (entry \c start(), exit \c end()).
  Cfg Graph;
  /// \c Graph, frozen: what the kernels read (through \c view()).
  FrozenCfg Frozen;
  /// Body-graph edge id -> the CFG edge it stands for. The boundary edges
  /// map to the region's entry and exit edge (InvalidEdge for the root,
  /// which has neither).
  std::vector<EdgeId> CfgEdge;
  /// Quotient index of the node the region's entry edge targets, and of
  /// the node its exit edge leaves. For the root region these are the CFG
  /// entry/exit.
  uint32_t EntryQ = 0, ExitQ = 0;

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  NodeId start() const { return numNodes(); }
  NodeId end() const { return numNodes() + 1; }
  /// Edges between quotient nodes (every edge but the two boundary ones).
  uint32_t numBodyEdges() const { return Graph.numEdges() - 2; }
  const CfgView &view() const { return Frozen; }
};

/// Builds the collapsed body of \p R. O(size of the body).
CollapsedBody collapseRegion(const CfgView &V, const ProgramStructureTree &T,
                             RegionId R);

/// Region kinds for Figure 7. Kinds match the paper's buckets; IfThen and
/// IfThenElse are reported separately and can be merged into the paper's
/// implicit conditional bucket by callers.
enum class RegionKind {
  Block,              ///< Single quotient node, no edges.
  IfThen,             ///< cond -> then -> join, cond -> join.
  IfThenElse,         ///< cond -> {then, else} -> join.
  Case,               ///< cond with >= 3 arms converging on one join.
  Loop,               ///< Cyclic but reducible body.
  Dag,                ///< Acyclic, none of the shapes above.
  CyclicUnstructured, ///< Cyclic and irreducible.
};

/// Human-readable kind name ("block", "if-then", ...).
const char *regionKindName(RegionKind K);

/// Classifies a collapsed region body.
RegionKind classifyRegion(const CollapsedBody &B);

/// Figure 7's weight: the number of nested maximal SESE regions, with
/// blocks weighing one ("an if-then-else has a weight of two").
uint32_t regionWeight(const ProgramStructureTree &T, RegionId R);

/// Renders the PST as an indented outline (for examples and debugging),
/// naming nodes by their \p G labels.
std::string formatPst(const Cfg &G, const ProgramStructureTree &T);

} // namespace pst

#endif // PST_CORE_REGIONANALYSIS_H
