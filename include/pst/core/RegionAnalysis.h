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
/// no adjacency of its own. A \c BodyForest builds every body of a tree in
/// one linear pass and hands each out as a \c CollapsedBody view.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_REGIONANALYSIS_H
#define PST_CORE_REGIONANALYSIS_H

#include "pst/core/ProgramStructureTree.h"

#include <span>
#include <string>
#include <vector>

namespace pst {

/// A region body where each immediately nested region is one node, viewed
/// as a two-terminal CFG.
///
/// Layout: quotient nodes are \c 0..numNodes()-1 (the region's immediate
/// CFG nodes in \c immediateNodes order, then its children in \c children
/// order); \c start() feeds \c EntryQ and \c ExitQ feeds \c end(). Body
/// edges (parallel edges and self loops preserved) take ids
/// \c 0..numBodyEdges()-1: the immediate nodes' in-body successor edges in
/// \c succEdges order, then each child's exit edge in child order. The two
/// boundary edges Start -> EntryQ and ExitQ -> End take the last two ids,
/// so every quotient node's successor order is that of its body edges, and
/// the boundary edge trails it.
///
/// A cheap non-owning view: valid while the \c BodyForest it came from and
/// that forest's tree live.
struct CollapsedBody {
  /// The body graph (entry \c start(), exit \c end()).
  CfgView Graph;
  /// The quotient nodes: the region's immediate CFG nodes, then its
  /// children.
  std::span<const NodeId> Imm;
  std::span<const RegionId> Kids;
  /// Body-graph edge id -> the CFG edge it stands for. The boundary edges
  /// map to the region's entry and exit edge (InvalidEdge for the root,
  /// which has neither).
  std::span<const EdgeId> CfgEdge;
  /// Quotient index of the node the region's entry edge targets, and of
  /// the node its exit edge leaves. For the root region these are the CFG
  /// entry/exit.
  uint32_t EntryQ = 0, ExitQ = 0;

  uint32_t numNodes() const {
    return static_cast<uint32_t>(Imm.size() + Kids.size());
  }
  NodeId start() const { return numNodes(); }
  NodeId end() const { return numNodes() + 1; }
  /// Edges between quotient nodes (every edge but the two boundary ones).
  uint32_t numBodyEdges() const { return Graph.numEdges() - 2; }
  /// True if quotient node \p Q is a collapsed child region.
  bool isRegion(uint32_t Q) const { return Q >= Imm.size(); }
  /// The CFG node of immediate quotient node \p Q.
  NodeId node(uint32_t Q) const { return Imm[Q]; }
  /// The child region of collapsed quotient node \p Q.
  RegionId region(uint32_t Q) const { return Kids[Q - Imm.size()]; }
};

/// Every collapsed body of one tree, built in one O(N + E + R) pass.
///
/// The bodies partition the CFG's edges (an edge lies in the body of the
/// smallest region holding both endpoints), so together they hold
/// N + 3R - 1 nodes and E + 2R edges. Each edge is examined once, as a
/// successor edge of its source's region, and its target lifts to a
/// quotient node in O(1): itself when immediate, else the child the edge
/// enters. The CSRs sit back to back in one \c CfgViewScratch, so a forest
/// makes the same number of heap blocks whatever the tree's size. Valid
/// while the tree lives; the CFG view is read only during construction.
class BodyForest {
public:
  /// Builds the bodies of every region of \p T, the tree of the CFG
  /// viewed by \p V.
  BodyForest(const CfgView &V, const ProgramStructureTree &T);

  /// The collapsed body of \p R. O(1).
  CollapsedBody body(RegionId R) const;

private:
  const ProgramStructureTree *T;
  /// Every body's arrays back to back: body R's offset arrays (its node
  /// count + 2 slots each) start at immOff(R) + childOff(R) + 4R, its edge
  /// arrays at EdgeBase[R].
  CfgViewScratch Csr;
  std::vector<EdgeId> CfgEdge;
  std::vector<uint32_t> EdgeBase;
};

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
