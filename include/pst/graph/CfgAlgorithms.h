//===- pst/graph/CfgAlgorithms.h - CFG traversals & checks ------*- C++ -*-===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph utilities shared by the analyses: DFS orders, reachability,
/// validation (Definition 1), reversal, straight-line simplification, and a
/// T1/T2 reducibility test (used to validate Theorem 10).
///
//===----------------------------------------------------------------------===//

#ifndef PST_GRAPH_CFGALGORITHMS_H
#define PST_GRAPH_CFGALGORITHMS_H

#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <string>
#include <vector>

namespace pst {

/// Result of a forward depth-first search from the entry node.
struct DfsResult {
  /// Nodes in preorder (discovery order). Unreached nodes are absent.
  std::vector<NodeId> Preorder;
  /// Nodes in postorder (finish order). Unreached nodes are absent.
  std::vector<NodeId> Postorder;
  /// Preorder number per node; UINT32_MAX for unreached nodes.
  std::vector<uint32_t> PreNum;
  /// For each reached non-root node, the tree edge that discovered it;
  /// InvalidEdge for the root and unreached nodes.
  std::vector<EdgeId> ParentEdge;
};

/// Runs an iterative DFS over the directed graph from \p Root, following
/// successor edges in order. Deterministic given the graph.
DfsResult depthFirstSearch(const CfgView &G, NodeId Root);

/// Marks the back edges of search \p D over \p G: the edges u -> v whose
/// target is an ancestor of u in the DFS tree or u itself, i.e. whose
/// target finished no earlier than their source. Edges leaving unreached
/// nodes are unmarked. The graph has a cycle through reached nodes iff
/// some edge is marked; removing the marked edges leaves an acyclic graph
/// that \p D's reverse postorder sorts topologically.
std::vector<bool> backEdges(const CfgView &G, const DfsResult &D);

/// Returns the nodes reachable from \p Root following successor edges.
std::vector<bool> reachableFrom(const Cfg &G, NodeId Root);

/// Returns the nodes that reach \p Target following predecessor edges.
std::vector<bool> reachesTo(const Cfg &G, NodeId Target);

/// True if a (possibly empty) path leads from \p From to \p To.
bool existsPathBetween(const Cfg &G, NodeId From, NodeId To);

/// Nodes in reverse postorder of a forward DFS from entry (the canonical
/// iteration order for forward dataflow and dominators). Unreached nodes are
/// absent.
std::vector<NodeId> reversePostOrder(const CfgView &G);

/// Checks the Definition-1 invariants:
///  * entry and exit are set and distinct,
///  * entry has no predecessors, exit has no successors,
///  * every node is reachable from entry and reaches exit.
/// Returns true if valid; otherwise false and (if \p Why is non-null) a
/// diagnostic in \p *Why, styled like a tool error ("node 7 unreachable...").
bool validateCfg(const Cfg &G, std::string *Why = nullptr);

/// Returns a graph with every edge reversed; entry/exit swapped.
/// Edge ids are preserved (edge E in the result is edge E reversed).
Cfg reverseCfg(const Cfg &G);

/// Merges straight-line chains: a node with a unique successor whose unique
/// predecessor it is gets fused with it (labels joined with '+'), producing
/// the block-level CFG the paper assumes ("straightline code sequences have
/// been coalesced into basic blocks"). Entry and exit survive as their own
/// blocks. Self loops and parallel edges are preserved.
Cfg simplifyCfg(const Cfg &G);

/// Tests reducibility via iterated T1 (self-loop removal) / T2 (merge a node
/// with a unique predecessor) transformations. A flow graph is reducible iff
/// these reduce it to a single node.
bool isReducible(const CfgView &G);

/// A sub-CFG cut out around a SESE region boundary.
///
/// The extracted graph contains the region's body nodes plus two synthetic
/// nodes: \c Start (feeding the target of the region's entry edge) and
/// \c End (fed by the source of the exit edge). The synthetic boundary
/// edges stand in for the real entry/exit edges, so \c GlobalEdge maps them
/// back to those edge ids. The result is itself a valid CFG, which is what
/// lets \c ProgramStructureTree::build run on it unchanged.
struct SubCfg {
  Cfg Graph;
  /// Synthetic entry/exit node (== Graph.entry() / Graph.exit()).
  NodeId Start = InvalidNode, End = InvalidNode;
  /// Local node id -> id in the enclosing graph; InvalidNode for Start/End.
  std::vector<NodeId> GlobalNode;
  /// Local edge id -> id in the enclosing graph. The synthetic boundary
  /// edges map to the region's entry/exit edge ids.
  std::vector<EdgeId> GlobalEdge;
  /// Local ids of the synthetic boundary edges.
  EdgeId LocalEntryEdge = InvalidEdge, LocalExitEdge = InvalidEdge;
  /// Set when an edge other than EntryE/ExitE crossed the node-set
  /// boundary: the node set was not a SESE body. Callers should treat the
  /// extraction as failed (the incremental PST falls back to a full
  /// rebuild).
  bool BoundaryViolation = false;
};

/// Extracts the sub-CFG induced by \p BodyNodes with boundary edges
/// \p EntryE (whose target is in the body) and \p ExitE (whose source is in
/// the body). Edges for which \p EdgeDead reports true are skipped, which
/// lets tombstoning wrappers (DynamicCfg) reuse the extraction. Successor
/// order of body nodes is preserved, so DFS-derived structures on the
/// sub-CFG agree with the enclosing graph. O(body size).
SubCfg extractRegionSubCfg(const Cfg &G, const std::vector<NodeId> &BodyNodes,
                           EdgeId EntryE, EdgeId ExitE,
                           const std::vector<bool> *EdgeDead = nullptr);

} // namespace pst

#endif // PST_GRAPH_CFGALGORITHMS_H
