//===- pst/incremental/DynamicCfg.h - Editable CFG with a journal -*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CFG that can be edited after construction.
///
/// \c Cfg is deliberately append-only (analyses index flat side tables by
/// dense ids), so DynamicCfg wraps one and layers on top of it:
///
///  * an edit API — \c insertEdge, \c deleteEdge, \c splitBlock,
///    \c addBlock — that preserves the Definition-1 CFG invariants after
///    every applied edit (edits that would break them are rejected),
///  * tombstones: deleted edges keep their ids but are marked dead, so all
///    existing id-indexed side tables stay addressable,
///  * an edit journal that consumers (\c IncrementalPst) replay to find out
///    what changed since they last looked.
///
/// Node ids are stable forever (nodes are never removed; \c splitBlock and
/// \c addBlock only add). Edge ids are stable for live edges and never
/// reused after deletion.
///
//===----------------------------------------------------------------------===//

#ifndef PST_INCREMENTAL_DYNAMICCFG_H
#define PST_INCREMENTAL_DYNAMICCFG_H

#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <string>
#include <vector>

namespace pst {

/// One applied edit, in application order.
struct CfgEdit {
  enum class Kind : uint8_t {
    InsertEdge, ///< Edge E = Src -> Dst was added.
    DeleteEdge, ///< Edge E (Src -> Dst) was tombstoned.
    SplitBlock, ///< Edge E was tombstoned; NewNode with NewEdges[0] =
                ///< Src -> NewNode and NewEdges[1] = NewNode -> Dst added.
    AddBlock,   ///< NewNode with NewEdges[0] = Src -> NewNode and
                ///< NewEdges[1] = NewNode -> Dst added.
  };
  Kind K;
  /// The edge the edit targets (InsertEdge: the new edge; DeleteEdge /
  /// SplitBlock: the removed edge; AddBlock: InvalidEdge).
  EdgeId E = InvalidEdge;
  /// Endpoints of E at the time of the edit (for AddBlock: the nodes the
  /// new block was wired between).
  NodeId Src = InvalidNode, Dst = InvalidNode;
  /// New node created by SplitBlock / AddBlock.
  NodeId NewNode = InvalidNode;
  /// New edges created by SplitBlock / AddBlock.
  EdgeId NewEdges[2] = {InvalidEdge, InvalidEdge};
};

/// An editable CFG. See the file comment for the contract.
class DynamicCfg {
public:
  /// Takes over \p Initial, which must satisfy \c validateCfg.
  explicit DynamicCfg(Cfg Initial);

  /// The underlying graph. Contains tombstoned edges: consumers traversing
  /// adjacency lists must skip edges for which \c edgeDead holds.
  const Cfg &graph() const { return G; }

  bool edgeDead(EdgeId E) const { return Dead[E]; }
  bool edgeLive(EdgeId E) const { return !Dead[E]; }
  /// Dead flags indexed by EdgeId (the form \c extractRegionSubCfg takes).
  const std::vector<bool> &deadEdges() const { return Dead; }

  uint32_t numNodes() const { return G.numNodes(); }
  uint32_t numLiveEdges() const { return LiveEdges; }

  NodeId entry() const { return G.entry(); }
  NodeId exit() const { return G.exit(); }

  // -- Edit API ------------------------------------------------------------

  /// Adds an edge Src -> Dst. Rejected (returns InvalidEdge) when it would
  /// give the entry node a predecessor or the exit node a successor; any
  /// other insertion keeps the CFG valid.
  EdgeId insertEdge(NodeId Src, NodeId Dst);

  /// Tombstones edge \p E if every node remains reachable from entry and
  /// co-reachable from exit without it; returns false (and applies nothing)
  /// otherwise. The check costs one forward and one backward sweep —
  /// \c IncrementalPst::deleteEdge performs the same check restricted to
  /// the smallest enclosing SESE region instead.
  bool deleteEdge(EdgeId E);

  /// Tombstones edge \p E without the validity check. The caller asserts
  /// the CFG stays valid (IncrementalPst does, having run the check locally
  /// on the dirty region).
  void deleteEdgeUnchecked(EdgeId E);

  /// Splits edge \p E: tombstones it and routes Src -> M -> Dst through a
  /// new block M. Always keeps the CFG valid. Returns M.
  NodeId splitBlock(EdgeId E, std::string Label = "");

  /// Adds a new block M wired Src -> M -> Dst (both edges new; E stays
  /// untouched if one already runs Src -> Dst). Rejected (returns
  /// InvalidNode) under the same entry/exit constraints as \c insertEdge.
  NodeId addBlock(NodeId Src, NodeId Dst, std::string Label = "");

  // -- Journal -------------------------------------------------------------

  /// Every applied edit since construction, in order. Rejected edits are
  /// not journaled.
  const std::vector<CfgEdit> &journal() const { return Journal; }

  // -- Queries -------------------------------------------------------------

  /// True if the graph would still satisfy Definition 1 with \p Skip
  /// removed (pass InvalidEdge to check the current graph).
  bool validWithoutEdge(EdgeId Skip) const;

  /// Builds a compact \c Cfg with tombstones dropped. Node ids carry over
  /// unchanged; live edges are renumbered densely in id order. If non-null,
  /// \p GlobalOfCompact receives the compact-to-DynamicCfg edge id map and
  /// \p CompactOfGlobal the reverse map (InvalidEdge for dead edges).
  Cfg materialize(std::vector<EdgeId> *GlobalOfCompact = nullptr,
                  std::vector<EdgeId> *CompactOfGlobal = nullptr) const;

  /// The view of \c materialize() — node ids unchanged, live edges
  /// renumbered densely in id order — frozen into \p S straight from this
  /// graph, with no \c Cfg copy. Allocation-free once \p S is warm.
  CfgView view(CfgViewScratch &S) const;

private:
  EdgeId addEdgeRaw(NodeId Src, NodeId Dst);

  Cfg G;
  std::vector<bool> Dead;
  uint32_t LiveEdges = 0;
  std::vector<CfgEdit> Journal;
};

} // namespace pst

#endif // PST_INCREMENTAL_DYNAMICCFG_H
