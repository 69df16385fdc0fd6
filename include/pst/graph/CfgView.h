//===- pst/graph/CfgView.h - Frozen CSR adjacency snapshot ------*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable compressed-sparse-row snapshot of a \c Cfg, built once per
/// function and shared by every stage of the analysis pipeline.
///
/// \c Cfg stores adjacency as per-node \c std::vector succ/pred lists: good
/// for construction, bad for the traversal-heavy analyses, which each ended
/// up either rebuilding a private CSR (cycle equivalence) or pointer-chasing
/// through node objects (dominators, dataflow). \c CfgView freezes the graph
/// into six flat arrays:
///
///   SuccOff[N+1] / SuccEdge[E] / SuccTo[E]    outgoing CSR
///   PredOff[N+1] / PredEdge[E] / PredFrom[E]  incoming CSR
///   EdgeSrc[E]   / EdgeDst[E]                 edge endpoints (SoA)
///
/// Segment [SuccOff[V], SuccOff[V+1]) of SuccEdge holds V's outgoing edge
/// ids *in increasing id order* — identical to \c Cfg::succEdges order,
/// because \c Cfg only ever appends edges — and SuccTo holds the matching
/// targets so traversals touch one cache line stream instead of hopping
/// through the central edge table. Same for the incoming side. Analyses of
/// the reversed graph (postdominators, backward dataflow) run on
/// \c reversed(), which swaps the two sides in O(1) instead of
/// materializing a reversed \c Cfg.
///
/// The view is non-owning: all storage lives in a caller-provided
/// \c CfgViewScratch, so a worker thread reuses one warm scratch across a
/// whole corpus and steady-state view construction performs no heap
/// allocations. The view is invalidated by touching the scratch or the
/// source graph.
///
/// \c CfgView is the one graph type every analysis reads: \c Cfg is only the
/// mutable builder (lowering, generators, \c DynamicCfg, IO, validation).
/// Callers that hold a \c Cfg and want a one-shot analysis freeze it with
/// \c FrozenCfg, which owns the scratch its view lives in.
///
//===----------------------------------------------------------------------===//

#ifndef PST_GRAPH_CFGVIEW_H
#define PST_GRAPH_CFGVIEW_H

#include "pst/graph/Cfg.h"

#include <span>
#include <utility>
#include <vector>

namespace pst {

/// Caller-owned backing storage for a \c CfgView. Reusable: buffers grow to
/// the largest graph seen and stay warm. Holds no pointers into any graph.
struct CfgViewScratch {
  /// CSR offsets, sized numNodes+2: one leading slot is used as a scatter
  /// cursor during construction so no separate cursor array is needed. The
  /// view exposes the first numNodes+1 entries.
  std::vector<uint32_t> SuccOff;
  std::vector<uint32_t> PredOff;
  std::vector<EdgeId> SuccEdge; ///< Outgoing edge ids, per-node ascending.
  std::vector<NodeId> SuccTo;   ///< Target of SuccEdge[i].
  std::vector<EdgeId> PredEdge; ///< Incoming edge ids, per-node ascending.
  std::vector<NodeId> PredFrom; ///< Source of PredEdge[i].
  std::vector<NodeId> EdgeSrc;  ///< Edge id -> source node.
  std::vector<NodeId> EdgeDst;  ///< Edge id -> target node.
};

/// A frozen, non-owning CSR adjacency snapshot of one \c Cfg.
///
/// Cheap to copy (a handful of pointers). Valid only while the scratch it
/// was built into (and the entry/exit ids of the source graph) stay
/// untouched.
class CfgView {
public:
  CfgView() = default;

  /// Snapshots \p G into \p S and returns the view: copies the edge
  /// endpoints, then runs \c fillCsr. Per-node edge order matches
  /// \c Cfg::succEdges/predEdges exactly. O(N + E); allocation-free once
  /// \p S is warm.
  static CfgView build(const Cfg &G, CfgViewScratch &S);

  /// The CSR fill behind \c build, for callers that lay out many graphs in
  /// shared buffers (the region-body forest, pst/core): given the \p E
  /// edges' endpoints in \p EdgeSrc / \p EdgeDst, fills both sides'
  /// offsets and segments and returns the view over the eight arrays. Each
  /// offset array must hold \p N + 2 zeros: the spare slot is the scatter
  /// cursor, and the first \p N + 1 slots end up as the offsets. O(N + E).
  static CfgView fillCsr(uint32_t N, uint32_t E, NodeId Entry, NodeId Exit,
                         uint32_t *SuccOff, uint32_t *PredOff,
                         EdgeId *SuccEdge, NodeId *SuccTo, EdgeId *PredEdge,
                         NodeId *PredFrom, const NodeId *EdgeSrc,
                         const NodeId *EdgeDst);

  /// Wraps eight externally-owned CSR arrays (e.g. slices of a mapped
  /// corpus image, see pst/image) as a view, with no copy or validation.
  /// The arrays must have exactly the layout \c build produces: offsets
  /// sized \p N + 1, edge arrays sized \p E, per-node segments in
  /// ascending edge-id order. Valid only while the backing storage lives.
  static CfgView adopt(uint32_t N, uint32_t E, NodeId Entry, NodeId Exit,
                       const uint32_t *SuccOff, const uint32_t *PredOff,
                       const EdgeId *SuccEdge, const NodeId *SuccTo,
                       const EdgeId *PredEdge, const NodeId *PredFrom,
                       const NodeId *EdgeSrc, const NodeId *EdgeDst);

  /// The same graph with every edge reversed and entry/exit swapped, in
  /// O(1): the succ and pred arrays trade places, as do EdgeSrc and
  /// EdgeDst. Node and edge ids are kept, and both CSR sides list each
  /// node's edges in ascending id order, so the result is array for array
  /// the view of \c reverseCfg(G) and DFS-derived structures
  /// (postdominators in particular) match a materialized reversal exactly.
  /// Reversing twice gives back this view. Valid as long as this view is.
  CfgView reversed() const {
    CfgView R = *this;
    std::swap(R.EntryNode, R.ExitNode);
    std::swap(R.SuccOffP, R.PredOffP);
    std::swap(R.SuccEdgeP, R.PredEdgeP);
    std::swap(R.SuccToP, R.PredFromP);
    std::swap(R.EdgeSrcP, R.EdgeDstP);
    return R;
  }

  uint32_t numNodes() const { return N; }
  uint32_t numEdges() const { return E; }
  NodeId entry() const { return EntryNode; }
  NodeId exit() const { return ExitNode; }

  NodeId source(EdgeId Id) const { return EdgeSrcP[Id]; }
  NodeId target(EdgeId Id) const { return EdgeDstP[Id]; }

  uint32_t outDegree(NodeId V) const { return SuccOffP[V + 1] - SuccOffP[V]; }
  uint32_t inDegree(NodeId V) const { return PredOffP[V + 1] - PredOffP[V]; }

  /// Outgoing edge ids of \p V in insertion (ascending id) order.
  std::span<const EdgeId> succEdges(NodeId V) const {
    return {SuccEdgeP + SuccOffP[V], SuccEdgeP + SuccOffP[V + 1]};
  }
  /// Incoming edge ids of \p V in insertion (ascending id) order.
  std::span<const EdgeId> predEdges(NodeId V) const {
    return {PredEdgeP + PredOffP[V], PredEdgeP + PredOffP[V + 1]};
  }
  /// Successor nodes of \p V, parallel to \c succEdges.
  std::span<const NodeId> succNodes(NodeId V) const {
    return {SuccToP + SuccOffP[V], SuccToP + SuccOffP[V + 1]};
  }
  /// Predecessor nodes of \p V, parallel to \c predEdges.
  std::span<const NodeId> predNodes(NodeId V) const {
    return {PredFromP + PredOffP[V], PredFromP + PredOffP[V + 1]};
  }

  /// Raw arrays, for stages that want to index directly.
  const uint32_t *succOff() const { return SuccOffP; }
  const uint32_t *predOff() const { return PredOffP; }
  const EdgeId *succEdge() const { return SuccEdgeP; }
  const NodeId *succTo() const { return SuccToP; }
  const EdgeId *predEdge() const { return PredEdgeP; }
  const NodeId *predFrom() const { return PredFromP; }
  const NodeId *edgeSrc() const { return EdgeSrcP; }
  const NodeId *edgeDst() const { return EdgeDstP; }

private:
  uint32_t N = 0;
  uint32_t E = 0;
  NodeId EntryNode = InvalidNode;
  NodeId ExitNode = InvalidNode;
  const uint32_t *SuccOffP = nullptr;
  const uint32_t *PredOffP = nullptr;
  const EdgeId *SuccEdgeP = nullptr;
  const NodeId *SuccToP = nullptr;
  const EdgeId *PredEdgeP = nullptr;
  const NodeId *PredFromP = nullptr;
  const NodeId *EdgeSrcP = nullptr;
  const NodeId *EdgeDstP = nullptr;
};

/// A \c Cfg frozen into a view that owns its storage: a \c CfgViewScratch
/// plus the view built into it. The convenience form for one-shot callers
/// (tests, examples, baselines, extracted sub-CFGs); pipelines that freeze
/// many graphs reuse one \c CfgViewScratch instead.
///
/// Lifetime contract: the view is valid while this object lives; the
/// source graph may change or die afterwards, since every array and the
/// entry/exit ids were copied. Moving keeps the view
/// valid (vector moves transfer their buffers); copying is disabled. It
/// converts implicitly to \c const \c CfgView&, so a temporary works as a
/// call argument — `DomTree::buildIterative(FrozenCfg(G))` — but must not
/// be bound to a reference that outlives the full expression.
class FrozenCfg {
public:
  explicit FrozenCfg(const Cfg &G) : View(CfgView::build(G, Scratch)) {}
  FrozenCfg(const FrozenCfg &) = delete;
  FrozenCfg &operator=(const FrozenCfg &) = delete;
  FrozenCfg(FrozenCfg &&) = default;
  FrozenCfg &operator=(FrozenCfg &&) = default;

  const CfgView &view() const { return View; }
  operator const CfgView &() const { return View; }

private:
  CfgViewScratch Scratch; // Declared first: View points into it.
  CfgView View;
};

} // namespace pst

#endif // PST_GRAPH_CFGVIEW_H
