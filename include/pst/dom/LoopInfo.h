//===- pst/dom/LoopInfo.h - Natural loop nesting forest ---------*- C++ -*-===//
//
// Part of the PST library (see Dominators.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural loops and the loop nesting forest. A backedge is an edge whose
/// target dominates its source; its natural loop is the target (header)
/// plus every node that reaches the source without passing the header.
/// Loops sharing a header are merged. Used by tests to cross-check the
/// PST's loop-region classification and by the structure examples.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DOM_LOOPINFO_H
#define PST_DOM_LOOPINFO_H

#include "pst/dom/Dominators.h"

#include <vector>

namespace pst {

/// Dense index of a natural loop.
using LoopId = uint32_t;
/// Sentinel for "no loop".
inline constexpr LoopId InvalidLoop = ~LoopId(0);

/// The natural loops of one CFG, organized into a nesting forest.
class LoopInfo {
public:
  struct Loop {
    NodeId Header = InvalidNode;
    /// Backedges (as CFG edge ids) whose target is this header.
    std::vector<EdgeId> Backedges;
    /// All member nodes, sorted (header included).
    std::vector<NodeId> Nodes;
    /// Enclosing loop, or InvalidLoop for top-level loops.
    LoopId Parent = InvalidLoop;
    /// Immediately nested loops.
    std::vector<LoopId> Children;
    /// Nesting depth; top-level loops have depth 1.
    uint32_t Depth = 1;
  };

  /// Computes natural loops of \p V using dominator tree \p DT. Only
  /// backedges in the dominance sense contribute; irreducible cycles
  /// (retreating edges whose target does not dominate the source) are not
  /// natural loops and are reported via \c irreducibleEdges.
  LoopInfo(const CfgView &V, const DomTree &DT);

  uint32_t numLoops() const { return static_cast<uint32_t>(Loops.size()); }
  const Loop &loop(LoopId L) const { return Loops[L]; }

  /// Innermost loop containing node \p N, or InvalidLoop.
  LoopId loopOf(NodeId N) const { return NodeLoop[N]; }

  /// Loop nesting depth of node \p N (0 = not in any loop).
  uint32_t depthOf(NodeId N) const {
    return NodeLoop[N] == InvalidLoop ? 0 : Loops[NodeLoop[N]].Depth;
  }

  /// Retreating edges that are not natural backedges (evidence of
  /// irreducibility).
  const std::vector<EdgeId> &irreducibleEdges() const { return IrrEdges; }

private:
  std::vector<Loop> Loops;
  std::vector<LoopId> NodeLoop;
  std::vector<EdgeId> IrrEdges;
};

} // namespace pst

#endif // PST_DOM_LOOPINFO_H
