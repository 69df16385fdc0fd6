//===- pst/dataflow/Dataflow.h - Bitvector dataflow framework ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotone gen/kill bitvector dataflow framework with three solvers:
///
///  * \c solveIterative - the textbook worklist iteration (the baseline).
///  * \c solveElimination - the paper's Section 6.2 structural approach:
///    bottom-up over the PST, summarize every region by one gen/kill
///    transfer function (gen/kill functions are closed under composition
///    and meet, and each bit's region function is determined by probing
///    the region body with the empty and the full set); then top-down,
///    propagate concrete values from region entries inward.
///  * QPG solving (see Qpg.h) for sparse single-instance problems.
///
/// Problems are stated forward. A backward problem (\c makeLiveVariables
/// in Problems.h) is stated forward over \c CfgView::reversed() of its
/// graph, which keeps node and edge ids, so the solution's In/Out are the
/// backward OUT/IN.
///
//===----------------------------------------------------------------------===//

#ifndef PST_DATAFLOW_DATAFLOW_H
#define PST_DATAFLOW_DATAFLOW_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/support/BitVector.h"

#include <vector>

namespace pst {

/// One node's gen/kill transfer function: out = Gen | (in & ~Kill).
struct GenKill {
  BitVector Gen, Kill;
};

/// A forward bitvector dataflow problem instance over one CFG.
struct BitVectorProblem {
  enum class MeetKind : uint8_t { Union, Intersect };

  uint32_t NumBits = 0;
  MeetKind Meet = MeetKind::Union;
  /// Transfer[n] for every CFG node n.
  std::vector<GenKill> Transfer;
  /// Value entering the entry node.
  BitVector Boundary;

  /// Applies node \p N's transfer function.
  BitVector apply(NodeId N, const BitVector &In) const {
    BitVector Out = In;
    Out.subtract(Transfer[N].Kill);
    Out.unionWith(Transfer[N].Gen);
    return Out;
  }

  /// The meet identity (empty set for union, full set for intersect).
  BitVector top() const {
    return BitVector(NumBits, Meet == MeetKind::Intersect);
  }

  /// True if node \p N's transfer function is the identity (the QPG's
  /// "transparent" test).
  bool isIdentity(NodeId N) const {
    return Transfer[N].Gen.none() && Transfer[N].Kill.none();
  }
};

/// IN/OUT per node.
struct DataflowSolution {
  std::vector<BitVector> In, Out;

  bool operator==(const DataflowSolution &O) const {
    return In == O.In && Out == O.Out;
  }
};

/// Worklist iteration to the (unique) greatest/least fixed point; the RPO
/// sweep reads the view's flat pred segments.
DataflowSolution solveIterative(const CfgView &V, const BitVectorProblem &P);

/// PST elimination: bottom-up region summarization, top-down propagation.
/// Produces the same solution as \c solveIterative for every node on every
/// gen/kill problem (tested), touching each region body O(1) times.
DataflowSolution solveElimination(const CfgView &V,
                                  const ProgramStructureTree &T,
                                  const BitVectorProblem &P);

} // namespace pst

#endif // PST_DATAFLOW_DATAFLOW_H
