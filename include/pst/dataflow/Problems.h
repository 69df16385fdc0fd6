//===- pst/dataflow/Problems.h - Classic bitvector problems -----*- C++ -*-===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic dataflow problem instances built from lowered MiniLang:
/// reaching definitions, live variables and available expressions, plus
/// the single-instance variants the QPG sparsity experiment sweeps
/// ("availability of x + y" for one expression at a time, Section 6.2).
///
//===----------------------------------------------------------------------===//

#ifndef PST_DATAFLOW_PROBLEMS_H
#define PST_DATAFLOW_PROBLEMS_H

#include "pst/dataflow/Dataflow.h"
#include "pst/lang/Lower.h"

#include <string>
#include <vector>

namespace pst {

/// Reaching definitions: forward, union meet; one bit per defining
/// instruction (block-level gen/kill). Also returns, in \p DefVarOut if
/// non-null, the variable each bit defines.
BitVectorProblem makeReachingDefs(const LoweredFunction &F,
                                  std::vector<VarId> *DefVarOut = nullptr);

/// Live variables: backward, union meet; one bit per variable. The
/// returned problem is stated forward over the reversed graph — solve it
/// on \c V.reversed() for a view \c V of \c F.Graph; In/Out there are the
/// backward Out/In.
BitVectorProblem makeLiveVariables(const LoweredFunction &F);

/// Available expressions: forward, intersect meet; one bit per distinct
/// right-hand-side expression (keyed by printed form). Returns the key
/// table in \p KeysOut if non-null.
BitVectorProblem
makeAvailableExpressions(const LoweredFunction &F,
                         std::vector<std::string> *KeysOut = nullptr);

/// The distinct RHS expression keys of \p F (the sweep domain for the QPG
/// experiment).
std::vector<std::string> expressionKeys(const LoweredFunction &F);

/// Single-instance availability of the expression \p Key: a 1-bit forward
/// intersect problem (most blocks are transparent, which is what makes
/// the QPG small).
BitVectorProblem makeSingleExprAvailability(const LoweredFunction &F,
                                            const std::string &Key);

} // namespace pst

#endif // PST_DATAFLOW_PROBLEMS_H
