//===- pst/ssa/PhiPlacement.h - Phi placement (classic & PST) ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phi-function placement for SSA construction, two ways:
///
///  * \c placePhisClassic - Cytron et al.: iterated dominance frontiers of
///    the definition blocks, per variable, on the whole CFG.
///  * \c placePhisPst - the paper's Section 6.1 divide-and-conquer: mark
///    the PST regions containing definitions, collapse nested regions to
///    single statements (a marked child acts as a definition, an unmarked
///    one as a no-op), and run placement inside each marked region with
///    the region entry treated as a definition (Theorem 9 guarantees the
///    union over marked regions equals the classic result). Only marked
///    regions are ever touched, which is the sparsity Figure 10 measures.
///
//===----------------------------------------------------------------------===//

#ifndef PST_SSA_PHIPLACEMENT_H
#define PST_SSA_PHIPLACEMENT_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/lang/Lower.h"

#include <vector>

namespace pst {

/// Result of placing phis for every variable of one function.
struct PhiPlacement {
  /// PhiBlocks[v] = blocks needing a phi for variable v, sorted.
  std::vector<std::vector<NodeId>> PhiBlocks;
  /// Figure-10 instrumentation: per variable, the number of PST regions
  /// examined (marked), and the total number of regions. The classic
  /// algorithm reports Total for every variable (it looks at the whole
  /// graph). Index parallel to PhiBlocks.
  std::vector<uint32_t> RegionsExamined;
  uint32_t RegionsTotal = 0;
};

/// Cytron et al. iterated-dominance-frontier placement on the full CFG.
/// \p V must view \c F.Graph.
PhiPlacement placePhisClassic(const LoweredFunction &F, const CfgView &V);

/// The paper's PST-based placement (Section 6.1, Theorem 9), collapsing
/// region bodies off \p V, which must view \c F.Graph.
PhiPlacement placePhisPst(const LoweredFunction &F, const CfgView &V,
                          const ProgramStructureTree &T);

} // namespace pst

#endif // PST_SSA_PHIPLACEMENT_H
