//===- pst/core/StructureMetrics.h - Figure 5/6/7/9 metrics -----*- C++ -*-===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-procedure measurements behind the paper's empirical section
/// (Figures 5, 6, 7 and 9): region depth distribution, PST size and depth
/// versus procedure size, weighted region-kind proportions, and maximum
/// collapsed region size.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CORE_STRUCTUREMETRICS_H
#define PST_CORE_STRUCTUREMETRICS_H

#include "pst/core/RegionAnalysis.h"
#include "pst/support/Histogram.h"

#include <array>

namespace pst {

/// Number of RegionKind enumerators (for flat arrays keyed by kind).
inline constexpr size_t NumRegionKinds = 7;

/// Everything the figure benches need from one procedure's PST.
struct PstStats {
  /// Canonical regions (the paper's "SESE regions"; the synthetic root is
  /// not counted).
  uint32_t NumRegions = 0;
  /// Histogram of canonical region depths (depth 1 = top level, matching
  /// the paper's depth axis starting at 1).
  Histogram DepthHist;
  uint32_t MaxDepth = 0;
  double AvgDepth = 0.0;
  /// Maximum collapsed-body size over all regions (immediate nodes plus
  /// collapsed children), the paper's "maximum region size" (Figure 9).
  uint32_t MaxRegionSize = 0;
  /// Figure 7: sum of region weights per kind (weight = number of nested
  /// maximal regions; blocks weigh 1).
  std::array<uint64_t, NumRegionKinds> WeightedKind = {};
  /// True when no region is a dag or cyclic-unstructured (the paper found
  /// 182 of 254 procedures completely structured).
  bool FullyStructured = true;
};

/// Computes all Figure 5/6/7/9 measurements for one procedure.
PstStats computePstStats(const CfgView &V, const ProgramStructureTree &T);

} // namespace pst

#endif // PST_CORE_STRUCTUREMETRICS_H
