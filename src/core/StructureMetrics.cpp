//===- StructureMetrics.cpp - Figure 5/6/7/9 metrics -------------------------===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/core/StructureMetrics.h"

#include <algorithm>

using namespace pst;

PstStats pst::computePstStats(const CfgView &G,
                               const ProgramStructureTree &T) {
  PstStats S;
  S.NumRegions = T.numCanonicalRegions();

  double DepthSum = 0;
  BodyForest Bodies(G, T);
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    CollapsedBody B = Bodies.body(R);
    S.MaxRegionSize = std::max(S.MaxRegionSize, B.numNodes());
    if (R == T.root())
      continue;
    uint32_t D = T.region(R).Depth;
    S.DepthHist.add(D);
    S.MaxDepth = std::max(S.MaxDepth, D);
    DepthSum += D;

    RegionKind K = classifyRegion(B);
    S.WeightedKind[static_cast<size_t>(K)] += regionWeight(T, R);
    if (K == RegionKind::Dag || K == RegionKind::CyclicUnstructured)
      S.FullyStructured = false;
  }
  S.AvgDepth = S.NumRegions ? DepthSum / S.NumRegions : 0.0;
  return S;
}
