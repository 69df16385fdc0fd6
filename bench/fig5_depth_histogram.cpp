//===- fig5_depth_histogram.cpp - Figure 5 reproduction -------------------------===//
//
// Figure 5(a): number of regions at each PST depth; Figure 5(b): the
// cumulative fraction at or below each depth. Paper headline numbers:
// N = 8609 regions, average depth 2.68, max depth 13, ~97% of regions at
// depth <= 6.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/StructureMetrics.h"
#include "pst/support/Histogram.h"
#include "pst/support/TableWriter.h"
#include "pst/workload/Corpus.h"

#include <iostream>

using namespace pst;

int main() {
  std::cout << "=== Figure 5: region depth distribution over the corpus "
               "===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  Histogram Depths;
  for (const auto &C : Corpus) {
    ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(C.Fn.Graph));
    for (RegionId R = 1; R < T.numRegions(); ++R)
      Depths.add(T.region(R).Depth);
  }

  TableWriter T;
  T.setHeader({"depth", "regions", "cumulative", "cumulative %"});
  for (size_t D = 1; D <= Depths.maxValue(); ++D) {
    double CumPct = 100.0 * static_cast<double>(Depths.cumulative(D)) /
                    static_cast<double>(Depths.total());
    T.addRow({std::to_string(D), std::to_string(Depths.count(D)),
              std::to_string(Depths.cumulative(D)),
              TableWriter::fmt(CumPct, 1)});
  }
  T.print(std::cout);

  std::cout << "\nN = " << Depths.total()
            << " regions, average depth = " << TableWriter::fmt(Depths.mean(), 2)
            << ", max depth = " << Depths.maxValue() << "\n";
  std::cout << "paper: N = 8609, average depth = 2.68, max depth = 13, "
               "~97% at depth <= 6\n";
  double AtSix = 100.0 * static_cast<double>(Depths.cumulative(6)) /
                 static_cast<double>(Depths.total());
  std::cout << "here : " << TableWriter::fmt(AtSix, 1)
            << "% of regions at depth <= 6\n";
  return 0;
}
