//===- fig7_region_kinds.cpp - Figure 7 reproduction -----------------------------===//
//
// Figure 7: weighted proportion of regions by kind, where a region's
// weight is its number of nested maximal regions (blocks weigh 1). The
// paper's pie reports 23.2% blocks and 2.0% "other" with the rest split
// among conditionals, case, loops and dags; 182/254 procedures are fully
// structured.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/StructureMetrics.h"
#include "pst/support/TableWriter.h"
#include "pst/workload/Corpus.h"

#include <array>
#include <iostream>

using namespace pst;

int main() {
  std::cout << "=== Figure 7: weighted proportion of regions by kind ===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  std::array<uint64_t, NumRegionKinds> Weighted = {};
  uint32_t Structured = 0;
  for (const auto &C : Corpus) {
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    PstStats S = computePstStats(V, T);
    for (size_t K = 0; K < NumRegionKinds; ++K)
      Weighted[K] += S.WeightedKind[K];
    Structured += S.FullyStructured;
  }

  uint64_t Total = 0;
  for (uint64_t W : Weighted)
    Total += W;

  TableWriter T;
  T.setHeader({"kind", "weighted count", "share %"});
  for (size_t K = 0; K < NumRegionKinds; ++K) {
    double Pct =
        100.0 * static_cast<double>(Weighted[K]) / static_cast<double>(Total);
    T.addRow({regionKindName(static_cast<RegionKind>(K)),
              std::to_string(Weighted[K]), TableWriter::fmt(Pct, 1)});
  }
  T.print(std::cout);

  std::cout << "\nfully structured procedures: " << Structured << " / "
            << Corpus.size() << " (paper: 182 / 254)\n";
  std::cout << "paper: blocks 23.2%, other/unstructured 2.0%, remainder "
               "conditionals, case, loops and dags\n";
  return 0;
}
