//===- fig10_phi_sparsity.cpp - Figure 10 reproduction ---------------------------===//
//
// Figure 10: percentage of SESE regions examined while placing
// phi-functions, per variable, using the PST-based placement. Paper
// headline: 5072 variables, and for ~70% of them fewer than one fifth of
// the regions are examined.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/support/Histogram.h"
#include "pst/support/TableWriter.h"
#include "pst/workload/Corpus.h"

#include <iostream>

using namespace pst;

int main() {
  std::cout << "=== Figure 10: fraction of regions examined during "
               "phi placement ===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  Histogram Buckets; // 10% buckets: 0 => [0,10), 1 => [10,20), ...
  uint64_t Vars = 0, Under20 = 0;
  for (const auto &C : Corpus) {
    FrozenCfg FV(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(FV);
    PhiPlacement P = placePhisPst(C.Fn, FV, T);
    for (VarId V = 0; V < C.Fn.numVars(); ++V) {
      double Frac = P.RegionsTotal
                        ? static_cast<double>(P.RegionsExamined[V]) /
                              static_cast<double>(P.RegionsTotal)
                        : 0.0;
      size_t Bucket = std::min<size_t>(9, static_cast<size_t>(Frac * 10));
      Buckets.add(Bucket);
      ++Vars;
      Under20 += Frac < 0.2;
    }
  }

  TableWriter T;
  T.setHeader({"% regions examined", "variables", "share %"});
  for (size_t B = 0; B < 10; ++B) {
    double Pct = 100.0 * static_cast<double>(Buckets.count(B)) /
                 static_cast<double>(Buckets.total());
    T.addRow({std::to_string(B * 10) + "-" + std::to_string(B * 10 + 10),
              std::to_string(Buckets.count(B)), TableWriter::fmt(Pct, 1)});
  }
  T.print(std::cout);

  double Under20Pct =
      100.0 * static_cast<double>(Under20) / static_cast<double>(Vars);
  std::cout << "\nN = " << Vars << " variables; "
            << TableWriter::fmt(Under20Pct, 1)
            << "% needed less than one fifth of the regions\n";
  std::cout << "paper: N = 5072 variables; ~70% needed less than one "
               "fifth of the regions\n";
  return 0;
}
