//===- fig6_size_vs_procsize.cpp - Figure 6 reproduction -------------------------===//
//
// Figure 6(a): PST size (number of regions) versus procedure size — the
// number of regions grows with procedure size. Figure 6(b): average PST
// depth versus procedure size — depth stays flat. We bin procedures by
// statement count and report per-bin means (the paper shows scatter
// plots; the binned trend captures the same shape).
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/StructureMetrics.h"
#include "pst/support/TableWriter.h"
#include "pst/workload/Corpus.h"

#include <algorithm>
#include <iostream>
#include <vector>

using namespace pst;

int main() {
  std::cout << "=== Figure 6: PST size and depth versus procedure size "
               "===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  struct Row {
    uint32_t Stmts;
    uint32_t Regions;
    double AvgDepth;
  };
  std::vector<Row> Rows;
  for (const auto &C : Corpus) {
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    PstStats S = computePstStats(V, T);
    Rows.push_back(Row{C.Fn.NumStatements, S.NumRegions, S.AvgDepth});
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.Stmts < B.Stmts; });

  // Bin by procedure size.
  const uint32_t Bins[] = {25, 50, 100, 200, 400, 800, 100000};
  TableWriter T;
  T.setHeader({"proc size (stmts)", "procedures", "mean regions",
               "mean avg-depth"});
  uint32_t Lo = 0;
  size_t I = 0;
  for (uint32_t Hi : Bins) {
    uint64_t N = 0, RegionSum = 0;
    double DepthSum = 0;
    while (I < Rows.size() && Rows[I].Stmts < Hi) {
      ++N;
      RegionSum += Rows[I].Regions;
      DepthSum += Rows[I].AvgDepth;
      ++I;
    }
    if (N > 0) {
      std::string Label = std::to_string(Lo) + "-" +
                          (Hi == 100000 ? "+" : std::to_string(Hi));
      T.addRow({Label, std::to_string(N),
                TableWriter::fmt(static_cast<double>(RegionSum) /
                                     static_cast<double>(N), 1),
                TableWriter::fmt(DepthSum / static_cast<double>(N), 2)});
    }
    Lo = Hi;
  }
  T.print(std::cout);

  std::cout << "\npaper: number of regions grows with procedure size; "
               "average nesting depth is flat (independent of size)\n";
  return 0;
}
