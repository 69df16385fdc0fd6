//===- fig9_max_region_size.cpp - Figure 9 reproduction --------------------------===//
//
// Figure 9: maximum region size versus procedure size. Region size is the
// collapsed-body size (immediate nodes plus nested regions counted as
// single statements) — the quantity that makes per-region SSA placement
// cheap. The paper's point: maximum region size stays roughly flat as
// procedures grow.
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
  std::cout << "=== Figure 9: maximum collapsed region size versus "
               "procedure size ===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  struct Row {
    uint32_t Stmts;
    uint32_t MaxRegion;
  };
  std::vector<Row> Rows;
  for (const auto &C : Corpus) {
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    PstStats S = computePstStats(V, T);
    Rows.push_back(Row{C.Fn.NumStatements, S.MaxRegionSize});
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.Stmts < B.Stmts; });

  const uint32_t Bins[] = {25, 50, 100, 200, 400, 800, 100000};
  TableWriter T;
  T.setHeader({"proc size (stmts)", "procedures", "mean max-region",
               "largest max-region"});
  uint32_t Lo = 0;
  size_t I = 0;
  for (uint32_t Hi : Bins) {
    uint64_t N = 0, Sum = 0, Peak = 0;
    while (I < Rows.size() && Rows[I].Stmts < Hi) {
      ++N;
      Sum += Rows[I].MaxRegion;
      Peak = std::max<uint64_t>(Peak, Rows[I].MaxRegion);
      ++I;
    }
    if (N > 0) {
      std::string Label = std::to_string(Lo) + "-" +
                          (Hi == 100000 ? "+" : std::to_string(Hi));
      T.addRow({Label, std::to_string(N),
                TableWriter::fmt(static_cast<double>(Sum) /
                                     static_cast<double>(N), 1),
                std::to_string(Peak)});
    }
    Lo = Hi;
  }
  T.print(std::cout);

  std::cout << "\npaper: maximum region size is roughly independent of "
               "procedure size\n";
  return 0;
}
