//===- table1_corpus.cpp - The paper's corpus table ---------------------------===//
//
// Reproduces the Section-4 corpus table: suite / program / lines /
// procedures, on the synthetic MiniLang corpus calibrated to the paper,
// plus the structured-procedure count the paper quotes (182 of 254).
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/StructureMetrics.h"
#include "pst/support/TableWriter.h"
#include "pst/workload/Corpus.h"

#include <iostream>
#include <map>

using namespace pst;

int main() {
  std::cout << "=== Table 1: benchmark corpus (synthetic MiniLang mirror of "
               "the paper's programs) ===\n\n";
  auto Corpus = generatePaperCorpus(/*Seed=*/1994);

  // Aggregate generated statement counts per program.
  std::map<std::string, uint64_t> GenStmts;
  std::map<std::string, uint32_t> StructuredPerProgram;
  uint32_t TotalStructured = 0;
  uint64_t TotalRegions = 0;
  for (const auto &C : Corpus) {
    GenStmts[C.Program] += C.Fn.NumStatements;
    FrozenCfg V(C.Fn.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    PstStats S = computePstStats(V, T);
    TotalRegions += S.NumRegions;
    if (S.FullyStructured) {
      ++StructuredPerProgram[C.Program];
      ++TotalStructured;
    }
  }

  TableWriter T;
  T.setHeader({"suite", "program", "lines(paper)", "stmts(gen)",
               "procedures", "structured"});
  uint32_t Lines = 0, Procs = 0;
  for (const auto &P : paperCorpusSpec()) {
    T.addRow({P.Suite, P.Name, std::to_string(P.Lines),
              std::to_string(GenStmts[P.Name]),
              std::to_string(P.Procedures),
              std::to_string(StructuredPerProgram[P.Name])});
    Lines += P.Lines;
    Procs += P.Procedures;
  }
  T.addRow({"total", "", std::to_string(Lines), "",
            std::to_string(Procs), std::to_string(TotalStructured)});
  T.print(std::cout);

  std::cout << "\npaper: 21549 lines, 254 procedures, 182 fully structured, "
               "8609 SESE regions\n";
  std::cout << "here : " << Lines << " lines, " << Procs
            << " procedures, " << TotalStructured
            << " fully structured, " << TotalRegions << " SESE regions\n";
  return 0;
}
