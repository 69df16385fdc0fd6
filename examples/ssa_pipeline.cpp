//===- ssa_pipeline.cpp - SSA construction, two ways ------------------------------===//
//
// Compiles a MiniLang function and builds SSA form twice: with classic
// iterated dominance frontiers and with the paper's PST-based
// divide-and-conquer phi placement (Section 6.1). Shows that both agree
// and how much of the PST the sparse placement actually touched.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/lang/Lower.h"
#include "pst/ssa/SsaBuilder.h"
#include "pst/support/TableWriter.h"

#include <iostream>

using namespace pst;

static const char *SourceText = R"(
func accumulate(n) {
  var i = 0;
  var even = 0;
  var odd = 0;
  while (i < n) {
    if (i % 2 == 0) {
      even = even + i;
    } else {
      odd = odd + i;
    }
    i = i + 1;
  }
  var total = even + odd;
  return total;
}
)";

int main() {
  std::vector<Diagnostic> Diags;
  auto Fns = compile(SourceText, &Diags);
  if (!Fns) {
    for (const Diagnostic &D : Diags)
      std::cerr << D.str() << "\n";
    return 1;
  }
  const LoweredFunction &F = (*Fns)[0];
  FrozenCfg FV(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(FV);

  PhiPlacement Classic = placePhisClassic(F, FV);
  PhiPlacement Sparse = placePhisPst(F, FV, T);

  std::cout << "Phi placement per variable (Theorem 9: both strategies "
               "agree):\n\n";
  TableWriter W;
  W.setHeader({"variable", "phi blocks", "regions examined (PST)",
               "of total"});
  for (VarId V = 0; V < F.numVars(); ++V) {
    std::string Blocks;
    for (NodeId B : Sparse.PhiBlocks[V])
      Blocks += (Blocks.empty() ? "" : " ") + F.Graph.nodeName(B);
    if (Classic.PhiBlocks[V] != Sparse.PhiBlocks[V])
      Blocks += "  (MISMATCH!)";
    W.addRow({F.VarNames[V], Blocks.empty() ? "-" : Blocks,
              std::to_string(Sparse.RegionsExamined[V]),
              std::to_string(Sparse.RegionsTotal)});
  }
  W.print(std::cout);

  SsaForm S = buildSsa(F, Sparse);
  std::string Why;
  if (!verifySsa(F, S, &Why)) {
    std::cerr << "SSA verification failed: " << Why << "\n";
    return 1;
  }
  std::cout << "\nSSA form (" << S.numPhis() << " phi functions, verified):\n\n"
            << formatSsa(F, S);
  return 0;
}
