//===- structure_report.cpp - Analyze a MiniLang program ------------------------===//
//
// Compiles MiniLang source (a file named on the command line, or a built-in
// demo program) and prints, per function: the lowered block-level CFG, the
// program structure tree with region kinds, the structure metrics of the
// paper's Section 4, and the control regions of Section 5.
//
// Usage: structure_report [source.mini]
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/core/StructureMetrics.h"
#include "pst/lang/Lower.h"
#include "pst/support/TableWriter.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace pst;

static const char *DemoProgram = R"(
# A demo procedure: a guarded setup conditional, a scan loop with an
# early exit, and a summary switch.
func demo(n, bias) {
  var sum = 0;
  var i = 0;
  var kind = 0;
  if (bias > 0) { sum = bias; } else { sum = -bias; }
  while (i < n) {
    if (sum > 1000) { break; }
    sum = sum + i * i;
    i = i + 1;
  }
  switch (sum % 3) {
    case 0: kind = 10;
    case 1: kind = 20;
    default: kind = 30;
  }
  return sum + kind;
}
)";

int main(int Argc, char **Argv) {
  std::string Source;
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::cerr << "error: cannot open '" << Argv[1] << "'\n";
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  } else {
    Source = DemoProgram;
    std::cout << "(no input file given; analyzing the built-in demo)\n";
  }

  std::vector<Diagnostic> Diags;
  auto Fns = compile(Source, &Diags);
  if (!Fns) {
    for (const Diagnostic &D : Diags)
      std::cerr << D.str() << "\n";
    return 1;
  }

  for (const LoweredFunction &F : *Fns) {
    std::cout << "\n================ " << F.Name << " ================\n\n";
    std::cout << formatLowered(F) << "\n";

    FrozenCfg V(F.Graph);
    ProgramStructureTree T = ProgramStructureTree::build(V);
    std::cout << "Program structure tree:\n" << formatPst(F.Graph, T);

    PstStats S = computePstStats(V, T);
    std::cout << "\nStructure metrics: " << S.NumRegions << " regions, max "
              << "depth " << S.MaxDepth << ", average depth "
              << TableWriter::fmt(S.AvgDepth, 2) << ", max region size "
              << S.MaxRegionSize << ", "
              << (S.FullyStructured ? "fully structured"
                                    : "contains unstructured regions")
              << "\n";

    ControlRegionsResult CR = computeControlRegionsLinear(V);
    std::cout << "\nControl regions (nodes that execute under identical "
                 "control conditions):\n";
    for (uint32_t C = 0; C < CR.NumClasses; ++C) {
      std::cout << "  {";
      bool First = true;
      for (NodeId N = 0; N < F.Graph.numNodes(); ++N) {
        if (CR.NodeClass[N] != C)
          continue;
        std::cout << (First ? "" : ", ") << F.Graph.nodeName(N);
        First = false;
      }
      std::cout << "}\n";
    }
  }
  return 0;
}
