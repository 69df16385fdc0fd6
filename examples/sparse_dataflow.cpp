//===- sparse_dataflow.cpp - QPG-based sparse dataflow ---------------------------===//
//
// Demonstrates Section 6.2: solving the availability of one expression via
// the quick propagation graph, which bypasses every SESE region whose
// transfer functions are all identity. Prints the CFG-vs-QPG sizes and
// cross-checks the sparse solution against the dense iterative one.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/lang/Lower.h"
#include "pst/support/TableWriter.h"

#include <iostream>

using namespace pst;

static const char *SourceText = R"(
func kernel(a, b, n) {
  var key = a + b;       # computes the tracked expression
  var i = 0;
  var acc = 0;
  while (i < n) {        # a large transparent region for 'a + b'
    var t = i * i;
    if (t % 3 == 0) { acc = acc + t; } else { acc = acc - 1; }
    i = i + 1;
  }
  var again = a + b;     # available here? (yes: no redefinition of a, b)
  b = 0;                 # kill
  var gone = a + b;      # recomputed after the kill
  return key + again + acc + gone;
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
  FrozenCfg V(F.Graph);
  ProgramStructureTree T = ProgramStructureTree::build(V);

  std::cout << "Expressions in '" << F.Name << "':\n";
  for (const std::string &K : expressionKeys(F))
    std::cout << "  " << K << "\n";

  const std::string Key = "(a + b)";
  BitVectorProblem P = makeSingleExprAvailability(F, Key);

  Qpg Q;
  EdgeSolution Sparse = solveOnQpg(V, T, P, &Q);
  std::cout << "\nTracking availability of \"" << Key << "\":\n";
  std::cout << "  CFG: " << F.Graph.numNodes() << " nodes, "
            << F.Graph.numEdges() << " edges\n";
  std::cout << "  QPG: " << Q.numNodes() << " nodes, " << Q.numEdges()
            << " edges ("
            << TableWriter::fmt(100.0 * Q.numNodes() / F.Graph.numNodes(), 0)
            << "% of the CFG)\n";

  std::cout << "\nQPG edges (each bypasses a maximal transparent region "
               "chain):\n";
  for (const Qpg::Edge &E : Q.Edges) {
    std::cout << "  " << F.Graph.nodeName(Q.Nodes[E.Src]) << " -> "
              << F.Graph.nodeName(Q.Nodes[E.Dst]);
    if (E.First != E.Last)
      std::cout << "   (bypasses from edge e" << E.First << " to e"
                << E.Last << ")";
    std::cout << "\n";
  }

  // Cross-check against the dense solution.
  EdgeSolution Dense = edgeView(V, solveIterative(V, P));
  uint32_t Mismatches = 0;
  for (EdgeId E = 0; E < F.Graph.numEdges(); ++E)
    Mismatches += !(Sparse.EdgeValue[E] == Dense.EdgeValue[E]);
  std::cout << "\nSparse vs dense solution: "
            << (Mismatches == 0 ? "identical on every CFG edge"
                                : "MISMATCH")
            << "\n";

  std::cout << "\nEdges where \"" << Key << "\" is available:\n";
  for (EdgeId E = 0; E < F.Graph.numEdges(); ++E)
    if (Sparse.EdgeValue[E].test(0))
      std::cout << "  " << F.Graph.nodeName(F.Graph.source(E)) << " -> "
                << F.Graph.nodeName(F.Graph.target(E)) << "\n";
  return 0;
}
