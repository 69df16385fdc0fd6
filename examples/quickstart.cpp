//===- quickstart.cpp - Smallest end-to-end PST example -------------------------===//
//
// Build a control flow graph by hand, compute its program structure tree,
// and inspect regions. This is the five-minute tour of the public API.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/CfgIO.h"

#include <iostream>

using namespace pst;

int main() {
  // A conditional followed by a loop:
  //
  //   start -> cond -> {then, else} -> join -> head <-> body, head -> end
  Cfg G;
  NodeId Start = G.addNode("start");
  NodeId Cond = G.addNode("cond");
  NodeId Then = G.addNode("then");
  NodeId Else = G.addNode("else");
  NodeId Join = G.addNode("join");
  NodeId Head = G.addNode("head");
  NodeId Body = G.addNode("body");
  NodeId End = G.addNode("end");
  G.addEdge(Start, Cond);
  G.addEdge(Cond, Then);
  G.addEdge(Cond, Else);
  G.addEdge(Then, Join);
  G.addEdge(Else, Join);
  G.addEdge(Join, Head);
  G.addEdge(Head, Body);
  G.addEdge(Body, Head);
  G.addEdge(Head, End);
  G.setEntry(Start);
  G.setExit(End);

  // Every analysis requires a valid two-terminal CFG (Definition 1).
  std::string Why;
  if (!validateCfg(G, &Why)) {
    std::cerr << "invalid CFG: " << Why << "\n";
    return 1;
  }

  // Analyses read a frozen, flat-array view of the graph; FrozenCfg owns
  // one. The PST: canonical single-entry single-exit regions, nested.
  FrozenCfg V(G);
  ProgramStructureTree T = ProgramStructureTree::build(V);
  std::cout << "The CFG has " << T.numCanonicalRegions()
            << " canonical SESE regions:\n\n";
  std::cout << formatPst(G, T) << "\n";

  // Per-node queries: which innermost region holds each node?
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    RegionId R = T.regionOfNode(N);
    std::cout << G.nodeName(N) << " lives in "
              << (R == T.root() ? std::string("the procedure root")
                                : "region " + std::to_string(R))
              << "\n";
  }

  // Region kinds drive algorithm specialization (Section 6 of the paper).
  // Every region's collapsed body comes out of one linear pass.
  std::cout << "\nRegion kinds:\n";
  BodyForest Bodies(V, T);
  for (RegionId R = 1; R < T.numRegions(); ++R)
    std::cout << "  region " << R << ": "
              << regionKindName(classifyRegion(Bodies.body(R))) << "\n";

  // Dump Graphviz for visual inspection.
  std::cout << "\nGraphviz of the CFG:\n";
  printDot(G, std::cout, "quickstart");
  return 0;
}
