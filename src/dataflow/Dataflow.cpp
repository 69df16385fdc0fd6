//===- Dataflow.cpp - Bitvector dataflow framework ------------------------------===//
//
// Part of the PST library (see Dataflow.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/dataflow/Dataflow.h"

#include "pst/core/RegionAnalysis.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>

using namespace pst;

namespace {

/// The one fixpoint loop: sweeps \p G in the order \p RPO (its reverse
/// postorder) until no OUT changes. IN of the entry is \p Boundary; IN of
/// any other node is the \p Meet of its predecessors' OUTs (the meet
/// identity when it has none); OUT of node n is IN through the gen/kill
/// function \p Transfer(n), or IN itself where that is null. Nodes
/// unreached from the entry keep the identity. Counts sweeps into
/// \p Passes.
template <class TransferT>
DataflowSolution solveFixpoint(const CfgView &G, std::span<const NodeId> RPO,
                               const BitVector &Boundary,
                               BitVectorProblem::MeetKind Meet,
                               TransferT Transfer, uint64_t &Passes) {
  bool IsUnion = Meet == BitVectorProblem::MeetKind::Union;
  BitVector Top(Boundary.size(), !IsUnion);
  auto Apply = [&](NodeId V, BitVector &X) {
    if (const GenKill *F = Transfer(V)) {
      X.subtract(F->Kill);
      X.unionWith(F->Gen);
    }
  };
  uint32_t N = G.numNodes();
  DataflowSolution S;
  S.In.assign(N, Top);
  S.Out.assign(N, Top);
  S.In[G.entry()] = Boundary;
  S.Out[G.entry()] = Boundary;
  Apply(G.entry(), S.Out[G.entry()]);

  BitVector Out; // Reused across nodes; swapped in when OUT changes.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (NodeId V : RPO) {
      if (V != G.entry()) {
        BitVector &In = S.In[V];
        std::span<const NodeId> Preds = G.predNodes(V);
        In = Preds.empty() ? Top : S.Out[Preds[0]];
        for (NodeId P : Preds.subspan(std::min<size_t>(1, Preds.size()))) {
          if (IsUnion)
            In.unionWith(S.Out[P]);
          else
            In.intersectWith(S.Out[P]);
        }
      }
      Out = S.In[V];
      Apply(V, Out);
      if (Out != S.Out[V]) {
        std::swap(Out, S.Out[V]);
        Changed = true;
      }
    }
  }
  return S;
}

/// Solves one collapsed region body, whose reverse postorder is \p RPO,
/// given the value on the region's entry edge: the fixpoint over the body
/// graph, whose Start carries \p EntryValue unchanged. ChildSummary
/// supplies gen/kill summaries for collapsed children. Returns IN/OUT per
/// body-graph node.
DataflowSolution solveBody(const CollapsedBody &B, std::span<const NodeId> RPO,
                           const BitVectorProblem &P,
                           const std::vector<GenKill> &ChildSummary,
                           const BitVector &EntryValue) {
  auto TransferQ = [&](NodeId Q) -> const GenKill * {
    if (Q >= B.numNodes())
      return nullptr; // Start and End pass the value through.
    return B.isRegion(Q) ? &ChildSummary[B.region(Q)] : &P.Transfer[B.node(Q)];
  };
  uint64_t Passes = 0;
  return solveFixpoint(B.Graph, RPO, EntryValue, P.Meet, TransferQ, Passes);
}

} // namespace

DataflowSolution pst::solveIterative(const CfgView &G,
                                     const BitVectorProblem &P) {
  PST_SPAN("dataflow.solve_iterative");
  uint64_t Passes = 0;
  DataflowSolution S = solveFixpoint(
      G, reversePostOrder(G), P.Boundary, P.Meet,
      [&](NodeId V) { return &P.Transfer[V]; }, Passes);
  PST_COUNTER("dataflow.iterative_solves", 1);
  PST_COUNTER("dataflow.iterative_passes", Passes);
  PST_VALUE("dataflow.passes_per_solve", Passes);
  return S;
}

DataflowSolution pst::solveElimination(const CfgView &G,
                                       const ProgramStructureTree &T,
                                       const BitVectorProblem &P) {
  PST_SPAN("dataflow.solve_elimination");
  PST_COUNTER("dataflow.elimination_solves", 1);
  uint32_t NumRegions = T.numRegions();

  // Collapsed bodies and their sweep orders, built once per region.
  BodyForest Bodies(G, T);
  std::vector<std::vector<NodeId>> BodyRPO(NumRegions);
  for (RegionId R = 0; R < NumRegions; ++R)
    BodyRPO[R] = reversePostOrder(Bodies.body(R).Graph);

  // Phase 1 (bottom-up): summarize each region's entry->exit behaviour as
  // gen/kill, probing the body with the empty and the full set. Per bit
  // the body function is const0, const1 or identity, so two probes pin it
  // down: f(x) = f(empty) | (x & f(full)). Region ids are a preorder, so
  // descending ids visit every child before its parent.
  std::vector<GenKill> Summary(NumRegions);
  BitVector Empty(P.NumBits, false), Full(P.NumBits, true);
  for (RegionId R = NumRegions - 1; R != T.root(); --R) {
    CollapsedBody B = Bodies.body(R);
    BitVector F0 = solveBody(B, BodyRPO[R], P, Summary, Empty).Out[B.ExitQ];
    BitVector F1 = solveBody(B, BodyRPO[R], P, Summary, Full).Out[B.ExitQ];
    Summary[R].Gen = F0;
    // Kill = ~f(full): bits that do not survive even when everything
    // enters. (x - Kill) == (x & f(full)).
    Summary[R].Kill = Full;
    Summary[R].Kill.subtract(F1);
  }

  // Phase 2 (top-down, ascending ids): concrete values. A child's entry
  // value is its quotient node's IN in the parent's concrete solve (a
  // child has exactly one external incoming edge: its entry edge).
  DataflowSolution S;
  S.In.assign(G.numNodes(), P.top());
  S.Out.assign(G.numNodes(), P.top());

  std::vector<BitVector> EntryValue(NumRegions, P.top());
  EntryValue[T.root()] = P.Boundary;
  for (RegionId R = 0; R < NumRegions; ++R) {
    CollapsedBody B = Bodies.body(R);
    DataflowSolution BS = solveBody(B, BodyRPO[R], P, Summary, EntryValue[R]);
    for (uint32_t Q = 0; Q < B.numNodes(); ++Q) {
      if (B.isRegion(Q)) {
        EntryValue[B.region(Q)] = BS.In[Q];
      } else {
        S.In[B.node(Q)] = BS.In[Q];
        S.Out[B.node(Q)] = BS.Out[Q];
      }
    }
  }
  return S;
}
