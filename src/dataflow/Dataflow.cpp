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

DataflowSolution pst::solveIterative(const CfgView &G,
                                     const BitVectorProblem &P) {
  PST_SPAN("dataflow.solve_iterative");
  uint32_t N = G.numNodes();
  DataflowSolution S;
  S.In.assign(N, P.top());
  S.Out.assign(N, P.top());
  S.In[G.entry()] = P.Boundary;
  S.Out[G.entry()] = P.apply(G.entry(), S.In[G.entry()]);

  std::vector<NodeId> RPO = reversePostOrder(G);
  bool Changed = true;
  uint64_t Passes = 0;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (NodeId V : RPO) {
      if (V != G.entry()) {
        BitVector In = P.top();
        bool First = true;
        for (EdgeId E : G.predEdges(V)) {
          const BitVector &PredOut = S.Out[G.source(E)];
          if (First) {
            In = PredOut;
            First = false;
          } else if (P.Meet == BitVectorProblem::MeetKind::Union) {
            In.unionWith(PredOut);
          } else {
            In.intersectWith(PredOut);
          }
        }
        S.In[V] = std::move(In);
      }
      BitVector Out = P.apply(V, S.In[V]);
      if (Out != S.Out[V]) {
        S.Out[V] = std::move(Out);
        Changed = true;
      }
    }
  }
  PST_COUNTER("dataflow.iterative_solves", 1);
  PST_COUNTER("dataflow.iterative_passes", Passes);
  PST_VALUE("dataflow.passes_per_solve", Passes);
  return S;
}

namespace {

/// Iteratively solves one collapsed region body given the value on the
/// region's entry edge. ChildSummary supplies gen/kill summaries for
/// collapsed children. Returns IN/OUT per quotient node.
struct BodySolution {
  std::vector<BitVector> In, Out;
};

BodySolution solveBody(const CollapsedBody &B, const BitVectorProblem &P,
                       const std::vector<GenKill> &ChildSummary,
                       const BitVector &EntryValue) {
  uint32_t N = B.numNodes();
  std::vector<std::vector<uint32_t>> PredEdges(N);
  for (uint32_t I = 0; I < B.Edges.size(); ++I)
    PredEdges[B.Edges[I].Dst].push_back(B.Edges[I].Src);

  auto ApplyQ = [&](uint32_t Q, const BitVector &In) {
    const auto &Node = B.Nodes[Q];
    BitVector Out = In;
    const GenKill &T = Node.IsRegion
                           ? ChildSummary[Node.Region]
                           : P.Transfer[Node.Node];
    Out.subtract(T.Kill);
    Out.unionWith(T.Gen);
    return Out;
  };

  BodySolution S;
  S.In.assign(N, P.top());
  S.Out.assign(N, P.top());

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Q = 0; Q < N; ++Q) {
      BitVector In = P.top();
      bool First = true;
      auto Meet = [&](const BitVector &X) {
        if (First) {
          In = X;
          First = false;
        } else if (P.Meet == BitVectorProblem::MeetKind::Union) {
          In.unionWith(X);
        } else {
          In.intersectWith(X);
        }
      };
      if (Q == B.EntryQ)
        Meet(EntryValue); // The region's entry edge contribution.
      for (uint32_t PredQ : PredEdges[Q])
        Meet(S.Out[PredQ]);
      S.In[Q] = std::move(In);
      BitVector Out = ApplyQ(Q, S.In[Q]);
      if (Out != S.Out[Q]) {
        S.Out[Q] = std::move(Out);
        Changed = true;
      }
    }
  }
  return S;
}

} // namespace

DataflowSolution pst::solveElimination(const CfgView &G,
                                       const ProgramStructureTree &T,
                                       const BitVectorProblem &P) {
  PST_SPAN("dataflow.solve_elimination");
  PST_COUNTER("dataflow.elimination_solves", 1);
  uint32_t NumRegions = T.numRegions();

  // Collapsed bodies, built once per region.
  std::vector<CollapsedBody> Bodies(NumRegions);
  for (RegionId R = 0; R < NumRegions; ++R)
    Bodies[R] = collapseRegion(G, T, R);

  // Regions in bottom-up (children before parents) order: depths descend.
  std::vector<RegionId> Order(NumRegions);
  for (RegionId R = 0; R < NumRegions; ++R)
    Order[R] = R;
  std::sort(Order.begin(), Order.end(), [&](RegionId A, RegionId B) {
    return T.region(A).Depth > T.region(B).Depth;
  });

  // Phase 1 (bottom-up): summarize each region's entry->exit behaviour as
  // gen/kill, probing the body with the empty and the full set. Per bit
  // the body function is const0, const1 or identity, so two probes pin it
  // down: f(x) = f(empty) | (x & f(full)).
  std::vector<GenKill> Summary(NumRegions);
  BitVector Empty(P.NumBits, false), Full(P.NumBits, true);
  for (RegionId R : Order) {
    if (R == T.root())
      continue;
    const CollapsedBody &B = Bodies[R];
    BitVector F0 = solveBody(B, P, Summary, Empty).Out[B.ExitQ];
    BitVector F1 = solveBody(B, P, Summary, Full).Out[B.ExitQ];
    Summary[R].Gen = F0;
    // Kill = ~f(full): bits that do not survive even when everything
    // enters. (x - Kill) == (x & f(full)).
    Summary[R].Kill = Full;
    Summary[R].Kill.subtract(F1);
  }

  // Phase 2 (top-down): concrete values. A child's entry value is its
  // quotient node's IN in the parent's concrete solve (a child has exactly
  // one external incoming edge: its entry edge).
  DataflowSolution S;
  S.In.assign(G.numNodes(), P.top());
  S.Out.assign(G.numNodes(), P.top());

  std::vector<BitVector> EntryValue(NumRegions, P.top());
  EntryValue[T.root()] = P.Boundary;
  // Top-down = reverse of bottom-up order.
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    RegionId R = *It;
    const CollapsedBody &B = Bodies[R];
    BodySolution BS = solveBody(B, P, Summary, EntryValue[R]);
    for (uint32_t Q = 0; Q < B.numNodes(); ++Q) {
      const auto &Node = B.Nodes[Q];
      if (Node.IsRegion) {
        EntryValue[Node.Region] = BS.In[Q];
      } else {
        S.In[Node.Node] = BS.In[Q];
        S.Out[Node.Node] = BS.Out[Q];
      }
    }
  }
  return S;
}
