//===- CycleEquiv.cpp - Linear cycle equivalence ---------------------------===//
//
// Part of the PST library (see CycleEquiv.h for the project reference).
//
// Implements the pseudocode of the paper's Figure 4 with these concrete
// choices:
//  * The DFS is iterative, so deep graphs cannot overflow the call stack.
//  * Bracket lists are intrusive doubly-linked cells in one arena; concat
//    is an O(1) splice; delete is O(1) via a back-pointer on each bracket.
//  * Self loops cannot bracket anything (the cycle they form contains only
//    themselves), so each gets a fresh singleton class and is excluded from
//    the undirected DFS.
//  * Nodes are processed in reverse DFS preorder, which visits every child
//    before its parent.
//  * Every per-node incidence structure (adjacency, tree children, backedge
//    push/delete sites) is a CSR offset/value array built in two counting
//    passes over the edges, and all working memory lives in a
//    CycleEquivScratch. The corpus this library targets is dominated by
//    tiny procedures (the paper's Table 1 median), where per-node
//    std::vector buckets cost more in allocator traffic than the algorithm
//    itself; with the scratch warm, a run allocates nothing but its result.
//  * The solver is a template over an *endpoint policy*, so the same
//    Figure-4 sweep serves both graph encodings with zero duplication: a
//    frozen CfgView CSR plus the implicit return edge, and the arithmetic
//    node expansion T(S) of the control-region construction. Both write
//    the undirected adjacency straight from the shared CSR segments (each
//    node's incident edges are the ascending-id merge of its succ and pred
//    segments), so no counting pass over an endpoint list is needed.
//
//===----------------------------------------------------------------------===//

#include "pst/cycleequiv/CycleEquiv.h"

#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <limits>

using namespace pst;

namespace {

constexpr uint32_t None = ~uint32_t(0);

// -- Endpoint policies -----------------------------------------------------
// The solver only ever asks one question about the graph beyond its
// adjacency: "what are the two endpoints of undirected edge E". Each policy
// answers it for one encoding; all are a couple of loads (or pure
// arithmetic), so the template keeps the inner loops branch-predictable
// without virtual dispatch.

/// CFG edges from a CfgView's flat endpoint arrays, plus the implicit
/// trailing return edge (id == NumCfgEdges).
struct ViewEndpoints {
  const NodeId *Src;
  const NodeId *Dst;
  uint32_t NumCfgEdges;
  NodeId RetSrc, RetDst;
  NodeId a(uint32_t E) const { return E < NumCfgEdges ? Src[E] : RetSrc; }
  NodeId b(uint32_t E) const { return E < NumCfgEdges ? Dst[E] : RetDst; }
};

/// The implicitly node-expanded graph T(S) of the control-region
/// construction: node V splits into V_in = 2V / V_out = 2V+1 joined by
/// representative edge id V; original edge E becomes id N+E from
/// 2*src(E)+1 to 2*dst(E); the return edge id N+NumCfgEdges closes
/// 2*exit+1 -> 2*entry. Endpoints are pure arithmetic over the view.
struct TsEndpoints {
  const NodeId *Src;
  const NodeId *Dst;
  uint32_t N;
  uint32_t NumCfgEdges;
  NodeId Entry, Exit;
  NodeId a(uint32_t X) const {
    if (X < N)
      return 2 * X;
    if (X < N + NumCfgEdges)
      return 2 * Src[X - N] + 1;
    return 2 * Exit + 1;
  }
  NodeId b(uint32_t X) const {
    if (X < N)
      return 2 * X + 1;
    if (X < N + NumCfgEdges)
      return 2 * Dst[X - N];
    return 2 * Entry;
  }
};

/// The Figure-4 solver, operating entirely on arrays owned by a
/// CycleEquivScratch.
///
/// Edge records (scratch \c Rec* arrays, indexed by record id) describe one
/// undirected edge each: a real CFG edge (ids [0, NumRealEdges)), or a
/// capping backedge created by the algorithm (appended past NumRealEdges).
/// Per record: the assigned class, the bracket-list size/class from the
/// most recent time it was the topmost bracket (size 0 = never; real sizes
/// are >= 1), and the arena cell currently holding it in some bracket list.
/// Bracket lists are doubly-linked cells (\c Cell* arrays) with one
/// head/tail/size triple per node (\c List* arrays).
template <class EndpointsT> class CycleEquivSolver {
public:
  CycleEquivSolver(uint32_t NumNodes, NodeId Root, uint32_t NumRealEdges,
                   EndpointsT Ep, CycleEquivScratch &S)
      : Nodes(NumNodes), Root(Root), S(S), NumRealEdges(NumRealEdges),
        Ep(Ep) {}

  /// Runs the algorithm. The caller has already written
  /// S.AdjOff/AdjEdge/AdjOther and S.SelfLoops straight from the view's
  /// CSR (\c buildViewAdjacency / \c buildTsAdjacency).
  CycleEquivResult run();

private:
  // -- Bracket list primitives (all O(1)) --------------------------------
  uint32_t newCell(uint32_t RecId) {
    uint32_t C = static_cast<uint32_t>(S.CellRec.size());
    S.CellRec.push_back(RecId);
    S.CellPrev.push_back(None);
    S.CellNext.push_back(None);
    return C;
  }

  void push(NodeId L, uint32_t RecId) {
    uint32_t C = newCell(RecId);
    S.CellNext[C] = S.ListHead[L];
    if (S.ListHead[L] != None)
      S.CellPrev[S.ListHead[L]] = C;
    S.ListHead[L] = C;
    if (S.ListTail[L] == None)
      S.ListTail[L] = C;
    ++S.ListSize[L];
    S.RecCell[RecId] = C;
  }

  void erase(NodeId L, uint32_t RecId) {
    uint32_t C = S.RecCell[RecId];
    assert(C != None && "bracket not on any list");
    uint32_t P = S.CellPrev[C], N = S.CellNext[C];
    if (P != None)
      S.CellNext[P] = N;
    else
      S.ListHead[L] = N;
    if (N != None)
      S.CellPrev[N] = P;
    else
      S.ListTail[L] = P;
    --S.ListSize[L];
    S.RecCell[RecId] = None;
  }

  /// Splices \p Src's list in front of \p Dst's, emptying \p Src.
  void concatInto(NodeId Dst, NodeId Src) {
    if (S.ListHead[Src] == None)
      return;
    if (S.ListHead[Dst] == None) {
      S.ListHead[Dst] = S.ListHead[Src];
      S.ListTail[Dst] = S.ListTail[Src];
      S.ListSize[Dst] = S.ListSize[Src];
    } else {
      S.CellNext[S.ListTail[Src]] = S.ListHead[Dst];
      S.CellPrev[S.ListHead[Dst]] = S.ListTail[Src];
      S.ListHead[Dst] = S.ListHead[Src];
      S.ListSize[Dst] += S.ListSize[Src];
    }
    S.ListHead[Src] = None;
    S.ListTail[Src] = None;
    S.ListSize[Src] = 0;
  }

  uint32_t newClass() { return NextClass++; }

  /// Prefix sum over a CSR count array (Off[v+1] holds v's count on entry
  /// and the end of v's range on exit, with Off[0] = 0) and cursor
  /// initialization.
  void finishOffsets(std::vector<uint32_t> &Off) {
    for (size_t I = 1; I < Off.size(); ++I)
      Off[I] += Off[I - 1];
    S.Cursor.assign(Off.begin(), Off.end() - 1);
  }

  // -- Phases -------------------------------------------------------------
  void undirectedDfs(NodeId DfsRoot);
  void classifyEdges();
  void processNodes();

  NodeId endpointA(uint32_t E) const { return Ep.a(E); }
  NodeId endpointB(uint32_t E) const { return Ep.b(E); }
  uint32_t numNodes() const { return Nodes; }

  uint32_t Nodes;
  NodeId Root;
  CycleEquivScratch &S;
  uint32_t NumRealEdges;
  EndpointsT Ep;
  uint32_t NextClass = 0;
};

template <class EndpointsT>
void CycleEquivSolver<EndpointsT>::undirectedDfs(NodeId DfsRoot) {
  uint32_t N = numNodes();
  S.DfsNum.assign(N, None);
  S.ParentEdge.assign(N, None);
  S.EdgeUsed.assign(NumRealEdges, 0);
  S.Order.clear();
  S.Order.reserve(N);
  S.Stack.clear();

  S.DfsNum[DfsRoot] = 0;
  S.Order.push_back(DfsRoot);
  S.Stack.emplace_back(DfsRoot, S.AdjOff[DfsRoot]);
  while (!S.Stack.empty()) {
    auto &[V, Next] = S.Stack.back();
    if (Next == S.AdjOff[V + 1]) {
      S.Stack.pop_back();
      continue;
    }
    uint32_t I = Next++;
    uint32_t E = S.AdjEdge[I];
    NodeId W = S.AdjOther[I];
    if (S.EdgeUsed[E])
      continue;
    if (S.DfsNum[W] != None)
      continue; // Non-tree edge; classified later.
    S.EdgeUsed[E] = 1;
    S.DfsNum[W] = static_cast<uint32_t>(S.Order.size());
    S.Order.push_back(W);
    S.ParentEdge[W] = E;
    S.Stack.emplace_back(W, S.AdjOff[W]);
  }

  // Tree children as CSR: count per parent, then fill in preorder (the
  // same per-parent order the bucket version produced).
  S.ChildOff.assign(N + 1, 0);
  for (NodeId V : S.Order) {
    if (S.ParentEdge[V] == None)
      continue;
    uint32_t E = S.ParentEdge[V];
    NodeId P = endpointA(E) == V ? endpointB(E) : endpointA(E);
    ++S.ChildOff[P + 1];
  }
  finishOffsets(S.ChildOff);
  S.ChildVal.resize(S.ChildOff[N]);
  for (NodeId V : S.Order) {
    if (S.ParentEdge[V] == None)
      continue;
    uint32_t E = S.ParentEdge[V];
    NodeId P = endpointA(E) == V ? endpointB(E) : endpointA(E);
    S.ChildVal[S.Cursor[P]++] = V;
  }
}

template <class EndpointsT>
void CycleEquivSolver<EndpointsT>::classifyEdges() {
  uint32_t N = numNodes();
  // Backedge incidence as two CSR arrays: by descendant endpoint (push
  // site) and by ancestor endpoint (delete site). Two counting passes over
  // the edges; the skip conditions must match exactly.
  auto ForEachBackedge = [&](auto &&Fn) {
    for (uint32_t E = 0; E < NumRealEdges; ++E) {
      NodeId A = endpointA(E), B = endpointB(E);
      if (A == B)
        continue; // Self loop.
      if (S.DfsNum[A] == None || S.DfsNum[B] == None)
        continue; // Disconnected input (documented precondition violation).
      if (S.ParentEdge[A] == E || S.ParentEdge[B] == E)
        continue; // Tree edge.
      // In an undirected DFS every non-tree edge joins a node to an
      // ancestor.
      NodeId Desc = S.DfsNum[A] > S.DfsNum[B] ? A : B;
      NodeId Anc = Desc == A ? B : A;
      Fn(E, Desc, Anc);
    }
  };

  S.BackFromOff.assign(N + 1, 0);
  S.BackToOff.assign(N + 1, 0);
  ForEachBackedge([&](uint32_t, NodeId Desc, NodeId Anc) {
    ++S.BackFromOff[Desc + 1];
    ++S.BackToOff[Anc + 1];
  });
  finishOffsets(S.BackFromOff);
  S.BackFromVal.resize(S.BackFromOff[N]);
  ForEachBackedge([&](uint32_t E, NodeId Desc, NodeId) {
    S.BackFromVal[S.Cursor[Desc]++] = E;
  });
  finishOffsets(S.BackToOff);
  S.BackToVal.resize(S.BackToOff[N]);
  ForEachBackedge([&](uint32_t E, NodeId, NodeId Anc) {
    S.BackToVal[S.Cursor[Anc]++] = E;
  });
}

template <class EndpointsT>
void CycleEquivSolver<EndpointsT>::processNodes() {
  uint32_t N = numNodes();
  constexpr uint32_t Inf = std::numeric_limits<uint32_t>::max();
  S.Hi.assign(N, Inf);
  S.ListHead.assign(N, None);
  S.ListTail.assign(N, None);
  S.ListSize.assign(N, 0);
  S.CapHead.assign(N, None);
  S.CapNext.clear();

  // At most one capping backedge per node can be created, and one arena
  // cell per (real or capping) bracket push; reserving the worst case up
  // front keeps the push_backs below allocation-free.
  S.RecClass.assign(NumRealEdges, UndefinedClass);
  S.RecRecentSize.assign(NumRealEdges, 0);
  S.RecRecentClass.assign(NumRealEdges, UndefinedClass);
  S.RecCell.assign(NumRealEdges, None);
  S.RecClass.reserve(NumRealEdges + N);
  S.RecRecentSize.reserve(NumRealEdges + N);
  S.RecRecentClass.reserve(NumRealEdges + N);
  S.RecCell.reserve(NumRealEdges + N);
  S.CapNext.reserve(N);
  S.CellRec.clear();
  S.CellPrev.clear();
  S.CellNext.clear();
  S.CellRec.reserve(NumRealEdges + N);
  S.CellPrev.reserve(NumRealEdges + N);
  S.CellNext.reserve(NumRealEdges + N);

  // Reverse preorder visits children before parents.
  for (auto It = S.Order.rbegin(); It != S.Order.rend(); ++It) {
    NodeId V = *It;

    // hi0: highest (smallest dfsnum) destination of a backedge from V.
    uint32_t Hi0 = Inf;
    for (uint32_t I = S.BackFromOff[V]; I < S.BackFromOff[V + 1]; ++I) {
      uint32_t E = S.BackFromVal[I];
      NodeId Anc = S.DfsNum[endpointA(E)] < S.DfsNum[endpointB(E)]
                       ? endpointA(E)
                       : endpointB(E);
      Hi0 = std::min(Hi0, S.DfsNum[Anc]);
    }
    // hi1/hi2: highest and second-highest reach among the children.
    uint32_t Hi1 = Inf, Hi2 = Inf;
    for (uint32_t I = S.ChildOff[V]; I < S.ChildOff[V + 1]; ++I) {
      uint32_t H = S.Hi[S.ChildVal[I]];
      if (H < Hi1) {
        Hi2 = Hi1;
        Hi1 = H;
      } else if (H < Hi2) {
        Hi2 = H;
      }
    }
    S.Hi[V] = std::min(Hi0, Hi1);

    // Assemble V's bracket list from the children's lists.
    for (uint32_t I = S.ChildOff[V]; I < S.ChildOff[V + 1]; ++I)
      concatInto(V, S.ChildVal[I]);

    // Delete capping backedges ending here.
    for (uint32_t D = S.CapHead[V]; D != None;
         D = S.CapNext[D - NumRealEdges])
      erase(V, D);
    // Delete ordinary backedges ending here; a backedge that was never a
    // topmost bracket still needs a class of its own.
    for (uint32_t I = S.BackToOff[V]; I < S.BackToOff[V + 1]; ++I) {
      uint32_t B = S.BackToVal[I];
      erase(V, B);
      if (S.RecClass[B] == UndefinedClass)
        S.RecClass[B] = newClass();
    }
    // Push backedges leaving V toward ancestors.
    for (uint32_t I = S.BackFromOff[V]; I < S.BackFromOff[V + 1]; ++I)
      push(V, S.BackFromVal[I]);

    // Insert a capping backedge when brackets from two subtrees both out-
    // live V: it masks the mixed prefix up to the second-highest reach.
    // The guard Hi2 < DfsNum[V] is a necessary correction to the paper's
    // Figure 4 (which only tests hi2 < hi0): when the second-highest child
    // reach is V itself or deeper, those brackets die at or below V, no
    // masking is needed, and a capping edge could never be deleted.
    if (Hi2 < Hi0 && Hi2 < S.DfsNum[V]) {
      uint32_t D = static_cast<uint32_t>(S.RecClass.size());
      S.RecClass.push_back(UndefinedClass);
      S.RecRecentSize.push_back(0);
      S.RecRecentClass.push_back(UndefinedClass);
      S.RecCell.push_back(None);
      push(V, D);
      NodeId AncNode = S.Order[Hi2]; // A proper ancestor, by the guard.
      S.CapNext.push_back(S.CapHead[AncNode]);
      S.CapHead[AncNode] = D;
    }

    // Name the equivalence class of the tree edge into V.
    uint32_t PE = S.ParentEdge[V];
    if (PE == None)
      continue; // DFS root.
    if (S.ListSize[V] == 0) {
      // Bridge edge: only possible if the input was not strongly
      // connected. Give it a class so callers still get a partition.
      S.RecClass[PE] = newClass();
      continue;
    }
    uint32_t Top = S.CellRec[S.ListHead[V]];
    if (S.RecRecentSize[Top] != S.ListSize[V]) {
      S.RecRecentSize[Top] = S.ListSize[V];
      S.RecRecentClass[Top] = newClass();
    }
    S.RecClass[PE] = S.RecRecentClass[Top];
    // A tree edge with exactly one bracket is cycle equivalent to it
    // (Theorem 4).
    if (S.RecRecentSize[Top] == 1)
      S.RecClass[Top] = S.RecClass[PE];
  }
}

template <class EndpointsT>
CycleEquivResult CycleEquivSolver<EndpointsT>::run() {
  PST_SPAN("cycleequiv.run");
  CycleEquivResult R;
  if (numNodes() == 0) {
    R.EdgeClass.assign(NumRealEdges, UndefinedClass);
    return R;
  }

  {
    // The undirected DFS phase: the DFS itself and the backedge
    // push/delete-site classification it feeds.
    PST_SPAN("cycleequiv.dfs");
    undirectedDfs(Root < numNodes() ? Root : 0);
    classifyEdges();
  }
  {
    // The bracket-set phase (the Figure-4 reverse-preorder sweep).
    PST_SPAN("cycleequiv.brackets");
    processNodes();
  }
  PST_COUNTER("cycleequiv.runs", 1);
  PST_COUNTER("cycleequiv.nodes", numNodes());
  PST_COUNTER("cycleequiv.edges", NumRealEdges);
  PST_COUNTER("cycleequiv.capping_backedges",
              S.RecClass.size() - NumRealEdges);

  R.EdgeClass.assign(NumRealEdges, UndefinedClass);
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    R.EdgeClass[E] = S.RecClass[E];
  for (uint32_t E : S.SelfLoops)
    R.EdgeClass[E] = NextClass++;
  // Defensive: edges of a disconnected component never got processed.
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    if (R.EdgeClass[E] == UndefinedClass)
      R.EdgeClass[E] = NextClass++;
  R.NumClasses = NextClass;
  PST_COUNTER("cycleequiv.classes", R.NumClasses);
  return R;
}

/// Writes the undirected incidence CSR for G + (exit -> entry) straight
/// from the view's succ/pred CSR. Each node's incident real edges are the
/// ascending-edge-id merge of its succ and pred segments, with self loops
/// skipped
/// (collected in global edge order into S.SelfLoops) and the return edge,
/// whose id is the largest, appended at entry and exit. One pass over the
/// nodes, no counting pass, no cursor array.
void buildViewAdjacency(const CfgView &V, bool AddReturnEdge,
                        CycleEquivScratch &S) {
  const uint32_t N = V.numNodes();
  const uint32_t E = V.numEdges();
  const uint32_t RetId = E;
  const NodeId *Src = V.edgeSrc();
  const NodeId *Dst = V.edgeDst();

  S.SelfLoops.clear();
  for (uint32_t I = 0; I < E; ++I)
    if (Src[I] == Dst[I])
      S.SelfLoops.push_back(I);
  bool RetIsSelfLoop = AddReturnEdge && V.entry() == V.exit();
  if (RetIsSelfLoop)
    S.SelfLoops.push_back(RetId);

  S.AdjOff.resize(N + 1);
  uint32_t UpperBound = 2 * E + (AddReturnEdge ? 2 : 0);
  S.AdjEdge.resize(UpperBound);
  S.AdjOther.resize(UpperBound);
  uint32_t W = 0;
  for (NodeId Node = 0; Node < N; ++Node) {
    S.AdjOff[Node] = W;
    auto SuccE = V.succEdges(Node);
    auto SuccN = V.succNodes(Node);
    auto PredE = V.predEdges(Node);
    auto PredN = V.predNodes(Node);
    size_t I = 0, J = 0;
    while (I < SuccE.size() || J < PredE.size()) {
      bool TakeSucc =
          J == PredE.size() || (I < SuccE.size() && SuccE[I] < PredE[J]);
      if (TakeSucc) {
        if (SuccN[I] != Node) {
          S.AdjEdge[W] = SuccE[I];
          S.AdjOther[W] = SuccN[I];
          ++W;
        }
        ++I;
      } else {
        if (PredN[J] != Node) {
          S.AdjEdge[W] = PredE[J];
          S.AdjOther[W] = PredN[J];
          ++W;
        }
        ++J;
      }
    }
    if (AddReturnEdge && !RetIsSelfLoop) {
      if (Node == V.entry()) {
        S.AdjEdge[W] = RetId;
        S.AdjOther[W] = V.exit();
        ++W;
      } else if (Node == V.exit()) {
        S.AdjEdge[W] = RetId;
        S.AdjOther[W] = V.entry();
        ++W;
      }
    }
  }
  S.AdjOff[N] = W;
}

/// Writes the undirected incidence CSR for T(S) directly from the view.
/// T(S) has no self loops, and every per-node incidence list comes out in
/// ascending edge id by construction: representative edge V (< N), then
/// the node's original-edge segment shifted by N (pred edges at V_in, succ
/// edges at V_out; both segments are already ascending), then the return
/// edge (the largest id) at the entry's V_in / exit's V_out.
void buildTsAdjacency(const CfgView &V, CycleEquivScratch &S) {
  const uint32_t N = V.numNodes();
  const uint32_t E = V.numEdges();
  const uint32_t RetId = N + E;

  S.SelfLoops.clear();
  S.AdjOff.resize(2 * N + 1);
  uint32_t Total = 2 * (N + E + 1);
  S.AdjEdge.resize(Total);
  S.AdjOther.resize(Total);
  uint32_t W = 0;
  for (NodeId Node = 0; Node < N; ++Node) {
    // V_in = 2*Node.
    S.AdjOff[2 * Node] = W;
    S.AdjEdge[W] = Node;
    S.AdjOther[W] = 2 * Node + 1;
    ++W;
    auto PredE = V.predEdges(Node);
    auto PredN = V.predNodes(Node);
    for (size_t J = 0; J < PredE.size(); ++J) {
      S.AdjEdge[W] = N + PredE[J];
      S.AdjOther[W] = 2 * PredN[J] + 1;
      ++W;
    }
    if (Node == V.entry()) {
      S.AdjEdge[W] = RetId;
      S.AdjOther[W] = 2 * V.exit() + 1;
      ++W;
    }
    // V_out = 2*Node+1.
    S.AdjOff[2 * Node + 1] = W;
    S.AdjEdge[W] = Node;
    S.AdjOther[W] = 2 * Node;
    ++W;
    auto SuccE = V.succEdges(Node);
    auto SuccN = V.succNodes(Node);
    for (size_t I = 0; I < SuccE.size(); ++I) {
      S.AdjEdge[W] = N + SuccE[I];
      S.AdjOther[W] = 2 * SuccN[I];
      ++W;
    }
    if (Node == V.exit()) {
      S.AdjEdge[W] = RetId;
      S.AdjOther[W] = 2 * V.entry();
      ++W;
    }
  }
  S.AdjOff[2 * N] = W;
}

} // namespace

CycleEquivResult pst::computeCycleEquivalence(const CfgView &V,
                                              bool AddReturnEdge,
                                              CycleEquivScratch &Scratch) {
  buildViewAdjacency(V, AddReturnEdge, Scratch);
  ViewEndpoints Ep{V.edgeSrc(), V.edgeDst(), V.numEdges(), V.exit(),
                   V.entry()};
  uint32_t NumReal = V.numEdges() + (AddReturnEdge ? 1 : 0);
  NodeId Root = V.entry() != InvalidNode ? V.entry() : 0;
  CycleEquivSolver<ViewEndpoints> Solver(V.numNodes(), Root, NumReal, Ep,
                                         Scratch);
  CycleEquivResult R = Solver.run();
  R.HasReturnEdge = AddReturnEdge;
  return R;
}

CycleEquivResult pst::computeCycleEquivalenceTs(const CfgView &V,
                                                CycleEquivScratch &Scratch) {
  buildTsAdjacency(V, Scratch);
  TsEndpoints Ep{V.edgeSrc(), V.edgeDst(), V.numNodes(), V.numEdges(),
                 V.entry(), V.exit()};
  uint32_t NumReal = V.numNodes() + V.numEdges() + 1;
  CycleEquivSolver<TsEndpoints> Solver(2 * V.numNodes(), 2 * V.entry(),
                                       NumReal, Ep, Scratch);
  return Solver.run();
}

CycleEquivResult pst::computeCycleEquivalence(const CfgView &V,
                                              bool AddReturnEdge) {
  CycleEquivScratch Scratch;
  return computeCycleEquivalence(V, AddReturnEdge, Scratch);
}
