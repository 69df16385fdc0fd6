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
//  * The solver reads its graph from the scratch, so one Figure-4 sweep
//    serves both encodings: a frozen CfgView plus the implicit return
//    edge, and the partial node expansion of S that yields edge and node
//    classes in one run. One builder writes either straight from the
//    shared CSR segments (each node's incident edges are the ascending-id
//    merge of its succ and pred segments), with every edge's endpoints in
//    two flat arrays, so no counting pass over an endpoint list is needed.
//  * A run leaves its classes in the scratch's edge-record array; only
//    the CycleEquivResult-returning entry points copy them out.
//
//===----------------------------------------------------------------------===//

#include "pst/cycleequiv/CycleEquiv.h"

#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <limits>

using namespace pst;

namespace {

constexpr uint32_t None = ~uint32_t(0);

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
/// head/tail/size triple per node (\c List* arrays). The graph itself is
/// read from the scratch too: the undirected adjacency CSR
/// (\c AdjOff/AdjEdge/AdjOther), each real edge's endpoints
/// (\c EndA/EndB) and the self loops, all written by \c buildAdjacency.
class CycleEquivSolver {
public:
  CycleEquivSolver(uint32_t NumNodes, NodeId Root, uint32_t NumRealEdges,
                   CycleEquivScratch &S)
      : Nodes(NumNodes), Root(Root), S(S), NumRealEdges(NumRealEdges) {}

  /// Runs the algorithm and returns the number of classes; the class of
  /// real edge E is left in S.RecClass[E].
  uint32_t run();

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

  NodeId endpointA(uint32_t E) const { return S.EndA[E]; }
  NodeId endpointB(uint32_t E) const { return S.EndB[E]; }
  uint32_t numNodes() const { return Nodes; }

  uint32_t Nodes;
  NodeId Root;
  CycleEquivScratch &S;
  uint32_t NumRealEdges;
  uint32_t NextClass = 0;
};

void CycleEquivSolver::undirectedDfs(NodeId DfsRoot) {
  uint32_t N = numNodes();
  S.DfsNum.assign(N, None);
  S.ParentEdge.assign(N, None);
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
    NodeId W = S.AdjOther[I];
    // Already reached: a non-tree edge (classified later), or the tree
    // edge itself seen from its lower end.
    if (S.DfsNum[W] != None)
      continue;
    uint32_t E = S.AdjEdge[I];
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
    NodeId P = endpointA(E) ^ endpointB(E) ^ V;
    ++S.ChildOff[P + 1];
  }
  finishOffsets(S.ChildOff);
  S.ChildVal.resize(S.ChildOff[N]);
  for (NodeId V : S.Order) {
    if (S.ParentEdge[V] == None)
      continue;
    uint32_t E = S.ParentEdge[V];
    NodeId P = endpointA(E) ^ endpointB(E) ^ V;
    S.ChildVal[S.Cursor[P]++] = V;
  }
}

void CycleEquivSolver::classifyEdges() {
  uint32_t N = numNodes();
  // Backedge incidence as two CSR arrays: by descendant endpoint (push
  // site) and by ancestor endpoint (delete site). One pass finds each
  // backedge's descendant end (the random DFS-number lookups) and counts;
  // the two scatter passes then only read the edge arrays in order.
  S.BackFromOff.assign(N + 1, 0);
  S.BackToOff.assign(N + 1, 0);
  S.BackDesc.resize(NumRealEdges);
  for (uint32_t E = 0; E < NumRealEdges; ++E) {
    NodeId A = endpointA(E), B = endpointB(E);
    S.BackDesc[E] = None;
    if (A == B)
      continue; // Self loop.
    if (S.DfsNum[A] == None || S.DfsNum[B] == None)
      continue; // Disconnected input (documented precondition violation).
    if (S.ParentEdge[A] == E || S.ParentEdge[B] == E)
      continue; // Tree edge.
    // In an undirected DFS every non-tree edge joins a node to an
    // ancestor.
    NodeId Desc = S.DfsNum[A] > S.DfsNum[B] ? A : B;
    S.BackDesc[E] = Desc;
    ++S.BackFromOff[Desc + 1];
    ++S.BackToOff[(A ^ B ^ Desc) + 1];
  }
  finishOffsets(S.BackFromOff);
  S.BackFromVal.resize(S.BackFromOff[N]);
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    if (NodeId Desc = S.BackDesc[E]; Desc != None)
      S.BackFromVal[S.Cursor[Desc]++] = E;
  finishOffsets(S.BackToOff);
  S.BackToVal.resize(S.BackToOff[N]);
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    if (NodeId Desc = S.BackDesc[E]; Desc != None)
      S.BackToVal[S.Cursor[endpointA(E) ^ endpointB(E) ^ Desc]++] = E;
}

void CycleEquivSolver::processNodes() {
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
      NodeId Anc = endpointA(E) ^ endpointB(E) ^ V; // V is the lower end.
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

uint32_t CycleEquivSolver::run() {
  PST_SPAN("cycleequiv.run");
  if (numNodes() == 0) {
    S.RecClass.assign(NumRealEdges, UndefinedClass);
    return 0;
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

  for (uint32_t E : S.SelfLoops)
    S.RecClass[E] = NextClass++;
  // Defensive: edges of a disconnected component never got processed.
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    if (S.RecClass[E] == UndefinedClass)
      S.RecClass[E] = NextClass++;
  PST_COUNTER("cycleequiv.classes", NextClass);
  return NextClass;
}

/// Writes the solver's graph into \p S straight from the view's succ/pred
/// CSR: the undirected incidence CSR, each real edge's endpoints and the
/// self loops. The graph is G + (exit -> entry), or, if \p Partial, the
/// partial T(S) whose node halves S.InHalf / S.OutHalf describe. Edge ids:
/// G's own, then the return edge (numEdges), then one representative edge
/// per split node in node order. An unsplit node's list is the
/// ascending-edge-id merge of its succ and pred segments, then the return
/// edge at entry / exit; a split node's in half lists its pred segment and
/// its out half its succ segment, each followed by the return edge at
/// entry / exit and the representative edge. Every list is in ascending
/// edge id. Self loops at unsplit nodes are skipped and collected, in edge
/// order, into S.SelfLoops; a split node's self loop joins its two halves.
/// One pass over the nodes, no counting pass, no cursor array.
template <bool Partial>
void buildAdjacency(const CfgView &V, bool AddReturnEdge,
                    CycleEquivScratch &S) {
  const uint32_t N = V.numNodes();
  const uint32_t E = V.numEdges();
  const uint32_t RetId = E;
  const NodeId Entry = V.entry(), Exit = V.exit();
  const NodeId *Src = V.edgeSrc();
  const NodeId *Dst = V.edgeDst();
  auto In = [&](NodeId X) { return Partial ? S.InHalf[X] : X; };
  auto Out = [&](NodeId X) { return Partial ? S.OutHalf[X] : X; };
  const uint32_t Halves = N == 0 ? 0 : Out(N - 1) + 1;
  const uint32_t NumReal = E + (AddReturnEdge ? 1 : 0) + (Halves - N);

  S.SelfLoops.clear();
  S.EndA.resize(NumReal);
  S.EndB.resize(NumReal);
  for (uint32_t I = 0; I < E; ++I) {
    S.EndA[I] = Out(Src[I]);
    S.EndB[I] = In(Dst[I]);
    if (S.EndA[I] == S.EndB[I])
      S.SelfLoops.push_back(I);
  }
  bool RetIsSelfLoop = false;
  if (AddReturnEdge && N != 0) {
    S.EndA[RetId] = Out(Exit);
    S.EndB[RetId] = In(Entry);
    RetIsSelfLoop = S.EndA[RetId] == S.EndB[RetId];
    if (RetIsSelfLoop)
      S.SelfLoops.push_back(RetId);
  }

  S.AdjOff.resize(Halves + 1);
  S.AdjEdge.resize(2 * NumReal);
  S.AdjOther.resize(2 * NumReal);
  uint32_t W = 0;
  auto Add = [&](uint32_t Edge, NodeId Other) {
    S.AdjEdge[W] = Edge;
    S.AdjOther[W] = Other;
    ++W;
  };
  uint32_t Rep = E + 1; // Next representative edge id.
  for (NodeId Node = 0; Node < N; ++Node) {
    auto SuccE = V.succEdges(Node);
    auto SuccN = V.succNodes(Node);
    auto PredE = V.predEdges(Node);
    auto PredN = V.predNodes(Node);
    if (Partial && In(Node) != Out(Node)) {
      S.EndA[Rep] = In(Node);
      S.EndB[Rep] = Out(Node);
      S.AdjOff[In(Node)] = W;
      for (size_t J = 0; J < PredE.size(); ++J)
        Add(PredE[J], Out(PredN[J]));
      if (Node == Entry)
        Add(RetId, Out(Exit));
      Add(Rep, Out(Node));
      S.AdjOff[Out(Node)] = W;
      for (size_t I = 0; I < SuccE.size(); ++I)
        Add(SuccE[I], In(SuccN[I]));
      if (Node == Exit)
        Add(RetId, In(Entry));
      Add(Rep++, In(Node));
      continue;
    }
    S.AdjOff[In(Node)] = W;
    size_t I = 0, J = 0;
    while (I < SuccE.size() || J < PredE.size()) {
      bool TakeSucc =
          J == PredE.size() || (I < SuccE.size() && SuccE[I] < PredE[J]);
      if (TakeSucc) {
        if (SuccN[I] != Node)
          Add(SuccE[I], In(SuccN[I]));
        ++I;
      } else {
        if (PredN[J] != Node)
          Add(PredE[J], Out(PredN[J]));
        ++J;
      }
    }
    if (AddReturnEdge && !RetIsSelfLoop) {
      if (Node == Entry)
        Add(RetId, Out(Exit));
      else if (Node == Exit)
        Add(RetId, In(Entry));
    }
  }
  S.AdjOff[Halves] = W;
}

/// Runs the solver on S = G (+ exit -> entry), leaving the classes in
/// S.RecClass; returns the class count.
uint32_t runOnView(const CfgView &V, bool AddReturnEdge,
                   CycleEquivScratch &S) {
  buildAdjacency</*Partial=*/false>(V, AddReturnEdge, S);
  uint32_t NumReal = V.numEdges() + (AddReturnEdge ? 1 : 0);
  NodeId Root = V.entry() != InvalidNode ? V.entry() : 0;
  return CycleEquivSolver(V.numNodes(), Root, NumReal, S).run();
}

} // namespace

CycleEquivResult pst::computeCycleEquivalence(const CfgView &V,
                                              bool AddReturnEdge,
                                              CycleEquivScratch &Scratch) {
  CycleEquivResult R;
  R.NumClasses = runOnView(V, AddReturnEdge, Scratch);
  R.EdgeClass.assign(Scratch.RecClass.begin(),
                     Scratch.RecClass.begin() + V.numEdges() +
                         (AddReturnEdge ? 1 : 0));
  R.HasReturnEdge = AddReturnEdge;
  return R;
}

CycleEquivResult pst::computeCycleEquivalence(const CfgView &V,
                                              bool AddReturnEdge) {
  CycleEquivScratch Scratch;
  return computeCycleEquivalence(V, AddReturnEdge, Scratch);
}

CycleEquivClasses
pst::computeCycleEquivalenceInPlace(const CfgView &V,
                                    CycleEquivScratch &Scratch) {
  CycleEquivClasses C;
  C.NumClasses = runOnView(V, /*AddReturnEdge=*/true, Scratch);
  C.EdgeClass = std::span(Scratch.RecClass).first(V.numEdges() + 1);
  return C;
}

CycleEquivClasses
pst::computeCycleEquivalencePartialTs(const CfgView &V,
                                      CycleEquivScratch &S) {
  const uint32_t N = V.numNodes();
  const uint32_t E = V.numEdges();
  const NodeId Entry = V.entry(), Exit = V.exit();
  auto InDegree = [&](NodeId X) { return V.inDegree(X) + (X == Entry); };
  auto OutDegree = [&](NodeId X) { return V.outDegree(X) + (X == Exit); };

  // Number the halves so that a split node's two are adjacent ids.
  S.InHalf.resize(N);
  S.OutHalf.resize(N);
  NodeId Next = 0;
  for (NodeId X = 0; X < N; ++X) {
    S.InHalf[X] = Next;
    if (InDegree(X) >= 2 && OutDegree(X) >= 2)
      ++Next;
    S.OutHalf[X] = Next++;
  }
  buildAdjacency</*Partial=*/true>(V, /*AddReturnEdge=*/true, S);
  uint32_t NumClasses =
      CycleEquivSolver(Next, N ? S.InHalf[Entry] : 0,
                       static_cast<uint32_t>(S.EndA.size()), S)
          .run();

  // A split node's class is its representative edge's; any other node has
  // a half of degree two, whose single S edge it is cycle equivalent to.
  S.NodeClass.resize(N);
  uint32_t Rep = E + 1;
  for (NodeId X = 0; X < N; ++X) {
    uint32_t Edge;
    if (S.InHalf[X] != S.OutHalf[X])
      Edge = Rep++;
    else if (InDegree(X) == 1)
      Edge = X == Entry ? E : V.predEdges(X)[0];
    else if (OutDegree(X) == 1)
      Edge = X == Exit ? E : V.succEdges(X)[0];
    else
      Edge = UndefinedClass; // A degree-0 side: not a valid CFG.
    S.NodeClass[X] = Edge != UndefinedClass ? S.RecClass[Edge] : NumClasses++;
  }

  CycleEquivClasses C;
  C.EdgeClass = std::span(S.RecClass).first(E + 1);
  C.NodeClass = S.NodeClass;
  C.NumClasses = NumClasses;
  return C;
}

CycleEquivResult pst::computeCycleEquivalenceTs(const CfgView &V,
                                                CycleEquivScratch &Scratch) {
  const uint32_t N = V.numNodes();
  CycleEquivClasses C = computeCycleEquivalencePartialTs(V, Scratch);
  CycleEquivResult R;
  R.EdgeClass.resize(N + C.EdgeClass.size());
  std::copy(C.NodeClass.begin(), C.NodeClass.end(), R.EdgeClass.begin());
  std::copy(C.EdgeClass.begin(), C.EdgeClass.end(), R.EdgeClass.begin() + N);
  R.NumClasses = C.NumClasses;
  return R;
}
