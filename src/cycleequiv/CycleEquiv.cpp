//===- CycleEquiv.cpp - Linear cycle equivalence ---------------------------===//
//
// Part of the PST library (see CycleEquiv.h for the project reference).
//
// Implements the pseudocode of the paper's Figure 4 with these concrete
// choices:
//  * The DFS is iterative, so deep graphs cannot overflow the call stack.
//  * Each node's Figure-4 step runs when the DFS finishes the node. By then
//    every child has finished and spliced its bracket list in front of the
//    node's and folded its hi into the node's hi1/hi2; the node's own
//    backedges are read off its adjacency. One DFS is the whole sweep.
//  * Bracket lists are intrusive doubly-linked cells in one arena; concat
//    is an O(1) splice; delete is O(1) via a back-pointer on each bracket.
//    A node's list head, hi1/hi2 and capping-backedge registrations live in
//    its DFS stack frame, since only the node and its ancestors on the
//    stack ever touch them.
//  * hi values are DFS-tree depths rather than DFS numbers. The two order
//    a node's ancestors alike, and a depth is also the stack index of the
//    ancestor a capping backedge registers on.
//  * Self loops cannot bracket anything (the cycle they form contains only
//    themselves), so each gets a fresh singleton class and is excluded from
//    the undirected DFS.
//  * Class ids are those of the paper's reverse-preorder sweep: by the DFS
//    number of the node that created the class, descending, then in
//    creation order within the node. The post-order run creates the same
//    classes per node, so one counting sort by creating node renumbers them.
//  * All working memory lives in a CycleEquivScratch. The corpus this
//    library targets is dominated by tiny procedures (the paper's Table 1
//    median), where per-node std::vector buckets cost more in allocator
//    traffic than the algorithm itself; with the scratch warm, a run
//    allocates nothing but its result.
//  * The solver reads its graph from the scratch, so one Figure-4 run
//    serves both encodings: a frozen CfgView plus the implicit return
//    edge, and the partial node expansion of S that yields edge and node
//    classes in one run. One builder writes either straight from the
//    shared CSR segments (each node's incident edges are the ascending-id
//    merge of its succ and pred segments), so no counting pass over an
//    endpoint list is needed.
//  * A run leaves its classes in the scratch's edge-record array; only
//    the CycleEquivResult-returning entry points copy them out.
//
//===----------------------------------------------------------------------===//

#include "pst/cycleequiv/CycleEquiv.h"

#include "pst/obs/ScopedTimer.h"

#include <algorithm>

using namespace pst;

namespace {

constexpr uint32_t None = ~uint32_t(0);
constexpr uint32_t Inf = None; // A hi value above every depth.

/// The Figure-4 solver, operating entirely on arrays owned by a
/// CycleEquivScratch.
///
/// Edge records (scratch \c Rec* arrays, indexed by record id) describe one
/// undirected edge each: a real CFG edge (ids [0, NumRealEdges)), or a
/// capping backedge created by the algorithm (appended past NumRealEdges).
/// Per record: the assigned class, the bracket-list size/class from the
/// most recent time it was the topmost bracket (size 0 = never; real sizes
/// are >= 1), and the arena cell currently holding it in some bracket list.
/// Bracket lists are doubly-linked cells (\c Cell* arrays) whose head,
/// tail and size sit in the owning node's DFS frame. The graph itself is
/// read from the scratch too: the undirected adjacency CSR
/// (\c AdjOff/AdjEdge/AdjOther) and the self loops, written by
/// \c buildAdjacency.
class CycleEquivSolver {
public:
  CycleEquivSolver(uint32_t NumNodes, NodeId Root, uint32_t NumRealEdges,
                   CycleEquivScratch &S)
      : Nodes(NumNodes), Root(Root), S(S), NumRealEdges(NumRealEdges) {}

  /// Runs the algorithm and returns the number of classes; the class of
  /// real edge E is left in S.RecClass[E].
  uint32_t run();

private:
  using Frame = CycleEquivScratch::DfsFrame;

  // -- Bracket list primitives (all O(1)) --------------------------------
  uint32_t newCell(uint32_t RecId) {
    uint32_t C = static_cast<uint32_t>(S.CellRec.size());
    S.CellRec.push_back(RecId);
    S.CellPrev.push_back(None);
    S.CellNext.push_back(None);
    return C;
  }

  void push(Frame &L, uint32_t RecId) {
    uint32_t C = newCell(RecId);
    S.CellNext[C] = L.Head;
    if (L.Head != None)
      S.CellPrev[L.Head] = C;
    L.Head = C;
    if (L.Tail == None)
      L.Tail = C;
    ++L.Size;
    S.RecCell[RecId] = C;
  }

  void erase(Frame &L, uint32_t RecId) {
    uint32_t C = S.RecCell[RecId];
    assert(C != None && "bracket not on any list");
    uint32_t P = S.CellPrev[C], N = S.CellNext[C];
    if (P != None)
      S.CellNext[P] = N;
    else
      L.Head = N;
    if (N != None)
      S.CellPrev[N] = P;
    else
      L.Tail = P;
    --L.Size;
    S.RecCell[RecId] = None;
  }

  /// Splices \p Src's list in front of \p Dst's (\p Src is about to be
  /// popped, so it is left as is).
  void concatInto(Frame &Dst, const Frame &Src) {
    if (Src.Head == None)
      return;
    if (Dst.Head == None) {
      Dst.Tail = Src.Tail;
    } else {
      S.CellNext[Src.Tail] = Dst.Head;
      S.CellPrev[Dst.Head] = Src.Tail;
    }
    Dst.Head = Src.Head;
    Dst.Size += Src.Size;
  }

  /// A fresh class, created by the node of \p F.
  uint32_t newClass(const Frame &F) {
    S.ClassPre.push_back(F.Pre);
    return NextClass++;
  }

  uint32_t dfs(NodeId DfsRoot);
  uint32_t finish(Frame &F, uint32_t Depth);
  void renumberClasses(uint32_t NumReached);

  uint32_t numNodes() const { return Nodes; }

  uint32_t Nodes;
  NodeId Root;
  CycleEquivScratch &S;
  uint32_t NumRealEdges;
  uint32_t NextClass = 0;
};

/// The undirected DFS from \p DfsRoot, running each node's Figure-4 step
/// as it finishes; returns the number of nodes reached.
uint32_t CycleEquivSolver::dfs(NodeId DfsRoot) {
  uint32_t N = numNodes();
  S.Depth.assign(N, None);
  S.ParentEdge.assign(N, None);
  S.Stack.clear();
  S.CapNext.clear();
  S.ClassPre.clear();

  // At most one capping backedge per node can be created, one arena cell
  // per (real or capping) bracket push and one class per edge; reserving
  // the worst case up front keeps the push_backs below allocation-free.
  S.RecClass.assign(NumRealEdges, UndefinedClass);
  S.RecRecentSize.assign(NumRealEdges, 0);
  S.RecRecentClass.assign(NumRealEdges, UndefinedClass);
  S.RecCell.assign(NumRealEdges, None);
  S.RecClass.reserve(NumRealEdges + N);
  S.RecRecentSize.reserve(NumRealEdges + N);
  S.RecRecentClass.reserve(NumRealEdges + N);
  S.RecCell.reserve(NumRealEdges + N);
  S.CapNext.reserve(N);
  S.ClassPre.reserve(NumRealEdges);
  S.CellRec.clear();
  S.CellPrev.clear();
  S.CellNext.clear();
  S.CellRec.reserve(NumRealEdges + N);
  S.CellPrev.reserve(NumRealEdges + N);
  S.CellNext.reserve(NumRealEdges + N);

  uint32_t Reached = 0;
  auto Enter = [&](NodeId V) {
    S.Depth[V] = static_cast<uint32_t>(S.Stack.size());
    S.Stack.push_back(
        {V, S.AdjOff[V], Reached++, Inf, Inf, None, None, 0, None});
  };
  Enter(DfsRoot);
  while (!S.Stack.empty()) {
    Frame &F = S.Stack.back();
    if (F.Next != S.AdjOff[F.Node + 1]) {
      uint32_t I = F.Next++;
      NodeId W = S.AdjOther[I];
      // Already reached: a non-tree edge (handled as each of its ends
      // finishes), or the tree edge itself seen from its lower end.
      if (S.Depth[W] == None) {
        S.ParentEdge[W] = S.AdjEdge[I];
        Enter(W);
      }
      continue;
    }
    uint32_t Depth = static_cast<uint32_t>(S.Stack.size()) - 1;
    uint32_t Hi = finish(F, Depth);
    if (Depth != 0) {
      // Hand the node's hi and bracket list to its parent.
      Frame &P = S.Stack[Depth - 1];
      if (Hi < P.Hi1) {
        P.Hi2 = P.Hi1;
        P.Hi1 = Hi;
      } else if (Hi < P.Hi2) {
        P.Hi2 = Hi;
      }
      concatInto(P, F);
    }
    S.Stack.pop_back();
  }
  return Reached;
}

/// The Figure-4 step for the node of \p F, at stack index \p Depth, once
/// all its children have finished; returns its hi.
uint32_t CycleEquivSolver::finish(Frame &F, uint32_t Depth) {
  NodeId V = F.Node;
  // Delete capping backedges ending here.
  for (uint32_t D = F.CapHead; D != None; D = S.CapNext[D - NumRealEdges])
    erase(F, D);

  // V's own non-tree edges, in ascending edge id. A tree edge is known by
  // its id, so a parallel edge to the parent stays a backedge. In an
  // undirected DFS every non-tree edge joins a node to an ancestor: one
  // to a shallower node leaves V (it feeds hi0 and is pushed), one to a
  // deeper node ends here (it is deleted, and a backedge that was never a
  // topmost bracket still needs a class of its own).
  uint32_t Hi0 = Inf;
  for (uint32_t I = S.AdjOff[V]; I < S.AdjOff[V + 1]; ++I) {
    uint32_t E = S.AdjEdge[I];
    NodeId W = S.AdjOther[I];
    if (E == S.ParentEdge[V] || E == S.ParentEdge[W])
      continue;
    if (S.Depth[W] < Depth) {
      Hi0 = std::min(Hi0, S.Depth[W]);
      push(F, E);
    } else {
      erase(F, E);
      if (S.RecClass[E] == UndefinedClass)
        S.RecClass[E] = newClass(F);
    }
  }

  // Insert a capping backedge when brackets from two subtrees both out-
  // live V: it masks the mixed prefix up to the second-highest reach.
  // The guard Hi2 < Depth is a necessary correction to the paper's
  // Figure 4 (which only tests hi2 < hi0): when the second-highest child
  // reach is V itself or deeper, those brackets die at or below V, no
  // masking is needed, and a capping edge could never be deleted.
  if (F.Hi2 < Hi0 && F.Hi2 < Depth) {
    uint32_t D = static_cast<uint32_t>(S.RecClass.size());
    S.RecClass.push_back(UndefinedClass);
    S.RecRecentSize.push_back(0);
    S.RecRecentClass.push_back(UndefinedClass);
    S.RecCell.push_back(None);
    push(F, D);
    Frame &Anc = S.Stack[F.Hi2]; // A proper ancestor, by the guard.
    S.CapNext.push_back(Anc.CapHead);
    Anc.CapHead = D;
  }

  // Name the equivalence class of the tree edge into V.
  uint32_t PE = S.ParentEdge[V];
  if (PE == None) {
    // DFS root.
  } else if (F.Size == 0) {
    // Bridge edge: only possible if the input was not strongly
    // connected. Give it a class so callers still get a partition.
    S.RecClass[PE] = newClass(F);
  } else {
    uint32_t Top = S.CellRec[F.Head];
    if (S.RecRecentSize[Top] != F.Size) {
      S.RecRecentSize[Top] = F.Size;
      S.RecRecentClass[Top] = newClass(F);
    }
    S.RecClass[PE] = S.RecRecentClass[Top];
    // A tree edge with exactly one bracket is cycle equivalent to it
    // (Theorem 4).
    if (S.RecRecentSize[Top] == 1)
      S.RecClass[Top] = S.RecClass[PE];
  }
  return std::min(Hi0, F.Hi1);
}

/// Renumbers the DFS's classes into the order of the reverse-preorder
/// sweep: a stable counting sort by the creating node's DFS number,
/// descending. O(N + C + E).
void CycleEquivSolver::renumberClasses(uint32_t NumReached) {
  std::vector<uint32_t> &Start = S.Depth; // Dead once the DFS is done.
  Start.assign(NumReached, 0);
  for (uint32_t Pre : S.ClassPre)
    ++Start[Pre];
  for (uint32_t Pre = NumReached, Sum = 0; Pre-- > 0;) {
    uint32_t Count = Start[Pre];
    Start[Pre] = Sum;
    Sum += Count;
  }
  for (uint32_t &Pre : S.ClassPre) // Now the class's renumbered id.
    Pre = Start[Pre]++;
  for (uint32_t E = 0; E < NumRealEdges; ++E)
    if (S.RecClass[E] != UndefinedClass)
      S.RecClass[E] = S.ClassPre[S.RecClass[E]];
}

uint32_t CycleEquivSolver::run() {
  PST_SPAN("cycleequiv.run");
  if (numNodes() == 0) {
    S.RecClass.assign(NumRealEdges, UndefinedClass);
    return 0;
  }

  renumberClasses(dfs(Root < numNodes() ? Root : 0));
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
/// CSR: the undirected incidence CSR and the self loops; returns the number
/// of real edges. The graph is G + (exit -> entry), or, if \p Partial, the
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
uint32_t buildAdjacency(const CfgView &V, bool AddReturnEdge,
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
  for (uint32_t I = 0; I < E; ++I)
    if (Out(Src[I]) == In(Dst[I]))
      S.SelfLoops.push_back(I);
  bool RetIsSelfLoop = AddReturnEdge && N != 0 && Out(Exit) == In(Entry);
  if (RetIsSelfLoop)
    S.SelfLoops.push_back(RetId);

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
  return NumReal;
}

/// Runs the solver on S = G (+ exit -> entry), leaving the classes in
/// S.RecClass; returns the class count.
uint32_t runOnView(const CfgView &V, bool AddReturnEdge,
                   CycleEquivScratch &S) {
  uint32_t NumReal = buildAdjacency</*Partial=*/false>(V, AddReturnEdge, S);
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
  uint32_t NumReal =
      buildAdjacency</*Partial=*/true>(V, /*AddReturnEdge=*/true, S);
  uint32_t NumClasses =
      CycleEquivSolver(Next, N ? S.InHalf[Entry] : 0, NumReal, S).run();

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
