//===- IncrementalPst.cpp - PST over CFG edits -------------------------------===//
//
// Part of the PST library (see IncrementalPst.h for the algorithm sketch).
//
// The load-bearing facts, all downstream of Theorem 1:
//
//  * The exterior of a canonical region D observes it only through D's
//    entry and exit edges. An edit whose endpoints both lie in D's body
//    cannot change cycle equivalence (hence regions, hence the PST) outside
//    D's subtree.
//  * On the sub-CFG <D's body + synthetic start/end>, an interior edge is
//    cycle equivalent to the synthetic boundary edges exactly when it is
//    globally cycle equivalent to D's entry edge. So the sub-build's
//    boundary class tells us whether D survives (class = {start, end}: the
//    sub-root's single child spans the body and maps to D) or dissolves
//    (interior edges joined the class: the sub-root's children form the
//    chain of regions that replaces D under its parent).
//  * Within a class, dominance order equals first-traversal order of any
//    DFS from the entry, and the extraction preserves successor order, so
//    the sub-build's region pairs land exactly on the global ones.
//
//===----------------------------------------------------------------------===//

#include "pst/incremental/IncrementalPst.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

using namespace pst;

IncrementalPst::IncrementalPst(DynamicCfg &DG) : DG(DG) {
  fullRebuild();
  // The initial build is the price of attaching, not of maintenance.
  Stats = IncrementalPstStats{};
}

//===----------------------------------------------------------------------===//
// Slot management and tree walks
//===----------------------------------------------------------------------===//

RegionId IncrementalPst::allocSlot() {
  RegionId R;
  if (!FreeSlots.empty()) {
    R = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    R = static_cast<RegionId>(Regions.size());
    Regions.push_back(Slot{});
  }
  Slot &S = Regions[R];
  S.Children.clear();
  S.Nodes.clear();
  S.Live = true;
  ++NumLive;
  return R;
}

void IncrementalPst::freeSubtreeSlots(RegionId R) {
  std::vector<RegionId> Work{R};
  while (!Work.empty()) {
    RegionId Cur = Work.back();
    Work.pop_back();
    Slot &S = Regions[Cur];
    assert(S.Live && "double free of region slot");
    Work.insert(Work.end(), S.Children.begin(), S.Children.end());
    S.Live = false;
    S.Children.clear();
    S.Nodes.clear();
    FreeSlots.push_back(Cur);
    --NumLive;
  }
}

RegionId IncrementalPst::lca(RegionId A, RegionId B) const {
  while (Regions[A].Depth > Regions[B].Depth)
    A = Regions[A].Parent;
  while (Regions[B].Depth > Regions[A].Depth)
    B = Regions[B].Parent;
  while (A != B) {
    A = Regions[A].Parent;
    B = Regions[B].Parent;
  }
  return A;
}

bool IncrementalPst::liveContains(RegionId Outer, RegionId Inner) const {
  while (Inner != InvalidRegion) {
    if (Inner == Outer)
      return true;
    Inner = Regions[Inner].Parent;
  }
  return false;
}

RegionId IncrementalPst::currentRegionOfNode(NodeId N) const {
  auto It = PendingNodeRegion.find(N);
  if (It != PendingNodeRegion.end())
    return It->second;
  assert(N < NodeRegion.size() && NodeRegion[N] != InvalidRegion &&
         "node unknown to the tree");
  return NodeRegion[N];
}

std::vector<RegionId> IncrementalPst::liveRegions() const {
  std::vector<RegionId> Out;
  Out.reserve(NumLive);
  for (RegionId R = 0; R < Regions.size(); ++R)
    if (Regions[R].Live)
      Out.push_back(R);
  return Out;
}

uint32_t IncrementalPst::pendingEdits() const {
  return static_cast<uint32_t>(DG.journal().size() - JournalPos);
}

//===----------------------------------------------------------------------===//
// Dirty tracking
//===----------------------------------------------------------------------===//

void IncrementalPst::markDirty(RegionId D) {
  if (RootDirty)
    return;
  if (D == root()) {
    RootDirty = true;
    DirtySet.clear();
    return;
  }
  for (RegionId X : DirtySet)
    if (liveContains(X, D))
      return; // Already covered.
  DirtySet.erase(std::remove_if(DirtySet.begin(), DirtySet.end(),
                                [&](RegionId X) {
                                  return liveContains(D, X);
                                }),
                 DirtySet.end());
  DirtySet.push_back(D);
}

RegionId IncrementalPst::dirtyScope(RegionId D) const {
  if (RootDirty || D == root())
    return root();
  for (RegionId X : DirtySet)
    if (X != D && liveContains(X, D))
      return X; // DirtySet is an antichain: at most one covers D.
  return D;
}

void IncrementalPst::ensureTablesSized() {
  NodeRegion.resize(DG.numNodes(), InvalidRegion);
  uint32_t NumE = DG.graph().numEdges();
  EdgeRegion.resize(NumE, InvalidRegion);
  EntryOf.resize(NumE, InvalidRegion);
  ExitOf.resize(NumE, InvalidRegion);
}

void IncrementalPst::absorbJournal() {
  const auto &J = DG.journal();
  for (; JournalPos < J.size(); ++JournalPos) {
    const CfgEdit &E = J[JournalPos];
    RegionId D = lca(currentRegionOfNode(E.Src), currentRegionOfNode(E.Dst));
    markDirty(D);
    ++Stats.EditsApplied;
    switch (E.K) {
    case CfgEdit::Kind::InsertEdge:
      break;
    case CfgEdit::Kind::DeleteEdge:
    case CfgEdit::Kind::SplitBlock:
      // The tombstoned edge no longer has a region; its slot must not leak
      // a stale (soon possibly freed) region id.
      ensureTablesSized();
      EdgeRegion[E.E] = EntryOf[E.E] = ExitOf[E.E] = InvalidRegion;
      break;
    case CfgEdit::Kind::AddBlock:
      break;
    }
    if (E.NewNode != InvalidNode)
      PendingNodeRegion.emplace(E.NewNode, D);
  }
  ensureTablesSized();
}

//===----------------------------------------------------------------------===//
// Edits
//===----------------------------------------------------------------------===//

EdgeId IncrementalPst::insertEdge(NodeId Src, NodeId Dst) {
  EdgeId E = DG.insertEdge(Src, Dst);
  if (E == InvalidEdge) {
    ++Stats.EditsRejected;
    return InvalidEdge;
  }
  absorbJournal();
  return E;
}

NodeId IncrementalPst::splitBlock(EdgeId E, std::string Label) {
  NodeId M = DG.splitBlock(E, std::move(Label));
  absorbJournal();
  return M;
}

NodeId IncrementalPst::addBlock(NodeId Src, NodeId Dst, std::string Label) {
  NodeId M = DG.addBlock(Src, Dst, std::move(Label));
  if (M == InvalidNode) {
    ++Stats.EditsRejected;
    return InvalidNode;
  }
  absorbJournal();
  return M;
}

std::vector<NodeId> IncrementalPst::collectBodyNodes(RegionId D) const {
  std::vector<NodeId> Body;
  std::vector<RegionId> Work{D};
  while (!Work.empty()) {
    RegionId R = Work.back();
    Work.pop_back();
    const Slot &S = Regions[R];
    Body.insert(Body.end(), S.Nodes.begin(), S.Nodes.end());
    Work.insert(Work.end(), S.Children.begin(), S.Children.end());
  }
  for (const auto &[N, Prov] : PendingNodeRegion)
    if (liveContains(D, Prov))
      Body.push_back(N);
  return Body;
}

bool IncrementalPst::deletePreservesValidity(RegionId S, EdgeId Skip) const {
  if (S == root())
    return DG.validWithoutEdge(Skip);

  std::vector<NodeId> Body = collectBodyNodes(S);
  std::unordered_map<NodeId, uint32_t> Index;
  Index.reserve(Body.size() * 2);
  for (uint32_t I = 0; I < Body.size(); ++I)
    Index.emplace(Body[I], I);

  EdgeId EntryE = Regions[S].EntryEdge, ExitE = Regions[S].ExitEdge;
  const Cfg &G = DG.graph();
  auto Sweep = [&](NodeId From, bool Forward) {
    auto It = Index.find(From);
    if (It == Index.end())
      return false;
    std::vector<bool> Seen(Body.size(), false);
    std::vector<uint32_t> Work{It->second};
    Seen[It->second] = true;
    uint32_t Count = 1;
    while (!Work.empty()) {
      NodeId V = Body[Work.back()];
      Work.pop_back();
      const auto &Edges = Forward ? G.succEdges(V) : G.predEdges(V);
      for (EdgeId E : Edges) {
        if (DG.edgeDead(E) || E == Skip || E == EntryE || E == ExitE)
          continue;
        NodeId W = Forward ? G.target(E) : G.source(E);
        auto WIt = Index.find(W);
        if (WIt == Index.end())
          continue; // Crosses the boundary; unreachable given SESE-ness.
        if (!Seen[WIt->second]) {
          Seen[WIt->second] = true;
          ++Count;
          Work.push_back(WIt->second);
        }
      }
    }
    return Count == Body.size();
  };
  // The exterior is untouched, so local reachability from the region's
  // entry (and co-reachability from its exit) is exactly what global
  // Definition-1 validity requires of the body.
  return Sweep(G.target(EntryE), true) && Sweep(G.source(ExitE), false);
}

bool IncrementalPst::deleteEdge(EdgeId E) {
  absorbJournal(); // Direct DynamicCfg edits must be folded in first.
  assert(DG.edgeLive(E) && "edge not live");
  const Cfg &G = DG.graph();
  RegionId D =
      lca(currentRegionOfNode(G.source(E)), currentRegionOfNode(G.target(E)));
  if (!deletePreservesValidity(dirtyScope(D), E)) {
    ++Stats.EditsRejected;
    return false;
  }
  DG.deleteEdgeUnchecked(E);
  absorbJournal();
  return true;
}

//===----------------------------------------------------------------------===//
// Commit: rebuild dirty subtrees
//===----------------------------------------------------------------------===//

uint32_t IncrementalPst::commit() {
  // Tag the span with the commit's 1-based sequence number so trace spans
  // can be correlated with specific edit batches (the nested rebuild spans
  // carry the same id).
  PST_SPAN_ARG("incremental.commit", "batch", Stats.Commits + 1);
  absorbJournal();
  if (!RootDirty && DirtySet.empty())
    return 0;
  ++Stats.Commits;
  Stats.FullRecomputeNodes += DG.numNodes();
  PST_COUNTER("incremental.commits", 1);

  if (RootDirty) {
    PST_COUNTER("incremental.full_rebuild_fallbacks", 1);
    fullRebuild();
    return 0;
  }

  // Snapshot the per-region body node sets before any rebuild mutates the
  // tree (the dirty regions are an antichain, so their subtrees are
  // disjoint, but collectBodyNodes also walks the shared PendingNodeRegion
  // map through parent chains that a rebuild recycles).
  std::vector<RegionId> Dirty = DirtySet;
  std::vector<std::vector<NodeId>> Bodies;
  Bodies.reserve(Dirty.size());
  for (RegionId D : Dirty)
    Bodies.push_back(collectBodyNodes(D));

  uint32_t Rebuilt = 0;
  for (size_t I = 0; I < Dirty.size(); ++I) {
    if (!rebuildSubtree(Dirty[I], Bodies[I])) {
      // The node set was not a SESE body (an invariant breach, not an
      // expected path). Recover by paying for a full rebuild.
      assert(false && "dirty region body violated the SESE boundary");
      fullRebuild();
      return Rebuilt;
    }
    ++Rebuilt;
  }

  DirtySet.clear();
  RootDirty = false;
  PendingNodeRegion.clear();
  PST_COUNTER("incremental.subtrees_rebuilt", Rebuilt);
  return Rebuilt;
}

bool IncrementalPst::rebuildSubtree(RegionId D,
                                    const std::vector<NodeId> &Body) {
  PST_SPAN_ARG("incremental.subtree_rebuild", "batch", Stats.Commits);
  assert(D != root() && Regions[D].Live && "dirty region must be real");
  assert(DG.edgeLive(Regions[D].EntryEdge) &&
         DG.edgeLive(Regions[D].ExitEdge) &&
         "dirty region boundary must be intact");

  SubCfg Sub = extractRegionSubCfg(DG.graph(), Body, Regions[D].EntryEdge,
                                   Regions[D].ExitEdge, &DG.deadEdges());
  if (Sub.BoundaryViolation)
    return false;
  const CfgView SubV = CfgView::build(Sub.Graph, ViewScratch);
  ProgramStructureTree SubT = ProgramStructureTree::build(SubV, BuildScratch);

  ++Stats.SubtreesRebuilt;
  Stats.NodesReprocessed += Body.size();
  Stats.EdgesReprocessed += Sub.Graph.numEdges();
  PST_COUNTER("incremental.nodes_reprocessed", Body.size());
  PST_VALUE("incremental.rebuild_body_nodes", Body.size());

  RegionId P = Regions[D].Parent;
  uint32_t BaseDepth = Regions[P].Depth;

  // The synthetic boundary edges are always cycle equivalent in the
  // sub-CFG, so the entry edge opens at least one region.
  RegionId R0 = SubT.regionEnteredBy(SubV, Sub.LocalEntryEdge);
  assert(R0 != InvalidRegion && "boundary edges must open a region");
  // D survives iff the boundary class stayed {start, end}: the region the
  // start edge opens then spans the whole body.
  bool Survive = SubT.region(R0).ExitEdge == Sub.LocalExitEdge;

  // Recycle the old subtree's slots (keeping D's own when it survives).
  for (RegionId C : Regions[D].Children)
    freeSubtreeSlots(C);
  Regions[D].Children.clear();
  Regions[D].Nodes.clear();
  size_t SlotInParent = 0;
  if (!Survive) {
    const auto &Sib = Regions[P].Children;
    SlotInParent = std::find(Sib.begin(), Sib.end(), D) - Sib.begin();
    assert(SlotInParent < Sib.size() && "region missing from its parent");
    Regions[D].Live = false;
    FreeSlots.push_back(D);
    --NumLive;
  }

  // Allocate global slots for the rebuilt regions. The sub-root stands for
  // the exterior context, i.e. D's parent.
  std::vector<RegionId> Map(SubT.numRegions(), InvalidRegion);
  Map[SubT.root()] = P;
  if (Survive)
    Map[R0] = D;
  for (RegionId R = 1; R < SubT.numRegions(); ++R)
    if (Map[R] == InvalidRegion)
      Map[R] = allocSlot();

  for (RegionId R = 1; R < SubT.numRegions(); ++R) {
    const SeseRegion &Src = SubT.region(R);
    Slot &S = Regions[Map[R]];
    S.EntryEdge = Sub.GlobalEdge[Src.EntryEdge];
    S.ExitEdge = Sub.GlobalEdge[Src.ExitEdge];
    S.Parent = Map[Src.Parent];
    S.Depth = BaseDepth + Src.Depth;
    S.Children.clear();
    for (RegionId C : SubT.children(R))
      S.Children.push_back(Map[C]);
    S.Nodes.clear();
    for (NodeId L : SubT.immediateNodes(R)) {
      assert(Sub.GlobalNode[L] != InvalidNode &&
             "synthetic nodes live in the sub-root only");
      S.Nodes.push_back(Sub.GlobalNode[L]);
    }
    S.Live = true;
  }

  if (!Survive) {
    // D dissolved: interior edges joined the boundary class, and the chain
    // of regions the sub-build found at top level takes D's place. Their
    // entry edges are traversed contiguously where D's was (the body's
    // only entry is D's entry edge), so an in-place splice preserves the
    // parent's child order.
    std::vector<RegionId> NewKids;
    for (RegionId C : SubT.children(SubT.root()))
      NewKids.push_back(Map[C]);
    auto &Sib = Regions[P].Children;
    Sib.erase(Sib.begin() + SlotInParent);
    Sib.insert(Sib.begin() + SlotInParent, NewKids.begin(), NewKids.end());
  }

  // Node and edge assignments. Real body node L is local id L by
  // construction of the extraction.
  for (uint32_t L = 0; L < Body.size(); ++L) {
    RegionId SubR = SubT.regionOfNode(L);
    if (SubR == SubT.root())
      return false; // Breached invariant: no body node sits outside.
    NodeRegion[Body[L]] = Map[SubR];
  }
  auto MapOr = [&](RegionId R) {
    return R == InvalidRegion ? InvalidRegion : Map[R];
  };
  for (EdgeId L = 0; L < Sub.Graph.numEdges(); ++L) {
    EdgeId E = Sub.GlobalEdge[L];
    if (L == Sub.LocalEntryEdge) {
      // D's entry edge: interior-facing slots update (it now opens D's
      // replacement when D dissolved); what it closes belongs to the
      // untouched exterior.
      EntryOf[E] = MapOr(SubT.regionEnteredBy(SubV, L));
      EdgeRegion[E] = Map[SubT.regionOfEdge(SubV, L)];
    } else if (L == Sub.LocalExitEdge) {
      // D's exit edge: symmetric — only what it closes is interior.
      ExitOf[E] = MapOr(SubT.regionExitedBy(SubV, L));
    } else {
      EdgeRegion[E] = Map[SubT.regionOfEdge(SubV, L)];
      EntryOf[E] = MapOr(SubT.regionEnteredBy(SubV, L));
      ExitOf[E] = MapOr(SubT.regionExitedBy(SubV, L));
    }
  }
  return true;
}

void IncrementalPst::fullRebuild() {
  // Batch 0 is the constructor's initial build; commits re-increment first.
  PST_SPAN_ARG("incremental.full_rebuild", "batch", Stats.Commits);
  std::vector<EdgeId> GlobalOf;
  Cfg M = DG.materialize(&GlobalOf);
  const CfgView V = CfgView::build(M, ViewScratch);
  ProgramStructureTree T = ProgramStructureTree::build(V, BuildScratch);

  Regions.assign(T.numRegions(), Slot{});
  FreeSlots.clear();
  NumLive = T.numRegions();
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    const SeseRegion &Src = T.region(R);
    Slot &S = Regions[R];
    S.EntryEdge = Src.EntryEdge == InvalidEdge ? InvalidEdge
                                               : GlobalOf[Src.EntryEdge];
    S.ExitEdge =
        Src.ExitEdge == InvalidEdge ? InvalidEdge : GlobalOf[Src.ExitEdge];
    S.Parent = Src.Parent;
    auto Kids = T.children(R);
    S.Children.assign(Kids.begin(), Kids.end());
    S.Depth = Src.Depth;
    auto Imm = T.immediateNodes(R);
    S.Nodes.assign(Imm.begin(), Imm.end());
    S.Live = true;
  }

  NodeRegion.assign(DG.numNodes(), InvalidRegion);
  for (NodeId N = 0; N < DG.numNodes(); ++N)
    NodeRegion[N] = T.regionOfNode(N);
  uint32_t NumE = DG.graph().numEdges();
  EdgeRegion.assign(NumE, InvalidRegion);
  EntryOf.assign(NumE, InvalidRegion);
  ExitOf.assign(NumE, InvalidRegion);
  for (EdgeId C = 0; C < M.numEdges(); ++C) {
    EdgeId E = GlobalOf[C];
    EdgeRegion[E] = T.regionOfEdge(V, C);
    EntryOf[E] = T.regionEnteredBy(V, C);
    ExitOf[E] = T.regionExitedBy(V, C);
  }

  DirtySet.clear();
  RootDirty = false;
  PendingNodeRegion.clear();
  JournalPos = DG.journal().size();

  ++Stats.FullRebuilds;
  Stats.NodesReprocessed += DG.numNodes();
  Stats.EdgesReprocessed += M.numEdges();
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

std::string IncrementalPst::format() const {
  const Cfg &G = DG.graph();
  std::ostringstream OS;
  auto EdgeName = [&](EdgeId E) {
    return G.nodeName(G.source(E)) + "->" + G.nodeName(G.target(E));
  };
  // Recursive outline, iteratively: (region, depth) work items in reverse
  // child order so children print in order.
  std::vector<RegionId> Work{root()};
  while (!Work.empty()) {
    RegionId R = Work.back();
    Work.pop_back();
    const Slot &S = Regions[R];
    std::string Indent(S.Depth * 2, ' ');
    if (R == root())
      OS << "procedure";
    else
      OS << Indent << "region " << EdgeName(S.EntryEdge) << " .. "
         << EdgeName(S.ExitEdge);
    if (!S.Nodes.empty()) {
      OS << " [";
      for (size_t I = 0; I < S.Nodes.size(); ++I)
        OS << (I ? " " : "") << G.nodeName(S.Nodes[I]);
      OS << "]";
    }
    OS << "\n";
    for (auto It = S.Children.rbegin(); It != S.Children.rend(); ++It)
      Work.push_back(*It);
  }
  return OS.str();
}

bool IncrementalPst::equalsFromScratch(std::string *Why) const {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (pendingEdits() > 0)
    return Fail("uncommitted edits pending");

  std::vector<EdgeId> GlobalOf;
  Cfg M = DG.materialize(&GlobalOf);
  FrozenCfg V(M);
  ProgramStructureTree T = ProgramStructureTree::build(V);

  if (T.numRegions() != NumLive)
    return Fail("region count: from-scratch " +
                std::to_string(T.numRegions()) + " vs incremental " +
                std::to_string(NumLive));

  // Map each from-scratch region to the incremental region opened by the
  // same (global) entry edge, then compare all structure through the map.
  std::vector<RegionId> IncOf(T.numRegions(), InvalidRegion);
  IncOf[T.root()] = root();
  for (RegionId R = 1; R < T.numRegions(); ++R) {
    EdgeId GE = GlobalOf[T.region(R).EntryEdge];
    RegionId I = EntryOf[GE];
    if (I == InvalidRegion || !Regions[I].Live)
      return Fail("no incremental region entered by edge " +
                  std::to_string(GE));
    if (Regions[I].ExitEdge != GlobalOf[T.region(R).ExitEdge])
      return Fail("exit edge mismatch for region entered by edge " +
                  std::to_string(GE));
    IncOf[R] = I;
  }
  for (RegionId R = 1; R < T.numRegions(); ++R) {
    RegionId I = IncOf[R];
    if (Regions[I].Parent != IncOf[T.region(R).Parent])
      return Fail("parent mismatch at region " + std::to_string(R));
    if (Regions[I].Depth != T.region(R).Depth)
      return Fail("depth mismatch at region " + std::to_string(R));
  }
  for (NodeId N = 0; N < M.numNodes(); ++N)
    if (NodeRegion[N] != IncOf[T.regionOfNode(N)])
      return Fail("node region mismatch at node " + std::to_string(N));
  for (EdgeId C = 0; C < M.numEdges(); ++C) {
    EdgeId E = GlobalOf[C];
    if (EdgeRegion[E] != IncOf[T.regionOfEdge(V, C)])
      return Fail("edge region mismatch at edge " + std::to_string(E));
    RegionId TE = T.regionEnteredBy(V, C), TX = T.regionExitedBy(V, C);
    if (EntryOf[E] != (TE == InvalidRegion ? InvalidRegion : IncOf[TE]))
      return Fail("entered-by mismatch at edge " + std::to_string(E));
    if (ExitOf[E] != (TX == InvalidRegion ? InvalidRegion : IncOf[TX]))
      return Fail("exited-by mismatch at edge " + std::to_string(E));
  }
  // Immediate node sets per region (order-insensitive).
  for (RegionId R = 0; R < T.numRegions(); ++R) {
    auto ImmA = T.immediateNodes(R);
    std::vector<NodeId> A(ImmA.begin(), ImmA.end());
    std::vector<NodeId> B = Regions[IncOf[R]].Nodes;
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    if (A != B)
      return Fail("immediate node set mismatch at region " +
                  std::to_string(R));
  }
  return true;
}
