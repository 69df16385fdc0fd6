//===- ProgramStructureTree.cpp - The PST -----------------------------------===//
//
// Part of the PST library (see ProgramStructureTree.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"

#include "pst/graph/CfgAlgorithms.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace pst;

void ProgramStructureTree::bindOwned() {
  RegionsA = Regions;
  NodeRegionA = NodeRegion;
  EdgeRegionA = EdgeRegion;
  EntryOfA = EntryOf;
  ExitOfA = ExitOf;
  ChildOffA = ChildOff;
  ChildValA = ChildVal;
  ImmOffA = ImmOff;
  ImmValA = ImmVal;
  External = false;
}

ProgramStructureTree::ProgramStructureTree(const ProgramStructureTree &O)
    : Regions(O.Regions), NodeRegion(O.NodeRegion), EdgeRegion(O.EdgeRegion),
      EntryOf(O.EntryOf), ExitOf(O.ExitOf), ChildOff(O.ChildOff),
      ChildVal(O.ChildVal), ImmOff(O.ImmOff), ImmVal(O.ImmVal), CE(O.CE) {
  if (O.External) {
    // Adopted tree: the copy aliases the same external storage.
    RegionsA = O.RegionsA;
    NodeRegionA = O.NodeRegionA;
    EdgeRegionA = O.EdgeRegionA;
    EntryOfA = O.EntryOfA;
    ExitOfA = O.ExitOfA;
    ChildOffA = O.ChildOffA;
    ChildValA = O.ChildValA;
    ImmOffA = O.ImmOffA;
    ImmValA = O.ImmValA;
    External = true;
  } else {
    bindOwned();
  }
}

ProgramStructureTree &
ProgramStructureTree::operator=(const ProgramStructureTree &O) {
  if (this != &O) {
    ProgramStructureTree Tmp(O);
    *this = std::move(Tmp);
  }
  return *this;
}

ProgramStructureTree ProgramStructureTree::adoptExternal(
    std::span<const SeseRegion> Regions, std::span<const RegionId> NodeRegion,
    std::span<const RegionId> EdgeRegion, std::span<const RegionId> EntryOf,
    std::span<const RegionId> ExitOf, std::span<const uint32_t> ChildOff,
    std::span<const RegionId> ChildVal, std::span<const uint32_t> ImmOff,
    std::span<const NodeId> ImmVal) {
  ProgramStructureTree T;
  T.RegionsA = Regions;
  T.NodeRegionA = NodeRegion;
  T.EdgeRegionA = EdgeRegion;
  T.EntryOfA = EntryOf;
  T.ExitOfA = ExitOf;
  T.ChildOffA = ChildOff;
  T.ChildValA = ChildVal;
  T.ImmOffA = ImmOff;
  T.ImmValA = ImmVal;
  T.External = true;
  return T;
}

ProgramStructureTree ProgramStructureTree::build(const CfgView &V,
                                                 PstBuildScratch &Scratch) {
  PST_SPAN("pst.build");
  return buildWithCycleEquiv(
      V, computeCycleEquivalence(V, /*AddReturnEdge=*/true, Scratch.CE),
      Scratch);
}

ProgramStructureTree ProgramStructureTree::build(const CfgView &V) {
  PstBuildScratch Scratch;
  return build(V, Scratch);
}

ProgramStructureTree
ProgramStructureTree::buildWithCycleEquiv(const CfgView &G, CycleEquivResult CE,
                                          PstBuildScratch &S) {
  // Region pairing + nesting only; the cycle-equivalence span nests under
  // pst.build when the caller came through build().
  PST_SPAN("pst.construct");
  assert(CE.HasReturnEdge && CE.EdgeClass.size() == G.numEdges() + 1 &&
         "CE must be a return-edge run over G");
  ProgramStructureTree T;
  T.CE = std::move(CE);
  uint32_t NumE = G.numEdges();

  // -- Pass 1: one directed DFS from entry recording the first-traversal
  // time of every edge. Within a cycle equivalence class this order is the
  // dominance order (a dominator is traversed before anything it
  // dominates on every walk from entry).
  S.EdgeTime.assign(NumE, UINT32_MAX);
  {
    uint32_t Clock = 0;
    S.Visited.assign(G.numNodes(), 0);
    S.Stack.clear();
    S.Visited[G.entry()] = 1;
    S.Stack.emplace_back(G.entry(), 0);
    while (!S.Stack.empty()) {
      auto &[V, Next] = S.Stack.back();
      const auto &Succs = G.succEdges(V);
      if (Next == Succs.size()) {
        S.Stack.pop_back();
        continue;
      }
      EdgeId E = Succs[Next++];
      S.EdgeTime[E] = Clock++;
      NodeId W = G.target(E);
      if (!S.Visited[W]) {
        S.Visited[W] = 1;
        S.Stack.emplace_back(W, 0);
      }
    }
  }

  // -- Pass 2: group real edges by class (a CSR offset/value array built
  // in two counting passes; per-class std::vector buckets would dominate
  // the allocation profile on the tiny procedures real corpora are made
  // of) and pair consecutive edges (in traversal-time order) into
  // canonical regions.
  uint32_t NumClasses = T.CE.NumClasses;
  S.ClassOff.assign(NumClasses + 1, 0);
  for (EdgeId E = 0; E < NumE; ++E) {
    assert(S.EdgeTime[E] != UINT32_MAX && "edge unreachable; CFG is invalid");
    ++S.ClassOff[T.CE.classOf(E) + 1];
  }
  // The class sizes fix the region count exactly (one region per
  // consecutive same-class pair, plus the synthetic root), so the region
  // table can be reserved to size: no doubling-growth reallocations.
  uint32_t NumRegions = 1;
  for (uint32_t C = 0; C < NumClasses; ++C)
    if (uint32_t Size = S.ClassOff[C + 1]; Size >= 2)
      NumRegions += Size - 1;
  T.Regions.reserve(NumRegions);
  for (uint32_t C = 0; C < NumClasses; ++C)
    S.ClassOff[C + 1] += S.ClassOff[C];
  S.ClassCursor.assign(S.ClassOff.begin(), S.ClassOff.end() - 1);
  S.ClassEdges.resize(NumE);
  for (EdgeId E = 0; E < NumE; ++E)
    S.ClassEdges[S.ClassCursor[T.CE.classOf(E)]++] = E;

  T.Regions.push_back(SeseRegion{}); // Synthetic root, id 0.
  T.EntryOf.assign(NumE, InvalidRegion);
  T.ExitOf.assign(NumE, InvalidRegion);
  for (uint32_t C = 0; C < NumClasses; ++C) {
    EdgeId *Begin = S.ClassEdges.data() + S.ClassOff[C];
    EdgeId *End = S.ClassEdges.data() + S.ClassOff[C + 1];
    if (End - Begin < 2)
      continue;
    std::sort(Begin, End, [&](EdgeId A, EdgeId B) {
      return S.EdgeTime[A] < S.EdgeTime[B];
    });
    for (EdgeId *I = Begin; I + 1 != End; ++I) {
      RegionId R = static_cast<RegionId>(T.Regions.size());
      SeseRegion Reg;
      Reg.EntryEdge = I[0];
      Reg.ExitEdge = I[1];
      T.Regions.push_back(Reg);
      // Only the first region opened by an edge is canonical for it; a
      // chain a,b,c yields (a,b) and (b,c) -- never (a,c).
      T.EntryOf[I[0]] = R;
      T.ExitOf[I[1]] = R;
    }
  }
  assert(T.Regions.size() == NumRegions && "region count mismatch");

  // -- Pass 3: replay the same DFS, assigning every traversed edge and
  // every discovered node its innermost region, and wiring up parents.
  // Exiting a region pops to that region's parent (already known: the
  // entry edge dominates the exit edge, so it was traversed first);
  // entering a region records the current region as its parent. The
  // sequence of entered regions is kept: its per-parent subsequences are
  // chronological, which is exactly the child order the tree exposes.
  T.NodeRegion.assign(G.numNodes(), T.root());
  T.EdgeRegion.assign(NumE, T.root());
  S.EntrySeq.clear();
  S.EntrySeq.reserve(NumRegions - 1);
  {
    S.Visited.assign(G.numNodes(), 0);
    S.Stack.clear();
    S.Visited[G.entry()] = 1;
    T.NodeRegion[G.entry()] = T.root();
    S.Stack.emplace_back(G.entry(), 0);
    while (!S.Stack.empty()) {
      auto &[V, Next] = S.Stack.back();
      const auto &Succs = G.succEdges(V);
      if (Next == Succs.size()) {
        S.Stack.pop_back();
        continue;
      }
      EdgeId E = Succs[Next++];
      RegionId Cur = T.NodeRegion[V];
      if (RegionId Exited = T.ExitOf[E]; Exited != InvalidRegion)
        Cur = T.Regions[Exited].Parent;
      if (RegionId Entered = T.EntryOf[E]; Entered != InvalidRegion) {
        T.Regions[Entered].Parent = Cur;
        T.Regions[Entered].Depth = T.Regions[Cur].Depth + 1;
        S.EntrySeq.push_back(Entered);
        Cur = Entered;
      }
      T.EdgeRegion[E] = Cur;
      NodeId W = G.target(E);
      if (!S.Visited[W]) {
        S.Visited[W] = 1;
        T.NodeRegion[W] = Cur;
        S.Stack.emplace_back(W, 0);
      }
    }
  }

  // Children CSR: counting pass over the entry sequence, scatter in entry
  // order (preserves per-parent chronological order).
  T.ChildOff.assign(NumRegions + 1, 0);
  for (RegionId R : S.EntrySeq)
    ++T.ChildOff[T.Regions[R].Parent + 1];
  for (size_t I = 1; I < T.ChildOff.size(); ++I)
    T.ChildOff[I] += T.ChildOff[I - 1];
  S.RegionCursor.assign(T.ChildOff.begin(), T.ChildOff.end() - 1);
  T.ChildVal.resize(S.EntrySeq.size());
  for (RegionId R : S.EntrySeq)
    T.ChildVal[S.RegionCursor[T.Regions[R].Parent]++] = R;

  // Immediate-node CSR: counting pass over NodeRegion, scatter in node-id
  // order (the discovery order the per-region vectors used to get).
  T.ImmOff.assign(NumRegions + 1, 0);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ++T.ImmOff[T.NodeRegion[N] + 1];
  for (size_t I = 1; I < T.ImmOff.size(); ++I)
    T.ImmOff[I] += T.ImmOff[I - 1];
  S.RegionCursor.assign(T.ImmOff.begin(), T.ImmOff.end() - 1);
  T.ImmVal.resize(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    T.ImmVal[S.RegionCursor[T.NodeRegion[N]]++] = N;

  T.bindOwned();
  PST_COUNTER("pst.builds", 1);
  PST_COUNTER("pst.canonical_regions", T.numCanonicalRegions());
  PST_VALUE("pst.regions_per_build", T.numCanonicalRegions());
  return T;
}

std::vector<NodeId> ProgramStructureTree::allNodes(RegionId R) const {
  std::vector<NodeId> Out;
  std::vector<RegionId> Work{R};
  while (!Work.empty()) {
    RegionId Cur = Work.back();
    Work.pop_back();
    auto Imm = immediateNodes(Cur);
    Out.insert(Out.end(), Imm.begin(), Imm.end());
    for (RegionId C : children(Cur))
      Work.push_back(C);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool ProgramStructureTree::contains(RegionId Outer, RegionId Inner) const {
  while (Inner != InvalidRegion) {
    if (Inner == Outer)
      return true;
    Inner = RegionsA[Inner].Parent;
  }
  return false;
}
