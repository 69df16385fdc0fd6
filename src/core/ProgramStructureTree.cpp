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
#include <cstring>
#include <new>
#include <utility>

using namespace pst;

// Every array holds 4-byte elements (a SeseRegion is four of them), so
// back-to-back placement keeps each one aligned.
static_assert(alignof(SeseRegion) == alignof(uint32_t) &&
                  sizeof(SeseRegion) % alignof(uint32_t) == 0,
              "back-to-back arrays must stay aligned");

size_t ProgramStructureTree::bufferBytes(size_t N, size_t R) {
  // Regions; NodeRegion + ImmVal; ChildOff + ImmOff (R + 1 each) +
  // ChildVal (R - 1).
  return R * sizeof(SeseRegion) + (2 * N + 3 * R + 1) * sizeof(uint32_t);
}

void ProgramStructureTree::allocate(uint32_t N, uint32_t R) {
  Storage = std::make_unique_for_overwrite<std::byte[]>(bufferBytes(N, R));
  std::byte *At = Storage.get();
  // Byte storage implicitly creates the arrays' objects; launder turns the
  // byte address into a pointer to them.
  auto Take = [&]<class T>(std::span<const T> &Span, size_t Count) {
    Span = {std::launder(reinterpret_cast<const T *>(At)), Count};
    At += Count * sizeof(T);
  };
  Take(Arr.Regions, R);
  Take(Arr.NodeRegion, N);
  Take(Arr.ChildOff, size_t(R) + 1);
  Take(Arr.ChildVal, size_t(R) - 1);
  Take(Arr.ImmOff, size_t(R) + 1);
  Take(Arr.ImmVal, N);
  External = false;
}

ProgramStructureTree::ProgramStructureTree(const ProgramStructureTree &O)
    : Arr(O.Arr), External(O.External) {
  // An adopted (or empty) tree's copy aliases the same storage; a built
  // tree's copy gets a buffer of its own.
  if (!O.Storage)
    return;
  const uint32_t N = static_cast<uint32_t>(O.Arr.NodeRegion.size());
  allocate(N, O.numRegions());
  std::memcpy(Storage.get(), O.Storage.get(), bufferBytes(N, O.numRegions()));
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
    std::span<const uint32_t> ChildOff, std::span<const RegionId> ChildVal,
    std::span<const uint32_t> ImmOff, std::span<const NodeId> ImmVal) {
  ProgramStructureTree T;
  T.Arr = {Regions, NodeRegion, ChildOff, ChildVal, ImmOff, ImmVal};
  T.External = true;
  return T;
}

ProgramStructureTree ProgramStructureTree::build(const CfgView &V,
                                                 PstBuildScratch &Scratch) {
  PST_SPAN("pst.build");
  CycleEquivClasses C = computeCycleEquivalenceInPlace(V, Scratch.CE);
  return buildWithCycleEquiv(V, C.EdgeClass, C.NumClasses, Scratch);
}

ProgramStructureTree ProgramStructureTree::build(const CfgView &V) {
  PstBuildScratch Scratch;
  return build(V, Scratch);
}

ProgramStructureTree
ProgramStructureTree::buildWithCycleEquiv(const CfgView &G, CycleEquivResult CE,
                                          PstBuildScratch &S) {
  assert(CE.HasReturnEdge && CE.EdgeClass.size() == G.numEdges() + 1 &&
         "CE must be a return-edge run over G");
  return buildWithCycleEquiv(G, CE.EdgeClass, CE.NumClasses, S);
}

ProgramStructureTree
ProgramStructureTree::buildWithCycleEquiv(const CfgView &G,
                                          std::span<const uint32_t> EdgeClass,
                                          uint32_t NumClasses,
                                          PstBuildScratch &S) {
  // Region pairing + nesting only; the cycle-equivalence span nests under
  // pst.build when the caller came through build().
  PST_SPAN("pst.construct");
  assert(EdgeClass.size() == G.numEdges() + 1 &&
         "one class per edge of S, return edge last");
  const uint32_t NumN = G.numNodes();
  const uint32_t NumE = G.numEdges();

  // -- Pass 1: one directed DFS from entry recording the first-traversal
  // time of every edge. Within a cycle equivalence class this order is the
  // dominance order (a dominator is traversed before anything it
  // dominates on every walk from entry).
  S.EdgeTime.assign(NumE, UINT32_MAX);
  {
    uint32_t Clock = 0;
    S.Visited.assign(NumN, 0);
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
  // canonical regions. Regions get temporary ids in pairing order, which
  // follows the solver's class numbering.
  S.ClassOff.assign(NumClasses + 1, 0);
  for (EdgeId E = 0; E < NumE; ++E) {
    assert(S.EdgeTime[E] != UINT32_MAX && "edge unreachable; CFG is invalid");
    ++S.ClassOff[EdgeClass[E] + 1];
  }
  // The class sizes fix the region count exactly (one region per
  // consecutive same-class pair, plus the synthetic root), which sizes
  // the tree's one buffer.
  uint32_t NumRegions = 1;
  for (uint32_t C = 0; C < NumClasses; ++C)
    if (uint32_t Size = S.ClassOff[C + 1]; Size >= 2)
      NumRegions += Size - 1;
  for (uint32_t C = 0; C < NumClasses; ++C)
    S.ClassOff[C + 1] += S.ClassOff[C];
  S.ClassCursor.assign(S.ClassOff.begin(), S.ClassOff.end() - 1);
  S.ClassEdges.resize(NumE);
  for (EdgeId E = 0; E < NumE; ++E)
    S.ClassEdges[S.ClassCursor[EdgeClass[E]]++] = E;

  ProgramStructureTree T;
  T.allocate(NumN, NumRegions);
  // The tree owns these arrays; they are const only to readers.
  auto Writable = []<class X>(std::span<const X> Span) {
    return const_cast<X *>(Span.data());
  };
  SeseRegion *Regions = Writable(T.Arr.Regions);
  RegionId *NodeRegion = Writable(T.Arr.NodeRegion);
  uint32_t *ChildOff = Writable(T.Arr.ChildOff);
  RegionId *ChildVal = Writable(T.Arr.ChildVal);
  uint32_t *ImmOff = Writable(T.Arr.ImmOff);
  NodeId *ImmVal = Writable(T.Arr.ImmVal);

  S.Paired.resize(NumRegions);
  S.Paired[0] = SeseRegion{}; // Synthetic root, id 0 in both numberings.
  S.EntryOf.assign(NumE, InvalidRegion);
  S.ExitOf.assign(NumE, InvalidRegion);
  RegionId NextPaired = 1;
  for (uint32_t C = 0; C < NumClasses; ++C) {
    EdgeId *Begin = S.ClassEdges.data() + S.ClassOff[C];
    EdgeId *End = S.ClassEdges.data() + S.ClassOff[C + 1];
    if (End - Begin < 2)
      continue;
    std::sort(Begin, End, [&](EdgeId A, EdgeId B) {
      return S.EdgeTime[A] < S.EdgeTime[B];
    });
    for (EdgeId *I = Begin; I + 1 != End; ++I) {
      RegionId R = NextPaired++;
      S.Paired[R] = SeseRegion{I[0], I[1], InvalidRegion, 0};
      // Only the first region opened by an edge is canonical for it; a
      // chain a,b,c yields (a,b) and (b,c) -- never (a,c).
      S.EntryOf[I[0]] = R;
      S.ExitOf[I[1]] = R;
    }
  }
  assert(NextPaired == NumRegions && "region count mismatch");

  // -- Pass 3: replay the same DFS, assigning every discovered node its
  // innermost region (the region current when the edge reaching it is
  // traversed), and wiring up parents.
  // Exiting a region pops to that region's parent (already known: the
  // entry edge dominates the exit edge, so it was traversed first);
  // entering a region records the current region as its parent. The
  // sequence of entered regions is kept: its per-parent subsequences are
  // chronological, which is exactly the child order the tree exposes.
  std::fill_n(NodeRegion, NumN, T.root());
  S.EntrySeq.clear();
  S.EntrySeq.reserve(NumRegions - 1);
  {
    S.Visited.assign(NumN, 0);
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
      RegionId Cur = NodeRegion[V];
      if (RegionId Exited = S.ExitOf[E]; Exited != InvalidRegion)
        Cur = S.Paired[Exited].Parent;
      if (RegionId Entered = S.EntryOf[E]; Entered != InvalidRegion) {
        S.Paired[Entered].Parent = Cur;
        S.Paired[Entered].Depth = S.Paired[Cur].Depth + 1;
        S.EntrySeq.push_back(Entered);
        Cur = Entered;
      }
      NodeId W = G.target(E);
      if (!S.Visited[W]) {
        S.Visited[W] = 1;
        NodeRegion[W] = Cur;
        S.Stack.emplace_back(W, 0);
      }
    }
  }

  // -- Renumber in preorder, children in entry order. Subtree sizes come
  // from the entry sequence backwards (children were entered after their
  // parent); then, forwards, each region takes its parent's next free id
  // and advances it past its own subtree. RegionCursor holds a region's
  // subtree size until it is numbered, then its next free child id.
  S.RegionCursor.assign(NumRegions, 1);
  for (auto It = S.EntrySeq.rbegin(); It != S.EntrySeq.rend(); ++It)
    S.RegionCursor[S.Paired[*It].Parent] += S.RegionCursor[*It];
  S.PreorderId.resize(NumRegions);
  S.PreorderId[0] = 0;
  S.RegionCursor[0] = 1;
  for (RegionId R : S.EntrySeq) {
    uint32_t &ParentNext = S.RegionCursor[S.Paired[R].Parent];
    S.PreorderId[R] = ParentNext;
    ParentNext += S.RegionCursor[R];
    S.RegionCursor[R] = S.PreorderId[R] + 1;
  }
  const RegionId *Id = S.PreorderId.data();

  // Region table in preorder, with the per-parent child counts; then the
  // children CSR, scattered in id order (siblings' preorder ids ascend in
  // entry order).
  std::fill_n(ChildOff, NumRegions + 1, 0);
  new (&Regions[0]) SeseRegion{};
  for (RegionId R = 1; R < NumRegions; ++R) {
    SeseRegion Reg = S.Paired[R];
    Reg.Parent = Id[Reg.Parent];
    ++ChildOff[Reg.Parent + 1];
    new (&Regions[Id[R]]) SeseRegion(Reg);
  }
  for (uint32_t I = 1; I <= NumRegions; ++I)
    ChildOff[I] += ChildOff[I - 1];
  S.RegionCursor.assign(ChildOff, ChildOff + NumRegions);
  for (RegionId R = 1; R < NumRegions; ++R)
    ChildVal[S.RegionCursor[Regions[R].Parent]++] = R;

  // Node regions in preorder ids, counted per region on the way; then the
  // immediate-node CSR, scattered in node-id order.
  std::fill_n(ImmOff, NumRegions + 1, 0);
  for (NodeId N = 0; N < NumN; ++N) {
    RegionId R = Id[NodeRegion[N]];
    NodeRegion[N] = R;
    ++ImmOff[R + 1];
  }
  for (uint32_t I = 1; I <= NumRegions; ++I)
    ImmOff[I] += ImmOff[I - 1];
  S.RegionCursor.assign(ImmOff, ImmOff + NumRegions);
  for (NodeId N = 0; N < NumN; ++N)
    ImmVal[S.RegionCursor[NodeRegion[N]]++] = N;

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
    Inner = Arr.Regions[Inner].Parent;
  }
  return false;
}
