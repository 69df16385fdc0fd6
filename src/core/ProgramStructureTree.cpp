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

  // A class of k real edges pairs into k - 1 regions; with the synthetic
  // root that fixes the region count, which sizes the tree's one buffer.
  S.ClassLeft.assign(NumClasses, 0);
  for (EdgeId E = 0; E < NumE; ++E)
    ++S.ClassLeft[EdgeClass[E]];
  uint32_t NumRegions = 1;
  for (uint32_t Size : S.ClassLeft)
    if (Size >= 2)
      NumRegions += Size - 1;

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

  // -- One directed DFS from entry. Within a class it traverses the edges
  // in dominance order (a dominator is traversed before anything it
  // dominates on every walk from entry), so each traversed edge closes the
  // region its class's previous edge opened, popping to that region's
  // parent, and, unless it is its class's last edge, opens the next one
  // inside the current region. A chain a,b,c thus yields (a,b) and (b,c),
  // never (a,c). Regions take temporary ids in entry order, and each node
  // the region current when the DFS first reaches it (NodeRegion doubles
  // as the visited mark).
  S.Paired.resize(NumRegions);
  S.Paired[0] = SeseRegion{}; // Synthetic root, id 0 in both numberings.
  S.ClassOpen.assign(NumClasses, InvalidRegion);
  std::fill_n(NodeRegion, NumN, InvalidRegion);
  NodeRegion[G.entry()] = T.root();
  RegionId NextId = 1;
  [[maybe_unused]] uint32_t Traversed = 0;
  S.Stack.clear();
  S.Stack.emplace_back(G.entry(), 0);
  while (!S.Stack.empty()) {
    auto &[V, Next] = S.Stack.back();
    const auto &Succs = G.succEdges(V);
    if (Next == Succs.size()) {
      S.Stack.pop_back();
      continue;
    }
    EdgeId E = Succs[Next++];
    ++Traversed;
    uint32_t C = EdgeClass[E];
    RegionId Cur = NodeRegion[V];
    if (RegionId Exited = S.ClassOpen[C]; Exited != InvalidRegion) {
      S.Paired[Exited].ExitEdge = E;
      Cur = S.Paired[Exited].Parent;
    }
    S.ClassOpen[C] = InvalidRegion;
    if (--S.ClassLeft[C] != 0) {
      S.Paired[NextId] =
          SeseRegion{E, InvalidEdge, Cur, S.Paired[Cur].Depth + 1};
      S.ClassOpen[C] = Cur = NextId++;
    }
    NodeId W = G.target(E);
    if (NodeRegion[W] == InvalidRegion) {
      NodeRegion[W] = Cur;
      S.Stack.emplace_back(W, 0);
    }
  }
  assert(Traversed == NumE && "edge unreachable; CFG is invalid");
  assert(NextId == NumRegions && "region count mismatch");

  // -- Renumber in preorder, children in entry order, and lay out the
  // region table with its per-parent child counts. A region's entry-order
  // id is above its parent's, so subtree sizes add up in one descending
  // sweep; then, ascending, each region takes its parent's next free id and
  // advances it past its own subtree. RegionCursor holds a region's subtree
  // size until it is numbered, then its next free child id.
  S.RegionCursor.assign(NumRegions, 1);
  for (RegionId R = NumRegions - 1; R > 0; --R)
    S.RegionCursor[S.Paired[R].Parent] += S.RegionCursor[R];
  S.PreorderId.resize(NumRegions);
  RegionId *Id = S.PreorderId.data();
  Id[0] = 0;
  S.RegionCursor[0] = 1;
  std::fill_n(ChildOff, NumRegions + 1, 0);
  new (&Regions[0]) SeseRegion{};
  for (RegionId R = 1; R < NumRegions; ++R) {
    SeseRegion Reg = S.Paired[R];
    uint32_t &ParentNext = S.RegionCursor[Reg.Parent];
    Id[R] = ParentNext;
    ParentNext += S.RegionCursor[R];
    S.RegionCursor[R] = Id[R] + 1;
    Reg.Parent = Id[Reg.Parent];
    ++ChildOff[Reg.Parent + 1];
    new (&Regions[Id[R]]) SeseRegion(Reg);
  }

  // The children CSR, scattered in id order (siblings' preorder ids ascend
  // in entry order).
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
