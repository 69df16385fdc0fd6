//===- graph/CfgView.cpp - Frozen CSR adjacency snapshot ------------------===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/graph/CfgView.h"

namespace pst {

CfgView CfgView::build(const Cfg &G, CfgViewScratch &S) {
  const uint32_t N = G.numNodes();
  const uint32_t E = G.numEdges();
  S.SuccOff.assign(N + 2, 0);
  S.PredOff.assign(N + 2, 0);
  S.SuccEdge.resize(E);
  S.SuccTo.resize(E);
  S.PredEdge.resize(E);
  S.PredFrom.resize(E);
  S.EdgeSrc.resize(E);
  S.EdgeDst.resize(E);
  for (EdgeId Id = 0; Id < E; ++Id) {
    const Cfg::Edge &Ed = G.edge(Id);
    S.EdgeSrc[Id] = Ed.Src;
    S.EdgeDst[Id] = Ed.Dst;
  }
  return fillCsr(N, E, G.entry(), G.exit(), S.SuccOff.data(),
                 S.PredOff.data(), S.SuccEdge.data(), S.SuccTo.data(),
                 S.PredEdge.data(), S.PredFrom.data(), S.EdgeSrc.data(),
                 S.EdgeDst.data());
}

CfgView CfgView::fillCsr(uint32_t N, uint32_t E, NodeId Entry, NodeId Exit,
                         uint32_t *SuccOff, uint32_t *PredOff,
                         EdgeId *SuccEdge, NodeId *SuccTo, EdgeId *PredEdge,
                         NodeId *PredFrom, const NodeId *EdgeSrc,
                         const NodeId *EdgeDst) {
  // The offset arrays carry one extra leading slot (size N+2) so the
  // scatter pass can bump Off[v+1] as a cursor: after counting into
  // Off[v+2] and prefix-summing, Off[v+1] is the start of v's segment;
  // after scattering with Off[v+1]++ it has advanced to the start of v+1's
  // segment, leaving Off[0..N] exactly the final offsets. No separate
  // cursor array.
  for (EdgeId Id = 0; Id < E; ++Id) {
    ++SuccOff[EdgeSrc[Id] + 2];
    ++PredOff[EdgeDst[Id] + 2];
  }
  for (uint32_t V = 0; V + 1 <= N; ++V) {
    SuccOff[V + 2] += SuccOff[V + 1];
    PredOff[V + 2] += PredOff[V + 1];
  }
  for (EdgeId Id = 0; Id < E; ++Id) {
    uint32_t P = SuccOff[EdgeSrc[Id] + 1]++;
    SuccEdge[P] = Id;
    SuccTo[P] = EdgeDst[Id];
    uint32_t Q = PredOff[EdgeDst[Id] + 1]++;
    PredEdge[Q] = Id;
    PredFrom[Q] = EdgeSrc[Id];
  }
  return adopt(N, E, Entry, Exit, SuccOff, PredOff, SuccEdge, SuccTo,
               PredEdge, PredFrom, EdgeSrc, EdgeDst);
}

CfgView CfgView::adopt(uint32_t N, uint32_t E, NodeId Entry, NodeId Exit,
                       const uint32_t *SuccOff, const uint32_t *PredOff,
                       const EdgeId *SuccEdge, const NodeId *SuccTo,
                       const EdgeId *PredEdge, const NodeId *PredFrom,
                       const NodeId *EdgeSrc, const NodeId *EdgeDst) {
  CfgView V;
  V.N = N;
  V.E = E;
  V.EntryNode = Entry;
  V.ExitNode = Exit;
  V.SuccOffP = SuccOff;
  V.PredOffP = PredOff;
  V.SuccEdgeP = SuccEdge;
  V.SuccToP = SuccTo;
  V.PredEdgeP = PredEdge;
  V.PredFromP = PredFrom;
  V.EdgeSrcP = EdgeSrc;
  V.EdgeDstP = EdgeDst;
  return V;
}

} // namespace pst
