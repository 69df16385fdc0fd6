//===- SsaBuilder.cpp - Full SSA construction -----------------------------------===//
//
// Part of the PST library (see PhiPlacement.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/ssa/SsaBuilder.h"

#include "pst/dom/Dominators.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace pst;

SsaForm pst::buildSsa(const LoweredFunction &F, const PhiPlacement &P) {
  const Cfg &G = F.Graph;
  uint32_t N = G.numNodes();
  DomTree DT = DomTree::buildIterative(FrozenCfg(G));

  SsaForm S;
  S.Phis.resize(N);
  S.Versions.resize(N);
  S.NumVersions.assign(F.numVars(), 1); // Version 0 = undef.

  // Materialize empty phis at the placed blocks.
  for (VarId V = 0; V < F.numVars(); ++V) {
    for (NodeId B : P.PhiBlocks[V]) {
      SsaPhi Phi;
      Phi.Var = V;
      Phi.Incoming.reserve(G.predEdges(B).size());
      for (EdgeId E : G.predEdges(B))
        Phi.Incoming.emplace_back(E, 0);
      S.Phis[B].push_back(std::move(Phi));
    }
  }
  for (NodeId B = 0; B < N; ++B)
    S.Versions[B].resize(F.Code[B].size());

  // Standard renaming: preorder walk of the dominator tree with per-var
  // version stacks; explicit stack with an "unwind count" per frame.
  std::vector<std::vector<uint32_t>> Stacks(F.numVars(),
                                            std::vector<uint32_t>{0});
  struct Frame {
    NodeId Block;
    uint32_t ChildIdx;
    std::vector<VarId> Pushed; // To pop on unwind.
    bool Expanded = false;
  };
  std::vector<Frame> Walk;
  Walk.push_back(Frame{G.entry(), 0, {}, false});

  while (!Walk.empty()) {
    Frame &Fr = Walk.back();
    NodeId B = Fr.Block;
    if (!Fr.Expanded) {
      Fr.Expanded = true;
      // Phi definitions first.
      for (SsaPhi &Phi : S.Phis[B]) {
        Phi.DefVersion = S.NumVersions[Phi.Var]++;
        Stacks[Phi.Var].push_back(Phi.DefVersion);
        Fr.Pushed.push_back(Phi.Var);
      }
      // Then straight-line code: uses read the stack, defs push.
      for (size_t I = 0; I < F.Code[B].size(); ++I) {
        const Instruction &Ins = F.Code[B][I];
        SsaInstrVersions &Ver = S.Versions[B][I];
        Ver.UseVersions.reserve(Ins.Uses.size());
        for (VarId U : Ins.Uses)
          Ver.UseVersions.push_back(Stacks[U].back());
        if (Ins.Def != InvalidVar) {
          Ver.DefVersion = S.NumVersions[Ins.Def]++;
          Stacks[Ins.Def].push_back(Ver.DefVersion);
          Fr.Pushed.push_back(Ins.Def);
        }
      }
      // Fill phi operands of successors.
      for (EdgeId E : G.succEdges(B)) {
        NodeId Succ = G.target(E);
        for (SsaPhi &Phi : S.Phis[Succ]) {
          for (auto &[InEdge, Version] : Phi.Incoming)
            if (InEdge == E)
              Version = Stacks[Phi.Var].back();
        }
      }
    }
    std::span<const NodeId> Kids = DT.children(B);
    if (Fr.ChildIdx < Kids.size()) {
      NodeId C = Kids[Fr.ChildIdx++];
      Walk.push_back(Frame{C, 0, {}, false});
      continue;
    }
    for (auto It = Fr.Pushed.rbegin(); It != Fr.Pushed.rend(); ++It)
      Stacks[*It].pop_back();
    Walk.pop_back();
  }
  return S;
}

bool pst::verifySsa(const LoweredFunction &F, const SsaForm &S,
                    std::string *Why) {
  const Cfg &G = F.Graph;
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };
  DomTree DT = DomTree::buildIterative(FrozenCfg(G));

  // Collect each version's defining block; detect double definitions.
  // DefBlock[v][k] = block defining version k (entry for version 0).
  std::vector<std::vector<NodeId>> DefBlock(F.numVars());
  for (VarId V = 0; V < F.numVars(); ++V)
    DefBlock[V].assign(S.NumVersions[V], InvalidNode);
  for (VarId V = 0; V < F.numVars(); ++V)
    DefBlock[V][0] = G.entry();

  auto Define = [&](VarId V, uint32_t Ver, NodeId B) {
    if (Ver == 0 || Ver >= S.NumVersions[V])
      return false;
    if (DefBlock[V][Ver] != InvalidNode)
      return false;
    DefBlock[V][Ver] = B;
    return true;
  };

  for (NodeId B = 0; B < G.numNodes(); ++B) {
    for (const SsaPhi &Phi : S.Phis[B]) {
      if (!Define(Phi.Var, Phi.DefVersion, B))
        return Fail("phi defines version twice or out of range in block " +
                    G.nodeName(B));
      if (Phi.Incoming.size() != G.predEdges(B).size())
        return Fail("phi operand count mismatch in block " + G.nodeName(B));
    }
    for (size_t I = 0; I < F.Code[B].size(); ++I) {
      const Instruction &Ins = F.Code[B][I];
      if (Ins.Def != InvalidVar &&
          !Define(Ins.Def, S.Versions[B][I].DefVersion, B))
        return Fail("instruction defines version twice in block " +
                    G.nodeName(B));
      if (S.Versions[B][I].UseVersions.size() != Ins.Uses.size())
        return Fail("use version count mismatch in block " + G.nodeName(B));
    }
  }
  for (VarId V = 0; V < F.numVars(); ++V)
    for (uint32_t K = 0; K < S.NumVersions[V]; ++K)
      if (DefBlock[V][K] == InvalidNode)
        return Fail("version never defined: " + F.VarNames[V] + "." +
                    std::to_string(K));

  // Dominance: straight-line uses must be dominated by their defs; phi
  // operands by the end of the corresponding predecessor. (Same-block
  // ordering is guaranteed by the renaming walk; we check block-level
  // dominance here.)
  for (NodeId B = 0; B < G.numNodes(); ++B) {
    for (size_t I = 0; I < F.Code[B].size(); ++I) {
      const Instruction &Ins = F.Code[B][I];
      for (size_t U = 0; U < Ins.Uses.size(); ++U) {
        NodeId DB = DefBlock[Ins.Uses[U]][S.Versions[B][I].UseVersions[U]];
        if (!DT.dominates(DB, B))
          return Fail("use of " + F.VarNames[Ins.Uses[U]] +
                      " not dominated by its definition in block " +
                      G.nodeName(B));
      }
    }
    for (const SsaPhi &Phi : S.Phis[B]) {
      for (const auto &[E, Ver] : Phi.Incoming) {
        NodeId Pred = G.source(E);
        NodeId DB = DefBlock[Phi.Var][Ver];
        if (!DT.dominates(DB, Pred))
          return Fail("phi operand not dominated by its definition at " +
                      G.nodeName(B));
      }
    }
  }
  if (Why)
    Why->clear();
  return true;
}

std::string pst::formatSsa(const LoweredFunction &F, const SsaForm &S) {
  const Cfg &G = F.Graph;
  std::ostringstream OS;
  for (NodeId B = 0; B < G.numNodes(); ++B) {
    OS << G.nodeName(B) << ":\n";
    for (const SsaPhi &Phi : S.Phis[B]) {
      OS << "  " << F.VarNames[Phi.Var] << "." << Phi.DefVersion
         << " = phi(";
      for (size_t I = 0; I < Phi.Incoming.size(); ++I) {
        if (I)
          OS << ", ";
        OS << F.VarNames[Phi.Var] << "." << Phi.Incoming[I].second;
      }
      OS << ")\n";
    }
    for (size_t I = 0; I < F.Code[B].size(); ++I) {
      const Instruction &Ins = F.Code[B][I];
      OS << "  " << Ins.Text;
      if (Ins.Def != InvalidVar)
        OS << "  [defines " << F.VarNames[Ins.Def] << "."
           << S.Versions[B][I].DefVersion << "]";
      OS << "\n";
    }
  }
  return OS.str();
}
