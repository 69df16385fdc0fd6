//===- CfgIO.cpp - CFG (de)serialization -----------------------------------===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/graph/CfgIO.h"

#include <map>
#include <ostream>
#include <sstream>

using namespace pst;

void pst::printDot(const Cfg &G, std::ostream &OS, const std::string &Name) {
  OS << "digraph " << Name << " {\n";
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    OS << "  n" << N << " [label=\"" << G.nodeName(N) << "\"";
    if (N == G.entry())
      OS << ", shape=house";
    else if (N == G.exit())
      OS << ", shape=invhouse";
    OS << "];\n";
  }
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    OS << "  n" << G.source(E) << " -> n" << G.target(E) << " [label=\"e" << E
       << "\"];\n";
  OS << "}\n";
}

void pst::printCfgText(const Cfg &G, std::ostream &OS,
                       const std::string &Name) {
  OS << "cfg " << Name << "\n";
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    OS << "node " << G.nodeName(N);
    if (N == G.entry())
      OS << " entry";
    else if (N == G.exit())
      OS << " exit";
    OS << "\n";
  }
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    OS << "edge " << G.nodeName(G.source(E)) << " " << G.nodeName(G.target(E))
       << "\n";
  OS << "end\n";
}

std::optional<Cfg> pst::parseCfgText(std::istream &IS, std::string *Error) {
  auto Fail = [&](const std::string &Msg) -> std::optional<Cfg> {
    if (Error)
      *Error = Msg;
    return std::nullopt;
  };

  std::string Line;
  Cfg G;
  std::map<std::string, NodeId> ByLabel;
  bool SawHeader = false, SawEnd = false;
  size_t LineNo = 0;

  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Kw, Extra;
    if (!(LS >> Kw) || Kw[0] == '#')
      continue;
    std::string Where = "line " + std::to_string(LineNo) + ": ";
    if (SawEnd)
      return Fail(Where + "unexpected '" + Kw + "' after 'end'");
    if (Kw == "cfg") {
      std::string Name;
      if (SawHeader)
        return Fail(Where + "second 'cfg' header");
      if (!(LS >> Name))
        return Fail(Where + "cfg line missing name");
      SawHeader = true;
    } else if (!SawHeader) {
      return Fail(Where + "expected 'cfg <name>' header first");
    } else if (Kw == "node") {
      std::string Label, Role;
      if (!(LS >> Label))
        return Fail(Where + "node line missing label");
      if (ByLabel.count(Label))
        return Fail(Where + "duplicate node label '" + Label + "'");
      NodeId N = G.addNode(Label);
      ByLabel[Label] = N;
      if (LS >> Role) {
        bool IsEntry = Role == "entry";
        if (!IsEntry && Role != "exit")
          return Fail(Where + "unknown node role '" + Role + "'");
        NodeId Prev = IsEntry ? G.entry() : G.exit();
        if (Prev != InvalidNode)
          return Fail(Where + "second " + Role + " node '" + Label + "' ('" +
                      G.nodeName(Prev) + "' is already the " + Role + ")");
        if (IsEntry)
          G.setEntry(N);
        else
          G.setExit(N);
      }
    } else if (Kw == "edge") {
      std::string A, B;
      if (!(LS >> A >> B))
        return Fail(Where + "edge line needs two labels");
      auto IA = ByLabel.find(A), IB = ByLabel.find(B);
      if (IA == ByLabel.end())
        return Fail(Where + "unknown node '" + A + "'");
      if (IB == ByLabel.end())
        return Fail(Where + "unknown node '" + B + "'");
      G.addEdge(IA->second, IB->second);
    } else if (Kw == "end") {
      SawEnd = true;
    } else {
      return Fail(Where + "unknown keyword '" + Kw + "'");
    }
    if (LS >> Extra)
      return Fail(Where + "unexpected token '" + Extra + "' on " + Kw +
                  " line");
  }
  if (!SawHeader)
    return Fail("empty input: no 'cfg' header");
  if (!SawEnd)
    return Fail("missing 'end' line");
  if (G.entry() == InvalidNode)
    return Fail("no node marked 'entry'");
  if (G.exit() == InvalidNode)
    return Fail("no node marked 'exit'");
  return G;
}

std::optional<Cfg> pst::parseCfgText(const std::string &Text,
                                     std::string *Error) {
  std::istringstream IS(Text);
  return parseCfgText(IS, Error);
}
