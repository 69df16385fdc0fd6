//===- Protocol.cpp - Line-oriented serving protocol --------------------------===//
//
// Part of the PST library (see Protocol.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/serve/Protocol.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>

using namespace pst;
using namespace pst::serve;

namespace {

/// Splits on runs of spaces/tabs.
std::vector<std::string_view> tokenize(std::string_view Line) {
  std::vector<std::string_view> Toks;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
    size_t Start = I;
    while (I < Line.size() && Line[I] != ' ' && Line[I] != '\t')
      ++I;
    if (I > Start)
      Toks.push_back(Line.substr(Start, I - Start));
  }
  return Toks;
}

bool parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Out > (UINT64_MAX - Digit) / 10)
      return false; // Would wrap: 2^64 + k must not alias k.
    Out = Out * 10 + Digit;
  }
  return true;
}

bool parseNode(std::string_view S, NodeId &Out) {
  uint64_t V = 0;
  if (!parseU64(S, V) || V >= InvalidNode)
    return false;
  Out = static_cast<NodeId>(V);
  return true;
}

ParsedLine invalid(std::string Msg) {
  ParsedLine L;
  L.Kind = ParsedLine::Type::Query;
  L.Q.Kind = RequestKind::Invalid;
  L.Q.Error = std::move(Msg);
  return L;
}

/// Reads one '\n'-terminated line into \p Line, keeping at most
/// MaxLineBytes bytes: the excess of a longer line is consumed and
/// dropped, and \p Overlong is set. Returns false at end of input with
/// nothing read (a final unterminated line still counts as a line).
bool readBoundedLine(std::istream &In, std::string &Line, bool &Overlong) {
  Line.clear();
  Overlong = false;
  std::streambuf *Buf = In.rdbuf();
  bool ReadAny = false;
  for (;;) {
    int C = Buf->sbumpc();
    if (C == std::char_traits<char>::eof()) {
      In.setstate(std::ios::eofbit);
      return ReadAny;
    }
    ReadAny = true;
    if (C == '\n')
      return true;
    if (Line.size() < MaxLineBytes)
      Line.push_back(static_cast<char>(C));
    else
      Overlong = true;
  }
}

} // namespace

ParsedLine pst::serve::parseLine(std::string_view Line) {
  ParsedLine L;
  std::vector<std::string_view> T = tokenize(Line);
  if (T.empty() || T[0].front() == '#') {
    L.Kind = ParsedLine::Type::Empty;
    return L;
  }
  std::string_view Cmd = T[0];

  auto NeedArgs = [&](size_t N) { return T.size() == N + 1; };

  if (Cmd == "region" || Cmd == "regions" || Cmd == "cdep" || Cmd == "dom" ||
      Cmd == "phi" || Cmd == "name") {
    L.Kind = ParsedLine::Type::Query;
    if (T.size() < 2 || !parseU64(T[1], L.Q.Fn))
      return invalid("usage: " + std::string(Cmd) + " <fn> ...");
    if (Cmd == "region") {
      if (!NeedArgs(3) || !parseNode(T[2], L.Q.A) || !parseNode(T[3], L.Q.B))
        return invalid("usage: region <fn> <a> <b>");
      L.Q.Kind = RequestKind::Region;
    } else if (Cmd == "regions") {
      if (!NeedArgs(1))
        return invalid("usage: regions <fn>");
      L.Q.Kind = RequestKind::Regions;
    } else if (Cmd == "cdep") {
      if (!NeedArgs(2) || !parseNode(T[2], L.Q.A))
        return invalid("usage: cdep <fn> <node>");
      L.Q.Kind = RequestKind::Cdep;
    } else if (Cmd == "dom") {
      if (!NeedArgs(2) || !parseNode(T[2], L.Q.A))
        return invalid("usage: dom <fn> <node>");
      L.Q.Kind = RequestKind::Dom;
    } else if (Cmd == "phi") {
      if (!NeedArgs(2))
        return invalid("usage: phi <fn> <n1,n2,...>");
      // Every comma-separated token must be a node, so a leading, doubled
      // or trailing comma (an empty token) is rejected.
      std::string_view Defs = T[2];
      for (;;) {
        size_t Comma = Defs.find(',');
        NodeId N = InvalidNode;
        if (!parseNode(Defs.substr(0, Comma), N))
          return invalid("phi: bad def list");
        if (L.Q.Defs.size() == MaxPhiDefs)
          return invalid("phi: more than " + std::to_string(MaxPhiDefs) +
                         " defs");
        L.Q.Defs.push_back(N);
        if (Comma == std::string_view::npos)
          break;
        Defs.remove_prefix(Comma + 1);
      }
      L.Q.Kind = RequestKind::Phi;
    } else { // name
      if (!NeedArgs(1))
        return invalid("usage: name <fn>");
      L.Q.Kind = RequestKind::Name;
    }
    return L;
  }

  if (Cmd == "edit") {
    if (T.size() != 5 || !parseU64(T[1], L.Fn) || !parseNode(T[3], L.Src) ||
        !parseNode(T[4], L.Dst))
      return invalid("usage: edit <fn> insert|delete|split|addblock <src> "
                     "<dst>");
    std::string_view Op = T[2];
    if (Op == "insert")
      L.Op = ParsedLine::EditOp::Insert;
    else if (Op == "delete")
      L.Op = ParsedLine::EditOp::Delete;
    else if (Op == "split")
      L.Op = ParsedLine::EditOp::Split;
    else if (Op == "addblock")
      L.Op = ParsedLine::EditOp::AddBlock;
    else
      return invalid("edit: unknown op \"" + std::string(Op) + "\"");
    L.Kind = ParsedLine::Type::Edit;
    return L;
  }

  if (T.size() == 1) {
    if (Cmd == "commit") {
      L.Kind = ParsedLine::Type::Commit;
      return L;
    }
    if (Cmd == "verify") {
      L.Kind = ParsedLine::Type::Verify;
      return L;
    }
    if (Cmd == "epoch") {
      L.Kind = ParsedLine::Type::Epoch;
      return L;
    }
    if (Cmd == "stats") {
      L.Kind = ParsedLine::Type::Stats;
      return L;
    }
    if (Cmd == "quit") {
      L.Kind = ParsedLine::Type::Quit;
      return L;
    }
  }
  return invalid("unknown command \"" + std::string(Cmd) + "\"");
}

void ServerSession::flush(std::ostream &Out) {
  if (Pending.empty())
    return;
  std::vector<std::string> Responses;
  Server.executeBatch(Pending, Responses);
  for (const std::string &R : Responses)
    Out << R << '\n';
  Pending.clear();
}

std::string ServerSession::runBarrier(const ParsedLine &L) {
  switch (L.Kind) {
  case ParsedLine::Type::Edit: {
    if (L.Fn >= Server.numFunctions())
      return "err fn " + std::to_string(L.Fn) + " out of range (corpus has " +
             std::to_string(Server.numFunctions()) + " functions)";
    Shard &Sh = Server.shardOf(L.Fn);
    std::string Arrow =
        std::to_string(L.Src) + "->" + std::to_string(L.Dst);
    switch (L.Op) {
    case ParsedLine::EditOp::Insert: {
      EdgeId E = Sh.insertEdge(L.Fn, L.Src, L.Dst);
      if (E == InvalidEdge)
        return "err edit fn=" + std::to_string(L.Fn) + " insert " + Arrow +
               " rejected";
      return "ok edit fn=" + std::to_string(L.Fn) + " insert " + Arrow +
             " edge=" + std::to_string(E);
    }
    case ParsedLine::EditOp::Delete:
      if (!Sh.deleteEdge(L.Fn, L.Src, L.Dst))
        return "err edit fn=" + std::to_string(L.Fn) + " delete " + Arrow +
               " rejected";
      return "ok edit fn=" + std::to_string(L.Fn) + " delete " + Arrow;
    case ParsedLine::EditOp::Split: {
      NodeId N = Sh.splitBlock(L.Fn, L.Src, L.Dst);
      if (N == InvalidNode)
        return "err edit fn=" + std::to_string(L.Fn) + " split " + Arrow +
               " rejected";
      return "ok edit fn=" + std::to_string(L.Fn) + " split " + Arrow +
             " node=" + std::to_string(N);
    }
    case ParsedLine::EditOp::AddBlock: {
      NodeId N = Sh.addBlock(L.Fn, L.Src, L.Dst);
      if (N == InvalidNode)
        return "err edit fn=" + std::to_string(L.Fn) + " addblock " + Arrow +
               " rejected";
      return "ok edit fn=" + std::to_string(L.Fn) + " addblock " + Arrow +
             " node=" + std::to_string(N);
    }
    }
    return "err edit: unreachable";
  }
  case ParsedLine::Type::Commit: {
    std::string Versions;
    for (uint32_t I = 0; I < Server.numShards(); ++I) {
      uint64_t V = Server.shard(I).commit();
      if (I)
        Versions += ',';
      Versions += std::to_string(V);
    }
    return "ok commit versions=[" + Versions + "]";
  }
  case ParsedLine::Type::Verify: {
    for (uint32_t I = 0; I < Server.numShards(); ++I) {
      std::string Why;
      if (!Server.shard(I).verifyPublished(&Why))
        return "err verify shard " + std::to_string(I) + ": " + Why;
    }
    return "ok verify shards=" + std::to_string(Server.numShards()) +
           " identical";
  }
  case ParsedLine::Type::Epoch: {
    std::string Versions, Pending;
    for (uint32_t I = 0; I < Server.numShards(); ++I) {
      if (I) {
        Versions += ',';
        Pending += ',';
      }
      Versions += std::to_string(Server.shard(I).currentVersion());
      Pending += std::to_string(Server.shard(I).pendingFunctions());
    }
    return "ok epoch versions=[" + Versions + "] pending=[" + Pending + "]";
  }
  case ParsedLine::Type::Stats: {
    ShardStats Total;
    for (uint32_t I = 0; I < Server.numShards(); ++I) {
      ShardStats S = Server.shard(I).stats();
      Total.Edits += S.Edits;
      Total.EditsRejected += S.EditsRejected;
      Total.Commits += S.Commits;
      Total.Refrozen += S.Refrozen;
      Total.Published += S.Published;
      Total.Reclaimed += S.Reclaimed;
    }
    return "ok stats edits=" + std::to_string(Total.Edits) +
           " rejected=" + std::to_string(Total.EditsRejected) +
           " commits=" + std::to_string(Total.Commits) +
           " refrozen=" + std::to_string(Total.Refrozen) +
           " published=" + std::to_string(Total.Published) +
           " reclaimed=" + std::to_string(Total.Reclaimed);
  }
  case ParsedLine::Type::Quit:
    return "ok bye";
  case ParsedLine::Type::Query:
  case ParsedLine::Type::Empty:
    break;
  }
  return "err internal: not a barrier command";
}

void ServerSession::run(std::istream &In, std::ostream &Out) {
  std::string Line;
  bool Overlong = false;
  while (readBoundedLine(In, Line, Overlong)) {
    ParsedLine L = Overlong ? invalid("line exceeds " +
                                      std::to_string(MaxLineBytes) + " bytes")
                            : parseLine(Line);
    switch (L.Kind) {
    case ParsedLine::Type::Empty:
      continue;
    case ParsedLine::Type::Query:
      Pending.push_back(std::move(L.Q));
      if (Pending.size() >= MaxBatch)
        flush(Out);
      break;
    case ParsedLine::Type::Quit:
      flush(Out);
      Out << runBarrier(L) << '\n';
      Out.flush();
      return;
    default:
      flush(Out);
      Out << runBarrier(L) << '\n';
      break;
    }
    // Interactive clients expect responses promptly; flushing the stream
    // (not the batch) after barriers keeps pipes usable. Batched reads
    // flush at barriers/EOF/cap only, keeping transcripts deterministic.
    if (L.Kind != ParsedLine::Type::Query)
      Out.flush();
  }
  flush(Out);
  Out.flush();
}
