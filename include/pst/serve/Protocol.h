//===- pst/serve/Protocol.h - Line-oriented serving protocol ----*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text protocol `pstserve` speaks: one request per line, exactly one
/// response line per non-empty request line, `ok ...` or `err ...`.
///
/// Read queries (parallelizable):
///
///   region <fn> <a> <b>     innermost region containing nodes a and b
///   regions <fn>            region count / max depth summary
///   cdep <fn> <n>           control-dependence edge set of node n
///   dom <fn> <n>            immediate dominator of node n
///   phi <fn> <n1,n2,...>    iterated dominance frontier of the def set
///   name <fn>               function name
///
/// Barrier commands (serial, flush pending reads first):
///
///   edit <fn> insert <src> <dst>     journal an edge insertion
///   edit <fn> delete <src> <dst>     journal an edge deletion
///   edit <fn> split <src> <dst>      split the edge src->dst
///   edit <fn> addblock <src> <dst>   add a block between src and dst
///   commit                  commit + publish every shard's journal
///   verify                  byte-identity check of published snapshots
///   epoch                   per-shard published versions + pending counts
///   stats                   aggregated shard counters
///   quit                    end the session
///
/// Determinism contract: the session buffers consecutive read queries and
/// executes each batch on the server's pool, but responses are emitted in
/// input order, and batch boundaries depend only on the input text (a
/// barrier command or the batch-size cap flushes) — never on timing. So a
/// scripted session produces byte-identical transcripts at any worker
/// count, which is what the CI smoke test diffs against its golden file.
///
/// Resource bound: a request line longer than \c MaxLineBytes (the
/// `--listen` socket is untrusted input) gets exactly one `err` response,
/// in order, like any malformed request; the rest of its bytes are read
/// and discarded without being buffered, and the session continues. A
/// `phi` def list is capped at \c MaxPhiDefs blocks the same way.
///
//===----------------------------------------------------------------------===//

#ifndef PST_SERVE_PROTOCOL_H
#define PST_SERVE_PROTOCOL_H

#include "pst/serve/PstServer.h"

#include <iosfwd>

namespace pst {
namespace serve {

/// Longest request line a session accepts, excluding the newline. Far
/// above any well-formed request (a `phi` list of MaxPhiDefs five-digit
/// nodes fits), and the only per-line memory a client can make a session
/// hold.
inline constexpr size_t MaxLineBytes = 64 * 1024;

/// Most def blocks one `phi` request may name. A longer list parses as an
/// invalid request whose `err` line names the cap.
inline constexpr size_t MaxPhiDefs = 4096;

/// A parsed input line.
struct ParsedLine {
  enum class Type {
    Query,  ///< A read query; Q is filled (possibly RequestKind::Invalid).
    Edit,   ///< An edit barrier; the edit fields below are filled.
    Commit,
    Verify,
    Epoch,
    Stats,
    Quit,
    Empty, ///< Blank line (or comment); no response.
  };
  enum class EditOp { Insert, Delete, Split, AddBlock };

  Type Kind = Type::Empty;
  Request Q;

  EditOp Op = EditOp::Insert;
  uint64_t Fn = 0;
  NodeId Src = InvalidNode;
  NodeId Dst = InvalidNode;
};

/// Parses one line. Lines starting with '#' parse as Empty (comments, so
/// scripted sessions can annotate themselves). Malformed input parses as
/// a Query with RequestKind::Invalid carrying the diagnostic — it flows
/// through the normal response path as an `err` line.
ParsedLine parseLine(std::string_view Line);

/// One client session over a line stream. Drives a PstServer; sessions
/// must not run concurrently (the protocol's write commands use the
/// single-writer shard API).
class ServerSession {
public:
  /// \p MaxBatch caps how many consecutive read queries are buffered
  /// before a flush (content-determined, so transcripts stay stable).
  explicit ServerSession(PstServer &Server, size_t MaxBatch = 256)
      : Server(Server), MaxBatch(MaxBatch ? MaxBatch : 1) {}

  /// Reads requests from \p In until EOF or `quit`, writing one response
  /// line per request line to \p Out.
  void run(std::istream &In, std::ostream &Out);

private:
  void flush(std::ostream &Out);
  std::string runBarrier(const ParsedLine &L);

  PstServer &Server;
  size_t MaxBatch;
  std::vector<Request> Pending;
};

} // namespace serve
} // namespace pst

#endif // PST_SERVE_PROTOCOL_H
