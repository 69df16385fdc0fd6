//===- pstserve.cpp - Long-running sharded analysis server ----------------------===//
//
// Serves a frozen corpus image over the line protocol in
// pst/serve/Protocol.h: region lookups, control-dependence sets,
// dominators and phi placement against pinned epoch snapshots, with
// edits applied by per-shard writers and each commit refreezing the
// edited functions from scratch.
//
// Usage:
//   pstserve --image <file> [options]
//     --image <f>          corpus image to serve (CorpusImage::map; the
//                          zero-parse cold start — exits 1 if any section
//                          checksum mismatches)
//     --shards <n>         writer shards (default 4); function f lives in
//                          shard f % n
//     --threads <t>        query-pool workers (default 0 = hardware)
//     --epoch-capacity <k> epoch table slots per shard (default 64)
//     --batch <b>          max read queries buffered per parallel batch
//                          (default 256; use 1 for strictly interactive
//                          pipes — batching is content-deterministic
//                          either way)
//     --no-derived-cache   disable the per-epoch derived-analysis cache
//                          (DerivedCache.h) and recompute dominators/
//                          cdep/frontiers per query; responses are
//                          byte-identical either way (a CI smoke diffs
//                          both transcripts against one golden)
//     --listen <port>      accept TCP connections on <port> (one session
//                          at a time) instead of serving stdin
//     --stats              enable telemetry; print the stats dump
//                          (TelemetryRegistry::toJson) to stderr at exit
//     --stats-out <f>      enable telemetry; write the stats dump to <f>
//                          at exit
//     --trace-out <f>      enable span retention; write chrome-trace JSON
//                          to <f> at exit
//     --trace-sample <n>   keep every nth span per thread (survives the
//                          per-thread retention cap on long sessions)
//
// Responses are deterministic: a scripted session produces the same
// transcript at any --threads/--shards setting.
//
//===----------------------------------------------------------------------===//

#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"
#include "pst/serve/Protocol.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define PSTSERVE_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

// ext_stdio_filebuf is GNU-only; portable enough here is a tiny
// streambuf over a connected socket fd.
#include <streambuf>
#else
#define PSTSERVE_HAVE_SOCKETS 0
#endif

using namespace pst;
using namespace pst::serve;

namespace {

struct Options {
  std::string ImagePath;
  uint32_t Shards = 4;
  unsigned Threads = 0;
  uint32_t EpochCapacity = 64;
  size_t Batch = 256;
  int ListenPort = -1;
  bool DerivedCache = true;
  bool Stats = false;
  std::string StatsOut;
  std::string TraceOut;
  uint64_t TraceSample = 0;
};

int usage(const char *Argv0) {
  std::cerr << "usage: " << Argv0
            << " --image <file> [--shards n] [--threads t]"
               " [--epoch-capacity k] [--batch b] [--listen port]"
               " [--no-derived-cache] [--stats] [--stats-out f]"
               " [--trace-out f] [--trace-sample n]\n";
  return 2;
}

#if PSTSERVE_HAVE_SOCKETS

/// Minimal bidirectional streambuf over a connected socket.
class FdStreamBuf : public std::streambuf {
public:
  explicit FdStreamBuf(int Fd) : Fd(Fd) {
    setg(InBuf, InBuf, InBuf);
    setp(OutBuf, OutBuf + sizeof(OutBuf));
  }

protected:
  int underflow() override {
    ssize_t N = ::read(Fd, InBuf, sizeof(InBuf));
    if (N <= 0)
      return traits_type::eof();
    setg(InBuf, InBuf, InBuf + N);
    return traits_type::to_int_type(InBuf[0]);
  }

  int overflow(int C) override {
    if (sync() != 0)
      return traits_type::eof();
    if (C != traits_type::eof()) {
      OutBuf[0] = static_cast<char>(C);
      pbump(1);
    }
    return C;
  }

  int sync() override {
    const char *P = pbase();
    size_t Left = static_cast<size_t>(pptr() - pbase());
    while (Left) {
      ssize_t N = ::write(Fd, P, Left);
      if (N <= 0)
        return -1;
      P += N;
      Left -= static_cast<size_t>(N);
    }
    setp(OutBuf, OutBuf + sizeof(OutBuf));
    return 0;
  }

private:
  int Fd;
  char InBuf[4096];
  char OutBuf[4096];
};

int serveSocket(PstServer &Server, const Options &Opt) {
  int Listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::cerr << "error: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  int One = 1;
  ::setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Opt.ListenPort));
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Listener, 1) < 0) {
    std::cerr << "error: bind/listen: " << std::strerror(errno) << "\n";
    ::close(Listener);
    return 1;
  }
  std::cerr << "pstserve: listening on 127.0.0.1:" << Opt.ListenPort << "\n";
  // One client at a time: the protocol's write commands require the
  // single-writer shard contract, and sessions share the server state.
  for (;;) {
    int Client = ::accept(Listener, nullptr, nullptr);
    if (Client < 0)
      break;
    FdStreamBuf Buf(Client);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    ServerSession Session(Server, Opt.Batch);
    Session.run(In, Out);
    ::close(Client);
  }
  ::close(Listener);
  return 0;
}

#endif // PSTSERVE_HAVE_SOCKETS

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << Flag << " needs an argument\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--image")
      Opt.ImagePath = Next("--image");
    else if (A == "--shards")
      Opt.Shards = static_cast<uint32_t>(std::strtoul(Next("--shards"),
                                                      nullptr, 0));
    else if (A == "--threads")
      Opt.Threads = static_cast<unsigned>(std::strtoul(Next("--threads"),
                                                       nullptr, 0));
    else if (A == "--epoch-capacity")
      Opt.EpochCapacity = static_cast<uint32_t>(
          std::strtoul(Next("--epoch-capacity"), nullptr, 0));
    else if (A == "--batch")
      Opt.Batch = std::strtoull(Next("--batch"), nullptr, 0);
    else if (A == "--listen")
      Opt.ListenPort = static_cast<int>(std::strtol(Next("--listen"),
                                                    nullptr, 0));
    else if (A == "--no-derived-cache")
      Opt.DerivedCache = false;
    else if (A == "--stats")
      Opt.Stats = true;
    else if (A == "--stats-out")
      Opt.StatsOut = Next("--stats-out");
    else if (A == "--trace-out")
      Opt.TraceOut = Next("--trace-out");
    else if (A == "--trace-sample")
      Opt.TraceSample = std::strtoull(Next("--trace-sample"), nullptr, 0);
    else
      return usage(Argv[0]);
  }
  if (Opt.ImagePath.empty())
    return usage(Argv[0]);

  if (Opt.Stats || !Opt.StatsOut.empty() || !Opt.TraceOut.empty())
    Telemetry::setEnabled(true);
  if (!Opt.TraceOut.empty())
    Telemetry::setTraceEnabled(true);
  if (Opt.TraceSample)
    Telemetry::setSpanSampleEvery(Opt.TraceSample);

  ServeOptions SOpts;
  SOpts.NumShards = Opt.Shards ? Opt.Shards : 1;
  SOpts.NumThreads = Opt.Threads;
  SOpts.EpochCapacity = Opt.EpochCapacity;
  SOpts.DerivedCache = Opt.DerivedCache;

  std::string Error;
  std::unique_ptr<PstServer> Server =
      PstServer::open(Opt.ImagePath, SOpts, &Error);
  if (!Server) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cerr << "pstserve: serving " << Server->numFunctions()
            << " functions in " << Server->numShards() << " shards, "
            << Server->numWorkers() << " query workers\n";

  int Rc = 0;
  if (Opt.ListenPort >= 0) {
#if PSTSERVE_HAVE_SOCKETS
    Rc = serveSocket(*Server, Opt);
#else
    std::cerr << "error: --listen is not supported on this platform\n";
    return 2;
#endif
  } else {
    ServerSession Session(*Server, Opt.Batch);
    Session.run(std::cin, std::cout);
  }

  // Post-session reporting (quiescent: the session loop has joined every
  // pool job before returning).
  if (!Opt.TraceOut.empty()) {
    TraceWriter Writer;
    if (Writer.writeFile(Opt.TraceOut))
      std::cerr << "pstserve: wrote trace to " << Opt.TraceOut << "\n";
    else
      std::cerr << "pstserve: cannot write " << Opt.TraceOut << "\n";
  }
  if (!Opt.StatsOut.empty()) {
    std::ofstream OS(Opt.StatsOut, std::ios::binary);
    OS << TelemetryRegistry::global().toJson();
    std::cerr << "pstserve: wrote stats to " << Opt.StatsOut << "\n";
  }
  if (Opt.Stats)
    std::cerr << TelemetryRegistry::global().toJson();
  return Rc;
}
