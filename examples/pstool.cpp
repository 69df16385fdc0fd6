//===- pstool.cpp - Command-line driver over the whole library ------------------===//
//
// A small analysis driver: reads either MiniLang source or a textual CFG
// (see pst/graph/CfgIO.h) and runs the requested analyses.
//
// Usage:
//   pstool [options] [input-file]
//     --cfg           input is a textual CFG instead of MiniLang
//     --pst           print the program structure tree (default)
//     --regions       print control regions
//     --dom           print the dominator tree (and verify the PST-based
//                     divide-and-conquer builder against it)
//     --loops         print the natural loop forest
//     --intervals     print the interval partition and reducibility
//     --dot           dump Graphviz of the CFG
//     --all           everything above
//     --stats         enable telemetry; print the per-stage counter/timer
//                     dump (TelemetryRegistry::toJson) after the analyses
//     --trace-out <f> enable telemetry span retention; write chrome-trace
//                     JSON to <f> (load it in chrome://tracing or Perfetto)
//     --save-image <f>  also freeze all input functions (CSR CFGs + PSTs)
//                     into a corpus image at <f> (see pst/image)
//     --load-image <f>  take input from a corpus image instead of source:
//                     checksums are verified, PSTs come straight off the
//                     mapped arrays, and the other analyses run on
//                     materialized CFGs — output matches the direct path
//                     byte for byte
//     --image-info <f>  dump a corpus image's header, section table and
//                     per-section checksum status, then exit; exits 1 if
//                     any section checksum mismatches
//     --gen-image <n>   stream-build a corpus image of <n> generated
//                     functions out of core (bounded memory; see
//                     pst/workload/CorpusStream.h) and exit. Requires
//                     --out; --gen-seed / --gen-chunk / --threads tune it
//     --out <f>       output path for --gen-image
//     --gen-seed <s>  stream corpus seed (default 0x57a3e)
//     --gen-chunk <c> functions per streamed chunk (default 4096)
//     --threads <t>   worker threads for --gen-image (0 = hardware)
//
// Without an input file, a built-in demo program is analyzed.
//
//===----------------------------------------------------------------------===//

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/dom/LoopInfo.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/CfgIO.h"
#include "pst/graph/Intervals.h"
#include "pst/image/CorpusImage.h"
#include "pst/lang/Lower.h"
#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/CorpusStream.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace pst;

namespace {

struct Options {
  bool CfgInput = false;
  bool Pst = false, Regions = false, Dom = false, Loops = false;
  bool Intervals = false, Dot = false;
  bool Stats = false;
  std::string InputFile;
  std::string TraceFile;
  std::string SaveImage, LoadImage, ImageInfo;
  uint64_t GenImage = 0;
  std::string OutFile;
  uint64_t GenSeed = 0x57a3e;
  uint64_t GenChunk = 4096;
  unsigned Threads = 0;
};

const char *DemoSource = R"(
func demo(n) {
  var i = 0;
  var sum = 0;
  while (i < n) {
    if (i % 2 == 0) { sum = sum + i; } else { sum = sum - 1; }
    i = i + 1;
  }
  return sum;
}
)";

/// \p MappedPst, when non-null, is a frozen PST from a corpus image: it is
/// used as-is (zero build) instead of rebuilding from \p G.
void analyzeCfg(const std::string &Name, const Cfg &G, const Options &Opt,
                const ProgramStructureTree *MappedPst = nullptr) {
  std::cout << "\n======== " << Name << " (" << G.numNodes() << " nodes, "
            << G.numEdges() << " edges) ========\n";

  FrozenCfg V(G);
  ProgramStructureTree T =
      MappedPst ? *MappedPst : ProgramStructureTree::build(V);
  if (Opt.Pst) {
    std::cout << "\n-- program structure tree --\n"
              << formatPst(G, T);
  }
  if (Opt.Regions) {
    ControlRegionsResult CR = computeControlRegionsLinear(V);
    std::cout << "\n-- control regions (" << CR.NumClasses << ") --\n";
    for (uint32_t C = 0; C < CR.NumClasses; ++C) {
      std::cout << "  {";
      bool First = true;
      for (NodeId N = 0; N < G.numNodes(); ++N)
        if (CR.NodeClass[N] == C) {
          std::cout << (First ? "" : ", ") << G.nodeName(N);
          First = false;
        }
      std::cout << "}\n";
    }
  }
  if (Opt.Dom) {
    DomTree DT = DomTree::buildIterative(V);
    DomTree DC = buildDominatorsViaPst(V, T);
    std::cout << "\n-- dominator tree (idom per node) --\n";
    bool AllMatch = true;
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      std::cout << "  idom(" << G.nodeName(N) << ") = "
                << (DT.idom(N) == InvalidNode ? std::string("<none>")
                                              : G.nodeName(DT.idom(N)))
                << "\n";
      AllMatch &= DT.idom(N) == DC.idom(N);
    }
    std::cout << "  [divide-and-conquer PST builder "
              << (AllMatch ? "matches" : "MISMATCHES") << "]\n";
  }
  if (Opt.Loops) {
    DomTree DT = DomTree::buildIterative(V);
    LoopInfo LI(V, DT);
    std::cout << "\n-- natural loops (" << LI.numLoops() << ") --\n";
    for (LoopId L = 0; L < LI.numLoops(); ++L) {
      const auto &Loop = LI.loop(L);
      std::cout << "  depth " << Loop.Depth << " header "
                << G.nodeName(Loop.Header) << ": {";
      for (size_t I = 0; I < Loop.Nodes.size(); ++I)
        std::cout << (I ? ", " : "") << G.nodeName(Loop.Nodes[I]);
      std::cout << "}\n";
    }
    if (!LI.irreducibleEdges().empty())
      std::cout << "  " << LI.irreducibleEdges().size()
                << " irreducible retreating edge(s)\n";
  }
  if (Opt.Intervals) {
    IntervalPartition P = computeIntervals(V);
    std::cout << "\n-- intervals (" << P.Intervals.size() << ") --\n";
    for (const auto &I : P.Intervals) {
      std::cout << "  I(" << G.nodeName(I.Header) << ") = {";
      for (size_t K = 0; K < I.Nodes.size(); ++K)
        std::cout << (K ? ", " : "") << G.nodeName(I.Nodes[K]);
      std::cout << "}\n";
    }
    std::cout << "  graph is "
              << (isReducibleByIntervals(G) ? "reducible" : "irreducible")
              << "\n";
  }
  if (Opt.Dot) {
    std::cout << "\n-- graphviz --\n";
    printDot(G, std::cout, Name);
  }
}

/// Handles --image-info: header, section table, per-section checksum
/// status.
int printImageInfo(const std::string &Path) {
  std::string Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  if (!Img.valid()) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  const image::ImageHeader &H = Img.header();
  std::cout << "corpus image " << Path << "\n"
            << "  format version " << H.Version << ", " << H.FileBytes
            << " bytes, " << H.NumFunctions << " function(s), "
            << H.SectionCount << " sections\n\n"
            << "  section        offset        bytes  checksum\n";
  bool AllOk = true;
  for (uint32_t K = 0; K < Img.numSections(); ++K) {
    const image::SectionDesc &D = Img.section(K);
    bool Ok = Img.verifySection(K);
    AllOk &= Ok;
    char Line[128];
    std::snprintf(Line, sizeof(Line), "  %-12s %8llu %12llu  %s",
                  image::sectionName(image::SectionKind(K)),
                  static_cast<unsigned long long>(D.Offset),
                  static_cast<unsigned long long>(D.Bytes),
                  Ok ? "ok" : "MISMATCH");
    std::cout << Line << "\n";
  }
  if (!AllOk) {
    std::cerr << "error: corpus image " << Path
              << " has checksum mismatches\n";
    return 1;
  }
  return 0;
}

/// Handles --gen-image: stream-builds \p Opt.GenImage generated functions
/// into \p Opt.OutFile without ever materializing the corpus.
int genImage(const Options &Opt) {
  StreamCorpusOptions SO;
  SO.Seed = Opt.GenSeed;
  SO.Count = Opt.GenImage;
  BatchOptions BO;
  BO.NumThreads = Opt.Threads;
  BatchAnalyzer Analyzer(BO);
  auto Produce = [&SO](uint64_t Begin, uint64_t Count, std::vector<Cfg> &G,
                       std::vector<std::string> &N) {
    G.resize(Count);
    N.resize(Count);
    for (uint64_t I = 0; I < Count; ++I)
      generateStreamFunction(SO, Begin + I, G[I], N[I]);
  };
  std::string Error;
  if (!Analyzer.buildImageStream(SO.Count, Produce, size_t(Opt.GenChunk),
                                 Opt.OutFile, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  if (!verifyImageFile(Opt.OutFile, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "wrote corpus image " << Opt.OutFile << " (" << SO.Count
            << " function(s), seed 0x" << std::hex << SO.Seed << std::dec
            << ", chunk " << Opt.GenChunk << ", " << Analyzer.numWorkers()
            << " worker(s))\n";
  return 0;
}

/// Handles --save-image: freezes \p Fns (with \p Names) into one image.
int saveImage(const std::string &Path, std::span<const Cfg *const> Fns,
              std::span<const std::string> Names) {
  std::vector<uint8_t> Bytes = buildCorpusImage(Fns, Names);
  std::string Error;
  if (!writeImageFile(Path, Bytes, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "\nwrote corpus image " << Path << " (" << Fns.size()
            << " function(s), " << Bytes.size() << " bytes)\n";
  return 0;
}

/// Emits the requested telemetry reports after all analyses ran.
int finishTelemetry(const Options &Opt) {
  if (Opt.Stats) {
    std::cout << "\n-- telemetry --\n"
              << TelemetryRegistry::global().toJson();
  }
  if (!Opt.TraceFile.empty()) {
    TraceWriter Writer;
    if (!Writer.writeFile(Opt.TraceFile)) {
      std::cerr << "error: cannot write trace to '" << Opt.TraceFile
                << "'\n";
      return 1;
    }
    std::cout << "\nwrote " << Writer.snapshot().Spans.size()
              << " trace spans to " << Opt.TraceFile
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--cfg")
      Opt.CfgInput = true;
    else if (A == "--pst")
      Opt.Pst = true;
    else if (A == "--regions")
      Opt.Regions = true;
    else if (A == "--dom")
      Opt.Dom = true;
    else if (A == "--loops")
      Opt.Loops = true;
    else if (A == "--intervals")
      Opt.Intervals = true;
    else if (A == "--dot")
      Opt.Dot = true;
    else if (A == "--stats")
      Opt.Stats = true;
    else if (A == "--trace-out") {
      if (I + 1 >= Argc) {
        std::cerr << "error: --trace-out needs a file argument\n";
        return 1;
      }
      Opt.TraceFile = Argv[++I];
    }
    else if (A == "--save-image" || A == "--load-image" ||
             A == "--image-info") {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << A << " needs a file argument\n";
        return 1;
      }
      std::string F = Argv[++I];
      if (A == "--save-image")
        Opt.SaveImage = F;
      else if (A == "--load-image")
        Opt.LoadImage = F;
      else
        Opt.ImageInfo = F;
    }
    else if (A == "--gen-image" || A == "--out" || A == "--gen-seed" ||
             A == "--gen-chunk" || A == "--threads") {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << A << " needs an argument\n";
        return 1;
      }
      std::string V = Argv[++I];
      if (A == "--out")
        Opt.OutFile = V;
      else {
        char *End = nullptr;
        uint64_t N = std::strtoull(V.c_str(), &End, 0);
        if (!End || *End != '\0') {
          std::cerr << "error: " << A << " needs a number, got '" << V
                    << "'\n";
          return 1;
        }
        if (A == "--gen-image")
          Opt.GenImage = N;
        else if (A == "--gen-seed")
          Opt.GenSeed = N;
        else if (A == "--gen-chunk")
          Opt.GenChunk = N ? N : 1;
        else
          Opt.Threads = unsigned(N);
      }
    }
    else if (A == "--all")
      Opt.Pst = Opt.Regions = Opt.Dom = Opt.Loops = Opt.Intervals = true;
    else if (!A.empty() && A[0] == '-') {
      std::cerr << "error: unknown option '" << A << "'\n";
      return 1;
    } else {
      Opt.InputFile = A;
    }
  }
  if (!Opt.Pst && !Opt.Regions && !Opt.Dom && !Opt.Loops &&
      !Opt.Intervals && !Opt.Dot) {
    Opt.Pst = true;
    // When profiling, cover the whole front half of the pipeline by
    // default so the trace shows cycleequiv -> PST -> control regions.
    if (Opt.Stats || !Opt.TraceFile.empty())
      Opt.Regions = true;
  }

  if (Opt.Stats || !Opt.TraceFile.empty()) {
    Telemetry::setEnabled(true);
    if (!Opt.TraceFile.empty())
      Telemetry::setTraceEnabled(true);
  }

  if (!Opt.ImageInfo.empty())
    return printImageInfo(Opt.ImageInfo);

  if (Opt.GenImage) {
    if (Opt.OutFile.empty()) {
      std::cerr << "error: --gen-image needs --out <file>\n";
      return 1;
    }
    if (int Rc = genImage(Opt))
      return Rc;
    return finishTelemetry(Opt);
  }

  if (!Opt.LoadImage.empty()) {
    std::string Error;
    CorpusImage Img = CorpusImage::map(Opt.LoadImage, &Error);
    if (!Img.valid()) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    if (!Img.verify(&Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
      Cfg G = Img.materializeCfg(I);
      ProgramStructureTree T = Img.pst(I);
      analyzeCfg(std::string(Img.functionName(I)), G, Opt, &T);
    }
    return finishTelemetry(Opt);
  }

  std::string Input;
  if (Opt.InputFile.empty()) {
    Input = DemoSource;
    std::cout << "(no input file; analyzing the built-in demo)\n";
  } else {
    std::ifstream In(Opt.InputFile);
    if (!In) {
      std::cerr << "error: cannot open '" << Opt.InputFile << "'\n";
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Input = SS.str();
  }

  if (Opt.CfgInput) {
    std::string Error;
    auto G = parseCfgText(Input, &Error);
    if (!G) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    std::string Why;
    if (!validateCfg(*G, &Why)) {
      std::cerr << "error: invalid CFG: " << Why << "\n";
      return 1;
    }
    analyzeCfg("cfg", *G, Opt);
    if (!Opt.SaveImage.empty()) {
      const Cfg *Fn = &*G;
      std::string Name = "cfg";
      if (int Rc = saveImage(Opt.SaveImage, {&Fn, 1}, {&Name, 1}))
        return Rc;
    }
    return finishTelemetry(Opt);
  }

  std::vector<Diagnostic> Diags;
  auto Fns = compile(Input, &Diags);
  if (!Fns) {
    for (const Diagnostic &D : Diags)
      std::cerr << D.str() << "\n";
    return 1;
  }
  for (const LoweredFunction &F : *Fns)
    analyzeCfg(F.Name, F.Graph, Opt);
  if (!Opt.SaveImage.empty()) {
    std::vector<const Cfg *> Graphs;
    std::vector<std::string> Names;
    for (const LoweredFunction &F : *Fns) {
      Graphs.push_back(&F.Graph);
      Names.push_back(F.Name);
    }
    if (int Rc = saveImage(Opt.SaveImage, Graphs, Names))
      return Rc;
  }
  return finishTelemetry(Opt);
}
