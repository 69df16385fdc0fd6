//===- time_corpus_image.cpp - Frozen corpus image cold start -----------------===//
//
// Measures what the corpus image exists for: cold-start cost. For the
// paper corpus (254 procedures) and a 10k-function generated corpus it
// times
//
//   build  — the no-image cold start: CfgView + PST construction for
//            every function, warm per-thread scratch (the cheapest the
//            in-memory pipeline can do once the CFGs exist);
//   map    — CorpusImage::map over the saved file plus a per-function
//            touch of the mapped views (cfg(i)/pst(i) accessors), i.e.
//            the whole image-based cold start;
//   verify — the optional full checksum pass, reported separately so the
//            map number reflects the default (structural-validation-only)
//            path;
//
// plus the one-time image build cost (serial and thread-pool parallel)
// and the image size. Every run cross-checks byte identity: the FNV
// fingerprint of each mapped PST's flat arrays must equal the freshly
// built tree's — a wrong-but-fast map is a failure, not a result.
//
// Emits a human-readable table on stdout and machine-readable
// BENCH_image.json in the working directory.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "pst/image/CorpusImage.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace pst;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Same generator mix as time_batch_throughput's 10k corpus.
std::vector<Cfg> generatedCorpus(size_t Count) {
  std::vector<Cfg> Out;
  Out.reserve(Count);
  Rng R(0xba7c4);
  while (Out.size() < Count) {
    switch (Out.size() % 8) {
    case 0:
      Out.push_back(diamondLadderCfg(2 + static_cast<uint32_t>(R.nextBelow(12))));
      break;
    case 1:
      Out.push_back(nestedWhileCfg(1 + static_cast<uint32_t>(R.nextBelow(5)),
                                   1 + static_cast<uint32_t>(R.nextBelow(3))));
      break;
    case 2:
      Out.push_back(
          nestedRepeatUntilCfg(2 + static_cast<uint32_t>(R.nextBelow(10))));
      break;
    case 3:
      Out.push_back(irreducibleCfg(1 + static_cast<uint32_t>(R.nextBelow(4))));
      break;
    default: {
      RandomCfgOptions O;
      O.NumNodes = 8 + static_cast<uint32_t>(R.nextBelow(56));
      O.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(O.NumNodes));
      Out.push_back(randomBackboneCfg(R, O));
      break;
    }
    }
  }
  return Out;
}

/// FNV fingerprint of one PST's flat arrays — the identity cross-check
/// currency between the mapped and freshly built trees.
uint64_t fingerprint(const ProgramStructureTree &T) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto MixBytes = [&H](const void *P, size_t Bytes) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I < Bytes; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ULL;
    }
  };
  MixBytes(T.regionTable().data(), T.regionTable().size_bytes());
  MixBytes(T.nodeRegionTable().data(), T.nodeRegionTable().size_bytes());
  MixBytes(T.childOffTable().data(), T.childOffTable().size_bytes());
  MixBytes(T.childValTable().data(), T.childValTable().size_bytes());
  MixBytes(T.immOffTable().data(), T.immOffTable().size_bytes());
  MixBytes(T.immValTable().data(), T.immValTable().size_bytes());
  return H;
}

struct ParallelBuildRun {
  unsigned Threads = 0; ///< Requested (0 = hardware).
  unsigned Workers = 0;
  double Seconds = 0;
};

struct CorpusReport {
  std::string Name;
  size_t Functions = 0;
  uint64_t ImageBytes = 0;
  double BuildSerialSec = 0;   ///< One-time serial image build.
  double BuildParallelSec = 0; ///< One-time pool-parallel image build
                               ///< (first sweep entry).
  std::vector<ParallelBuildRun> ParallelSweep; ///< One per --threads entry.
  double ColdBuildSec = 0;     ///< No-image cold start (view+PST per fn).
  double ColdMapSec = 0;       ///< Image cold start (map + touch every fn).
  double VerifySec = 0;        ///< Optional full checksum pass.
  double Speedup = 0;          ///< ColdBuildSec / ColdMapSec.
  bool Identical = false;      ///< Mapped PSTs == built PSTs, byte for byte.
};

/// Repeats \p Body until the window is long enough to trust; returns
/// seconds per round.
template <class F> double timeRounds(double MinSeconds, F &&Body) {
  size_t Rounds = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  do {
    Body();
    ++Rounds;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  return Elapsed / static_cast<double>(Rounds);
}

CorpusReport benchCorpus(const std::string &Name,
                         std::span<const Cfg *const> Fns,
                         const std::string &Path,
                         const std::vector<unsigned> &ThreadSweep) {
  CorpusReport R;
  R.Name = Name;
  R.Functions = Fns.size();

  // One-time build cost, serial and one parallel run per --threads entry.
  std::vector<uint8_t> Bytes;
  R.BuildSerialSec = timeRounds(0.3, [&] { Bytes = buildCorpusImage(Fns); });
  {
    std::vector<Cfg> Owned;
    Owned.reserve(Fns.size());
    for (const Cfg *G : Fns)
      Owned.push_back(*G);
    for (unsigned T : ThreadSweep) {
      BatchOptions BO;
      BO.NumThreads = T;
      BatchAnalyzer Engine(BO);
      std::vector<uint8_t> Parallel;
      ParallelBuildRun Run;
      Run.Threads = T;
      Run.Workers = Engine.numWorkers();
      Run.Seconds =
          timeRounds(0.3, [&] { Parallel = Engine.buildImage(Owned); });
      if (Parallel != Bytes) {
        std::cerr << "FATAL: parallel image build diverged from serial\n";
        std::exit(1);
      }
      R.ParallelSweep.push_back(Run);
    }
    R.BuildParallelSec = R.ParallelSweep.front().Seconds;
  }
  R.ImageBytes = Bytes.size();
  std::string Error;
  if (!writeImageFile(Path, Bytes, &Error)) {
    std::cerr << "FATAL: " << Error << "\n";
    std::exit(1);
  }

  // The no-image cold start: freeze adjacency and build the PST for every
  // function, warm scratch (steady-state floor of the in-memory path).
  PstScratch S;
  R.ColdBuildSec = timeRounds(0.3, [&] {
    for (const Cfg *G : Fns) {
      CfgView V = CfgView::build(*G, S.View);
      ProgramStructureTree T = ProgramStructureTree::build(V, S.PstBuild);
      (void)T;
    }
  });

  // The image cold start: map the file and touch every function's views.
  // Each round re-maps, so page-cache state is the only warmth carried
  // across rounds — exactly what a process restart on a warm machine sees.
  uint64_t Touched = 0;
  R.ColdMapSec = timeRounds(0.3, [&] {
    CorpusImage Img = CorpusImage::map(Path, &Error);
    if (!Img.valid()) {
      std::cerr << "FATAL: " << Error << "\n";
      std::exit(1);
    }
    for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
      CfgView V = Img.cfg(I);
      ProgramStructureTree T = Img.pst(I);
      Touched += V.numEdges() + T.numRegions();
    }
  });
  if (Touched == 0)
    std::cerr << "(empty corpus?)\n";

  {
    CorpusImage Img = CorpusImage::map(Path, &Error);
    R.VerifySec = timeRounds(0.3, [&] {
      if (!Img.verify(&Error)) {
        std::cerr << "FATAL: " << Error << "\n";
        std::exit(1);
      }
    });

    // In-run byte-identity cross-check: a wrong-but-fast map would
    // invalidate every number above.
    R.Identical = true;
    for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
      ProgramStructureTree Fresh =
          ProgramStructureTree::build(FrozenCfg(*Fns[I]));
      if (fingerprint(Fresh) != fingerprint(Img.pst(I))) {
        R.Identical = false;
        break;
      }
    }
    if (!R.Identical) {
      std::cerr << "FATAL: mapped PSTs diverged from freshly built PSTs\n";
      std::exit(1);
    }
  }

  R.Speedup = R.ColdMapSec > 0 ? R.ColdBuildSec / R.ColdMapSec : 0;
  std::printf("  %-7s %6zu fns  image %9llu B  build %8.2f ms  "
              "map %8.3f ms  verify %7.3f ms  speedup %7.1fx\n",
              Name.c_str(), Fns.size(),
              static_cast<unsigned long long>(R.ImageBytes),
              R.ColdBuildSec * 1e3, R.ColdMapSec * 1e3, R.VerifySec * 1e3,
              R.Speedup);
  std::remove(Path.c_str());
  return R;
}

void writeJson(const std::string &Path, unsigned HwThreads,
               const std::vector<CorpusReport> &Corpora) {
  (void)HwThreads; // Part of the shared schema preamble now.
  // Headline throughput: the largest corpus's image cold-start rate.
  const CorpusReport &Head = Corpora.back();
  std::ofstream OS(Path);
  OS << "{\n";
  pstbench::writeSchemaPreamble(OS, "corpus_image", Head.Name.c_str(),
                                Head.ColdMapSec > 0
                                    ? double(Head.Functions) / Head.ColdMapSec
                                    : 0);
  OS << "  \"corpora\": [\n";
  for (size_t I = 0; I < Corpora.size(); ++I) {
    const CorpusReport &C = Corpora[I];
    OS << "    {\n";
    OS << "      \"name\": \"" << C.Name << "\",\n";
    OS << "      \"functions\": " << C.Functions << ",\n";
    OS << "      \"image_bytes\": " << C.ImageBytes << ",\n";
    OS << "      \"image_build_serial_sec\": " << C.BuildSerialSec << ",\n";
    OS << "      \"image_build_parallel_sec\": " << C.BuildParallelSec
       << ",\n";
    OS << "      \"image_build_parallel_sweep\": [";
    for (size_t J = 0; J < C.ParallelSweep.size(); ++J) {
      const ParallelBuildRun &R = C.ParallelSweep[J];
      OS << (J ? ", " : "") << "{\"threads\": " << R.Threads
         << ", \"workers\": " << R.Workers << ", \"build_sec\": " << R.Seconds
         << "}";
    }
    OS << "],\n";
    OS << "      \"cold_start_build_sec\": " << C.ColdBuildSec << ",\n";
    OS << "      \"cold_start_map_sec\": " << C.ColdMapSec << ",\n";
    OS << "      \"verify_sec\": " << C.VerifySec << ",\n";
    OS << "      \"map_speedup\": " << C.Speedup << ",\n";
    OS << "      \"identical_results\": " << (C.Identical ? "true" : "false")
       << "\n";
    OS << "    }" << (I + 1 < Corpora.size() ? "," : "") << "\n";
  }
  OS << "  ]\n";
  OS << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<unsigned> ThreadSweep = {0}; // 0 = hardware concurrency.
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--threads" && I + 1 < Argc) {
      ThreadSweep.clear();
      const char *P = Argv[++I];
      while (*P) {
        char *End = nullptr;
        unsigned long V = std::strtoul(P, &End, 0);
        if (End == P) {
          std::cerr << "error: --threads expects a comma-separated list\n";
          return 1;
        }
        ThreadSweep.push_back(unsigned(V));
        P = (*End == ',') ? End + 1 : End;
      }
      if (ThreadSweep.empty())
        ThreadSweep.push_back(0);
    } else {
      std::cerr << "error: unknown option '" << A << "'\n";
      return 1;
    }
  }

  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "=== Corpus image cold start (hardware_concurrency=" << Hw
            << ") ===\n\n";

  std::vector<CorpusFunction> Paper = generatePaperCorpus(/*Seed=*/1994);
  std::vector<const Cfg *> PaperPtrs;
  PaperPtrs.reserve(Paper.size());
  for (const CorpusFunction &F : Paper)
    PaperPtrs.push_back(&F.Fn.Graph);

  std::vector<Cfg> Generated = generatedCorpus(10000);
  std::vector<const Cfg *> GenPtrs;
  GenPtrs.reserve(Generated.size());
  for (const Cfg &G : Generated)
    GenPtrs.push_back(&G);

  std::vector<CorpusReport> Corpora;
  Corpora.push_back(benchCorpus("paper",
                                std::span<const Cfg *const>(PaperPtrs),
                                "bench_corpus_paper.img", ThreadSweep));
  Corpora.push_back(benchCorpus("gen10k",
                                std::span<const Cfg *const>(GenPtrs),
                                "bench_corpus_gen10k.img", ThreadSweep));

  writeJson("BENCH_image.json", Hw, Corpora);
  std::cout << "\nwrote BENCH_image.json\n";

  for (const CorpusReport &C : Corpora)
    if (C.Speedup < 10.0) {
      std::cerr << "WARNING: " << C.Name << " map speedup " << C.Speedup
                << "x is below the 10x target\n";
      return 1;
    }
  return 0;
}
