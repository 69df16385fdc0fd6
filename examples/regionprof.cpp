//===- regionprof.cpp - Region profiler & parallelism planner driver ------------===//
//
// Profiles MiniLang functions over a workload of interpreter runs,
// attributes the dynamic cost to the PST's canonical SESE regions, and
// prints a Kremlin-style parallelization plan.
//
// Usage:
//   regionprof [options] [input-file]
//     --function NAME  profile only the function called NAME
//     --runs N         size of the synthetic workload (default 8)
//     --input a,b,c    add one run with these integer arguments (repeatable;
//                      replaces the synthetic workload)
//     --max-steps N    per-run step budget (default 1M)
//     --json FILE      also write the combined JSON report to FILE
//                      ('-' for stdout)
//     --plan-only      print only the ranked plan, not the region tree
//     --stats          enable telemetry; dump the counter/timer JSON at exit
//
// Without an input file, examples/hotloop.mini's `hotloop` is built in.
// The synthetic workload is deterministic: run r passes arguments
// a_k = (7 * r + 3 * k + 5) % 23, so reports are byte-stable across
// invocations.
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/lang/Interp.h"
#include "pst/lang/Lower.h"
#include "pst/obs/Telemetry.h"
#include "pst/prof/ParallelismPlanner.h"
#include "pst/prof/ProfileReport.h"
#include "pst/prof/RegionProfile.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace pst;

namespace {

struct Options {
  std::string InputFile;
  std::string Function;
  std::string JsonFile;
  std::vector<std::vector<int64_t>> Workload;
  uint64_t Runs = 8;
  uint64_t MaxSteps = 1 << 20;
  bool PlanOnly = false;
  bool Stats = false;
};

const char *DemoSource = R"(
func hotloop(n, m) {
  var i = 0;
  var j = 0;
  var acc = 0;
  if (n < 0) { n = 0; }
  if (m < 0) { m = 0; }
  while (i < n) {
    j = 0;
    while (j < m) {
      acc = acc + (i * m + j) % 7;
      j = j + 1;
    }
    i = i + 1;
  }
  if (acc % 2 == 1) { acc = acc + 1; }
  return acc;
}
)";

/// Number of parameters of a lowered function: its entry block defines one
/// Param instruction per parameter.
uint32_t numParams(const LoweredFunction &F) {
  uint32_t N = 0;
  for (const Instruction &I : F.Code[F.Graph.entry()])
    N += I.K == Instruction::Kind::Param;
  return N;
}

/// The documented deterministic synthetic workload.
std::vector<int64_t> syntheticArgs(uint64_t Run, uint32_t NumParams) {
  std::vector<int64_t> Args(NumParams);
  for (uint32_t K = 0; K < NumParams; ++K)
    Args[K] = static_cast<int64_t>((7 * Run + 3 * K + 5) % 23);
  return Args;
}

bool parseArgList(const std::string &Spec, std::vector<int64_t> &Out) {
  std::stringstream SS(Spec);
  std::string Tok;
  while (std::getline(SS, Tok, ',')) {
    try {
      Out.push_back(std::stoll(Tok));
    } catch (...) {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NeedsValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << Flag << " needs an argument\n";
        return nullptr;
      }
      return Argv[++I];
    };
    if (A == "--function") {
      const char *V = NeedsValue("--function");
      if (!V)
        return 1;
      Opt.Function = V;
    } else if (A == "--runs") {
      const char *V = NeedsValue("--runs");
      if (!V)
        return 1;
      Opt.Runs = std::stoull(V);
    } else if (A == "--input") {
      const char *V = NeedsValue("--input");
      if (!V)
        return 1;
      std::vector<int64_t> Args;
      if (!parseArgList(V, Args)) {
        std::cerr << "error: bad --input list '" << V << "'\n";
        return 1;
      }
      Opt.Workload.push_back(std::move(Args));
    } else if (A == "--max-steps") {
      const char *V = NeedsValue("--max-steps");
      if (!V)
        return 1;
      Opt.MaxSteps = std::stoull(V);
    } else if (A == "--json") {
      const char *V = NeedsValue("--json");
      if (!V)
        return 1;
      Opt.JsonFile = V;
    } else if (A == "--plan-only") {
      Opt.PlanOnly = true;
    } else if (A == "--stats") {
      Opt.Stats = true;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "error: unknown option '" << A << "'\n";
      return 1;
    } else {
      Opt.InputFile = A;
    }
  }

  if (Opt.Stats)
    Telemetry::setEnabled(true);

  // With --json -, stdout carries only the JSON document so it can be piped
  // straight into a consumer; the human-readable report moves to stderr.
  const bool JsonToStdout = Opt.JsonFile == "-";
  std::ostream &Txt = JsonToStdout ? std::cerr : std::cout;

  std::string Input;
  if (Opt.InputFile.empty()) {
    Input = DemoSource;
    Txt << "(no input file; profiling the built-in hot-loop demo)\n";
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

  std::vector<Diagnostic> Diags;
  auto Fns = compile(Input, &Diags);
  if (!Fns) {
    for (const Diagnostic &D : Diags)
      std::cerr << D.str() << "\n";
    return 1;
  }

  std::string Json = "[";
  bool FirstJson = true;
  bool AnyProfiled = false;
  for (const LoweredFunction &F : *Fns) {
    if (!Opt.Function.empty() && F.Name != Opt.Function)
      continue;
    AnyProfiled = true;

    ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(F.Graph));
    RegionProfile P(F, T);

    std::vector<std::vector<int64_t>> Workload = Opt.Workload;
    if (Workload.empty())
      for (uint64_t R = 0; R < Opt.Runs; ++R)
        Workload.push_back(syntheticArgs(R, numParams(F)));

    uint64_t Unfinished = 0;
    for (const std::vector<int64_t> &Args : Workload)
      if (!P.runAndAdd(Args, Opt.MaxSteps).Finished)
        ++Unfinished;
    P.finalize();
    ParallelismPlan Plan = planParallelism(P);

    Txt << "\n======== " << F.Name << " (" << F.Graph.numNodes() << " nodes, "
        << T.numCanonicalRegions() << " regions) ========\n";
    if (Unfinished)
      Txt << "warning: " << Unfinished << " of " << Workload.size()
          << " runs hit the step budget and were not profiled\n";
    if (!P.numRuns()) {
      Txt << "no finished runs; nothing to report\n";
      continue;
    }
    if (!Opt.PlanOnly)
      Txt << "\n" << formatRegionProfile(P);
    Txt << "\n" << formatParallelismPlan(P, Plan);

    if (!Opt.JsonFile.empty()) {
      if (!FirstJson)
        Json += ",";
      FirstJson = false;
      Json += profileToJson(P, Plan);
    }
  }
  Json += "]";

  if (!AnyProfiled) {
    std::cerr << "error: no function matched"
              << (Opt.Function.empty() ? "" : " --function " + Opt.Function)
              << "\n";
    return 1;
  }

  if (!Opt.JsonFile.empty()) {
    if (JsonToStdout) {
      std::cout << Json << "\n";
    } else {
      std::ofstream Out(Opt.JsonFile);
      if (!Out) {
        std::cerr << "error: cannot write '" << Opt.JsonFile << "'\n";
        return 1;
      }
      Out << Json << "\n";
      std::cout << "\nwrote JSON report to " << Opt.JsonFile << "\n";
    }
  }

  if (Opt.Stats)
    Txt << "\n-- telemetry --\n" << TelemetryRegistry::global().toJson();
  return 0;
}
