//===- telemetry_demo.cpp - pst/obs walkthrough --------------------------------===//
//
// Shows the observability subsystem end to end:
//
//   1. enable the runtime gates (stats + span retention),
//   2. run an instrumented workload — a few direct PST builds, then a
//      multi-threaded BatchAnalyzer corpus so spans land on several
//      worker tracks,
//   3. dump the flat counter/timer report (TelemetryRegistry::toJson),
//   4. export a chrome://tracing file (telemetry_demo_trace.json) you can
//      open in ui.perfetto.dev to see the nested stage spans per thread.
//
// Build with -DPST_TELEMETRY=OFF and the same binary still runs: the
// probes compile to no-ops and the report says telemetry_compiled=false.
//
//===----------------------------------------------------------------------===//

#include "pst/obs/Telemetry.h"
#include "pst/obs/TraceWriter.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/CfgGenerators.h"

#include <iostream>

using namespace pst;

int main() {
  // Stats gate on; span retention on too so the trace export has events.
  Telemetry::setEnabled(true);
  Telemetry::setTraceEnabled(true);

  // A handful of direct builds on the structured families: these run on
  // the main thread, so their spans nest on thread track 0.
  for (uint32_t Rungs : {4u, 16u, 64u}) {
    Cfg G = diamondLadderCfg(Rungs);
    ProgramStructureTree T = ProgramStructureTree::build(FrozenCfg(G));
    std::cout << "diamond ladder rungs=" << Rungs << " -> " << T.numRegions()
              << " regions\n";
  }

  // A parallel corpus: BatchAnalyzer's workers each get their own
  // thread-local sink, so batch.chunk spans appear on multiple tracks
  // with pst.build / cycleequiv.run nested inside each.
  std::vector<Cfg> Corpus;
  Rng R(42);
  for (int I = 0; I < 200; ++I) {
    RandomCfgOptions Opts;
    Opts.NumNodes = 16 + static_cast<uint32_t>(R.nextBelow(48));
    Opts.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(Opts.NumNodes));
    Corpus.push_back(randomBackboneCfg(R, Opts));
  }
  BatchOptions Opts;
  Opts.NumThreads = 4;
  BatchAnalyzer Engine(Opts);
  std::vector<FunctionAnalysis> Results = Engine.analyzeCorpus(Corpus);
  std::cout << "batch analyzed " << Results.size() << " functions\n";

  // Exporter 1: flat key/value stats.
  std::cout << "\n-- telemetry --\n" << TelemetryRegistry::global().toJson();

  // Exporter 2: chrome trace events.
  TraceWriter Writer;
  const char *Path = "telemetry_demo_trace.json";
  if (Writer.writeFile(Path))
    std::cout << "\nwrote " << Writer.snapshot().Spans.size() << " spans to "
              << Path << " (load in chrome://tracing or ui.perfetto.dev)\n";
  else
    std::cerr << "\nfailed to write " << Path << "\n";
  return 0;
}
