//===- pst/runtime/PstScratch.h - Per-thread analysis scratch ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregated per-thread working memory of the full analysis pipeline
/// (cycle equivalence -> PST -> control regions). One PstScratch per worker
/// thread is the whole concurrency story of the batch engine: analyses
/// share nothing else, so functions can be fanned out freely.
///
/// Lifecycle: default-construct once (empty), pass to any number of
/// \c analyzeFunction calls; buffers grow to the largest function seen and
/// stay warm, after which a call performs no transient heap allocations.
/// The scratch is never a cache — results are bit-deterministic in the
/// input no matter what was analyzed before (tests assert this by
/// interleaving runs of different shapes).
///
/// Thread-safety contract: a PstScratch is single-threaded state with no
/// internal synchronization. At most one \c analyzeFunction call may use
/// a given scratch at a time, and handing a scratch from one thread to
/// another requires an external happens-before edge (the batch engine
/// gets this from \c ThreadPool::run's join; a scratch is pinned to one
/// worker index for the whole batch and never migrates mid-run).
///
//===----------------------------------------------------------------------===//

#ifndef PST_RUNTIME_PSTSCRATCH_H
#define PST_RUNTIME_PSTSCRATCH_H

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/graph/CfgView.h"

namespace pst {

/// Working memory for one worker's serial analysis pipeline.
struct PstScratch {
  /// The per-function frozen CSR adjacency. \c analyzeFunction builds one
  /// \c CfgView here and every pipeline stage reads it; no stage rebuilds
  /// its own adjacency.
  CfgViewScratch View;
  /// PST construction. Its embedded solver scratch (\c PstBuild.CE) is
  /// the pipeline's only one: one run over the partial T(S) leaves both the
  /// edge classes the PST is built from and the node classes the control
  /// regions are read off there.
  PstBuildScratch PstBuild;
};

} // namespace pst

#endif // PST_RUNTIME_PSTSCRATCH_H
