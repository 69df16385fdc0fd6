//===- pst/obs/Telemetry.h - Pipeline telemetry registry --------*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate of the analysis pipeline: a process-wide
/// \c TelemetryRegistry of named monotonic counters and log2-bucketed value
/// histograms, fed through thread-local sinks so that concurrently running
/// pipeline stages (the batch engine's workers) never contend on a shared
/// line, and merged only at report time.
///
/// Instrumentation sites use the PST_COUNTER / PST_VALUE macros below (and
/// PST_SPAN from ScopedTimer.h). Two gates make them free when unwanted:
///
///  * Compile time: building with -DPST_TELEMETRY=0 (CMake option
///    `PST_TELEMETRY=OFF`) expands every macro to `(void)0` — no probe
///    exists in the binary and the pipeline is byte-for-byte the
///    uninstrumented code. The registry and exporters still compile (they
///    simply stay empty), so tools keep their flags in every
///    configuration.
///  * Run time: probes are compiled in but disabled by default; each one
///    starts with the \c Telemetry::enabled() fast path — a single relaxed
///    atomic load — and bails before touching any thread-local state.
///
/// Thread-safety contract: recording (counters, values, spans) is
/// lock-free per thread and safe from any number of threads concurrently.
/// Reporting (\c snapshot, \c toJson, \c reset) merges the live
/// thread-local sinks and therefore requires *quiescence*: no instrumented
/// work may be in flight on other threads while a report runs. Every
/// in-tree consumer reports after its pool jobs have joined, which
/// establishes the needed happens-before through the pool's own
/// synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef PST_OBS_TELEMETRY_H
#define PST_OBS_TELEMETRY_H

/// Compile-time probe gate. 1 (default): instrumentation macros expand to
/// real probes behind the runtime enable flag. 0: macros expand to nothing.
#ifndef PST_TELEMETRY
#define PST_TELEMETRY 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pst {

namespace obs_detail {
/// Runtime gates, read inline on every probe. Relaxed is enough: probes
/// carry no data dependencies across threads, and report-time merging has
/// its own quiescence contract.
extern std::atomic<bool> TelemetryOn;
extern std::atomic<bool> TraceOn;
extern std::atomic<uint64_t> SpanSampleEveryN;

void addCounterSlow(const char *Name, uint64_t Delta);
void recordValueSlow(const char *Name, uint64_t Value);
} // namespace obs_detail

/// Count / sum / min / max plus a log2 bucket histogram of recorded
/// values. Bucket I holds values V with floor(log2(max(V,1))) == I, i.e.
/// bucket 0 is {0, 1}, bucket 1 is [2, 4), bucket 10 is [1024, 2048)...
struct ValueStats {
  static constexpr unsigned NumBuckets = 64;

  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~uint64_t(0); // Meaningless until Count > 0.
  uint64_t Max = 0;
  uint64_t Buckets[NumBuckets] = {};

  void record(uint64_t V) {
    ++Count;
    Sum += V;
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
    ++Buckets[bucketOf(V)];
  }

  void merge(const ValueStats &O) {
    Count += O.Count;
    Sum += O.Sum;
    if (O.Count) {
      if (O.Min < Min)
        Min = O.Min;
      if (O.Max > Max)
        Max = O.Max;
    }
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
  }

  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0;
  }

  static unsigned bucketOf(uint64_t V) {
    unsigned B = 0;
    while (V > 1) {
      V >>= 1;
      ++B;
    }
    return B;
  }
};

/// One completed ScopedTimer span, for the chrome-trace exporter.
struct SpanEvent {
  /// Span name (a string literal at the instrumentation site).
  const char *Name = nullptr;
  /// Small dense index of the recording thread (0 = first thread seen).
  uint32_t ThreadIndex = 0;
  /// Nesting depth within that thread's span stack (0 = outermost).
  uint32_t Depth = 0;
  /// Start offset from the registry epoch, and duration, in nanoseconds.
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  /// Optional span argument (e.g. "batch" = commit sequence number on the
  /// incremental spans), exported into the trace event's args object. Null
  /// ArgName means no argument; the fields trail with defaults so existing
  /// aggregate initializers keep meaning what they meant.
  const char *ArgName = nullptr;
  uint64_t ArgValue = 0;
};

/// A merged, point-in-time view of everything recorded so far. Maps are
/// keyed by probe name, so iteration (and the JSON dumps) is
/// deterministically sorted.
struct TelemetrySnapshot {
  std::map<std::string, uint64_t> Counters;
  /// Per span name: duration statistics in nanoseconds.
  std::map<std::string, ValueStats> Timers;
  /// Per PST_VALUE name: recorded-value statistics.
  std::map<std::string, ValueStats> Values;
  /// Completed spans in no particular order (only collected while
  /// \c Telemetry::traceEnabled(); bounded per thread, see DroppedSpans).
  std::vector<SpanEvent> Spans;
  /// Spans discarded because a thread hit its retention cap.
  uint64_t DroppedSpans = 0;
  /// Spans deliberately skipped by 1-in-N sampling
  /// (\c Telemetry::setSpanSampleEvery). Distinct from DroppedSpans: these
  /// were decimated by policy, not lost to the cap.
  uint64_t SampledOutSpans = 0;
};

/// The process-wide sink registry. Access through \c global(); recording
/// goes through the \c Telemetry facade (or the macros), never directly.
class TelemetryRegistry {
public:
  /// The singleton (never destroyed, so probes on late-exiting threads
  /// stay safe).
  static TelemetryRegistry &global();

  /// Merges the retired state and every live thread sink. Requires
  /// quiescence (see the file comment).
  TelemetrySnapshot snapshot();

  /// The flat key/value stats dump: counters, span-duration stats and
  /// value histograms as one JSON object, keys sorted. Requires
  /// quiescence.
  std::string toJson();

  /// Zeroes every counter/timer/value and drops retained spans, in the
  /// retired state and every live sink; restarts the trace epoch.
  /// Requires quiescence.
  void reset();

private:
  TelemetryRegistry() = default;
  friend class Telemetry;
};

/// Static facade over the registry: the runtime gates plus the record
/// entry points the macros compile to.
class Telemetry {
public:
  /// Master runtime switch (default off). When off, every probe is one
  /// relaxed atomic load.
  static bool enabled() {
    return obs_detail::TelemetryOn.load(std::memory_order_relaxed);
  }
  static void setEnabled(bool On) {
    obs_detail::TelemetryOn.store(On, std::memory_order_relaxed);
  }

  /// Span *retention* switch (default off): when on (and enabled() is on),
  /// completed ScopedTimer spans are kept for TraceWriter export rather
  /// than only folded into duration stats. Off by default because a long
  /// batch run can complete millions of spans.
  static bool traceEnabled() {
    return obs_detail::TraceOn.load(std::memory_order_relaxed);
  }
  static void setTraceEnabled(bool On) {
    obs_detail::TraceOn.store(On, std::memory_order_relaxed);
  }

  /// Span retention sampling: keep every Nth completed span per thread
  /// (the 1st, N+1st, ... in each thread's completion order), count the
  /// rest as sampled-out. 0 and 1 both mean "keep every span" (the
  /// default). Sampling applies only to trace *retention* — duration
  /// statistics still see every span — and composes with the per-thread
  /// retention cap, which stays as a backstop. Deterministic decimation
  /// (rather than reservoir sampling) keeps repeated runs byte-comparable
  /// and lets dumps from sharded processes be merged meaningfully.
  static uint64_t spanSampleEvery() {
    return obs_detail::SpanSampleEveryN.load(std::memory_order_relaxed);
  }
  static void setSpanSampleEvery(uint64_t N) {
    obs_detail::SpanSampleEveryN.store(N, std::memory_order_relaxed);
  }

  /// Adds \p Delta to the named monotonic counter (no-op when disabled).
  /// \p Name must be a string literal or otherwise outlive the program.
  static void addCounter(const char *Name, uint64_t Delta = 1) {
    if (enabled())
      obs_detail::addCounterSlow(Name, Delta);
  }

  /// Records one sample into the named value histogram (no-op when
  /// disabled). Same lifetime requirement on \p Name.
  static void recordValue(const char *Name, uint64_t Value) {
    if (enabled())
      obs_detail::recordValueSlow(Name, Value);
  }
};

/// True when probes record anything: telemetry compiled in and switched
/// on. Code that reads a clock only to feed its probes gates on this, so
/// it reads none while telemetry is off.
inline bool telemetryRecording() {
#if PST_TELEMETRY
  return Telemetry::enabled();
#else
  return false;
#endif
}

/// Interns \p Name into a deliberately leaked process-lifetime pool and
/// returns a stable C string suitable as a telemetry probe name (probe
/// names must outlive the program — see \c Telemetry::addCounter).
/// Keyed hash lookup under a mutex, so registering the Nth dynamic name
/// costs O(1) amortized rather than a scan of all prior names. Equal
/// content always returns the same pointer; safe from any thread.
const char *internTelemetryName(std::string Name);

} // namespace pst

//===----------------------------------------------------------------------===//
// Instrumentation macros. Arguments must be free of side effects: with
// PST_TELEMETRY=0 they are not evaluated at all.
//===----------------------------------------------------------------------===//

#if PST_TELEMETRY
#define PST_COUNTER(Name, Delta) ::pst::Telemetry::addCounter(Name, Delta)
#define PST_VALUE(Name, Value) ::pst::Telemetry::recordValue(Name, Value)
#else
#define PST_COUNTER(Name, Delta) static_cast<void>(0)
#define PST_VALUE(Name, Value) static_cast<void>(0)
#endif

#endif // PST_OBS_TELEMETRY_H
