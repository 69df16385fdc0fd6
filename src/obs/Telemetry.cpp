//===- Telemetry.cpp - Pipeline telemetry registry ----------------------------===//
//
// Part of the PST library (see Telemetry.h for the reference).
//
// Recording path: each thread owns a ThreadSink (registered on first use,
// merged into the registry's retired state when the thread exits), so a
// probe touches only thread-local memory after the two relaxed gate
// loads. Report path: the registry walks the retired state plus every
// live sink under its mutex; callers guarantee quiescence (no probe may
// run concurrently with a report), which every in-tree consumer gets for
// free by reporting after its pool jobs joined.
//
//===----------------------------------------------------------------------===//

#include "pst/obs/Telemetry.h"
#include "pst/obs/ScopedTimer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <sstream>
#include <unordered_set>

using namespace pst;

std::atomic<bool> pst::obs_detail::TelemetryOn{false};
std::atomic<bool> pst::obs_detail::TraceOn{false};
std::atomic<uint64_t> pst::obs_detail::SpanSampleEveryN{0};

const char *pst::internTelemetryName(std::string Name) {
  // unordered_set is node-based, so element addresses — and the c_str()s
  // handed out — are stable across rehashes. Leaked: probe names must
  // outlive every sink that recorded under them.
  static std::mutex M;
  static auto *Pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> Lock(M);
  return Pool->insert(std::move(Name)).first->c_str();
}

namespace {

using Clock = std::chrono::steady_clock;

/// Span retention cap per thread; beyond it spans are counted as dropped
/// rather than retained (a long batch run completes millions of spans).
constexpr size_t MaxSpansPerThread = size_t(1) << 20;

struct SpanFrame {
  const char *Name;
  uint64_t StartNs;
};

/// One thread's private recording state. Only the owning thread writes it;
/// the registry reads it under quiescence.
struct ThreadSink {
  // Probe names are string literals; identical-pointer fast path with a
  // content-equality fallback (the same literal may have distinct
  // addresses across translation units). Linear scan: a process has a few
  // dozen distinct probe names.
  std::vector<std::pair<const char *, uint64_t>> Counters;
  std::vector<std::pair<const char *, ValueStats>> Timers;
  std::vector<std::pair<const char *, ValueStats>> Values;
  std::vector<SpanFrame> Stack;
  std::vector<SpanEvent> Events;
  uint64_t DroppedSpans = 0;
  uint64_t SampledOutSpans = 0;
  /// Completed-while-tracing span count, driving the 1-in-N decimation
  /// phase (span I is retained iff I % N == 0).
  uint64_t CompletedSpans = 0;
  uint32_t ThreadIndex = 0;

  template <class T>
  static T &slot(std::vector<std::pair<const char *, T>> &Table,
                 const char *Name) {
    for (auto &[N, V] : Table)
      if (N == Name || std::string_view(N) == Name)
        return V;
    Table.emplace_back(Name, T{});
    return Table.back().second;
  }

  void clear() {
    Counters.clear();
    Timers.clear();
    Values.clear();
    Events.clear();
    DroppedSpans = 0;
    SampledOutSpans = 0;
    CompletedSpans = 0; // Restart the decimation phase with the epoch.
    // Deliberately keep Stack: open spans belong to in-flight scopes.
  }
};

/// The registry's private state. Kept out of the header (and leaked at
/// exit) so probes on threads that outlive main's statics stay safe.
struct RegistryImpl {
  std::mutex M;
  std::vector<ThreadSink *> Live;
  uint32_t NextThreadIndex = 0;
  Clock::time_point Epoch = Clock::now();

  // State of exited threads, merged at deregistration.
  std::map<std::string, uint64_t> RetiredCounters;
  std::map<std::string, ValueStats> RetiredTimers;
  std::map<std::string, ValueStats> RetiredValues;
  std::vector<SpanEvent> RetiredEvents;
  uint64_t RetiredDropped = 0;
  uint64_t RetiredSampledOut = 0;

  static RegistryImpl &get() {
    static RegistryImpl *I = new RegistryImpl(); // Leaked by design.
    return *I;
  }

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  void mergeInto(const ThreadSink &S, TelemetrySnapshot &Out) {
    for (const auto &[N, V] : S.Counters)
      Out.Counters[N] += V;
    for (const auto &[N, V] : S.Timers)
      Out.Timers[N].merge(V);
    for (const auto &[N, V] : S.Values)
      Out.Values[N].merge(V);
    Out.Spans.insert(Out.Spans.end(), S.Events.begin(), S.Events.end());
    Out.DroppedSpans += S.DroppedSpans;
    Out.SampledOutSpans += S.SampledOutSpans;
  }

  void retire(ThreadSink *S) {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &[N, V] : S->Counters)
      RetiredCounters[N] += V;
    for (const auto &[N, V] : S->Timers)
      RetiredTimers[N].merge(V);
    for (const auto &[N, V] : S->Values)
      RetiredValues[N].merge(V);
    RetiredEvents.insert(RetiredEvents.end(), S->Events.begin(),
                         S->Events.end());
    RetiredDropped += S->DroppedSpans;
    RetiredSampledOut += S->SampledOutSpans;
    Live.erase(std::remove(Live.begin(), Live.end(), S), Live.end());
  }
};

/// Registers on construction, merges-and-deregisters on thread exit.
struct SinkHandle {
  ThreadSink Sink;

  SinkHandle() {
    RegistryImpl &R = RegistryImpl::get();
    std::lock_guard<std::mutex> Lock(R.M);
    Sink.ThreadIndex = R.NextThreadIndex++;
    R.Live.push_back(&Sink);
  }

  ~SinkHandle() { RegistryImpl::get().retire(&Sink); }
};

ThreadSink &localSink() {
  thread_local SinkHandle Handle;
  return Handle.Sink;
}

} // namespace

void pst::obs_detail::addCounterSlow(const char *Name, uint64_t Delta) {
  ThreadSink::slot(localSink().Counters, Name) += Delta;
}

void pst::obs_detail::recordValueSlow(const char *Name, uint64_t Value) {
  ThreadSink::slot(localSink().Values, Name).record(Value);
}

uint64_t pst::obs_detail::spanBegin(const char *Name) {
  uint64_t Now = RegistryImpl::get().nowNs();
  localSink().Stack.push_back(SpanFrame{Name, Now});
  return Now;
}

void pst::obs_detail::spanEnd(const char *Name, uint64_t StartNs,
                              const char *ArgName, uint64_t ArgValue) {
  ThreadSink &S = localSink();
  assert(!S.Stack.empty() && S.Stack.back().Name == Name &&
         "unbalanced span stack");
  S.Stack.pop_back();
  uint64_t Dur = RegistryImpl::get().nowNs() - StartNs;
  ThreadSink::slot(S.Timers, Name).record(Dur);
  if (!Telemetry::traceEnabled())
    return;
  // 1-in-N retention sampling (duration stats above already saw the
  // span). Deterministic per-thread decimation: span I is kept iff
  // I % N == 0, so a multi-minute trace keeps an unbiased, evenly spaced
  // subset instead of truncating at the cap.
  uint64_t Every = Telemetry::spanSampleEvery();
  uint64_t Seq = S.CompletedSpans++;
  if (Every > 1 && (Seq % Every) != 0) {
    ++S.SampledOutSpans;
    return;
  }
  if (S.Events.size() >= MaxSpansPerThread) {
    ++S.DroppedSpans;
    return;
  }
  SpanEvent E;
  E.Name = Name;
  E.ThreadIndex = S.ThreadIndex;
  E.Depth = static_cast<uint32_t>(S.Stack.size());
  E.StartNs = StartNs;
  E.DurNs = Dur;
  E.ArgName = ArgName;
  E.ArgValue = ArgValue;
  S.Events.push_back(E);
}

//===----------------------------------------------------------------------===//
// TelemetryRegistry
//===----------------------------------------------------------------------===//

TelemetryRegistry &TelemetryRegistry::global() {
  static TelemetryRegistry *R = new TelemetryRegistry(); // Leaked by design.
  (void)RegistryImpl::get(); // Ensure the impl outlives every consumer too.
  return *R;
}

TelemetrySnapshot TelemetryRegistry::snapshot() {
  RegistryImpl &R = RegistryImpl::get();
  std::lock_guard<std::mutex> Lock(R.M);
  TelemetrySnapshot Out;
  Out.Counters = R.RetiredCounters;
  Out.Timers = R.RetiredTimers;
  Out.Values = R.RetiredValues;
  Out.Spans = R.RetiredEvents;
  Out.DroppedSpans = R.RetiredDropped;
  Out.SampledOutSpans = R.RetiredSampledOut;
  for (const ThreadSink *S : R.Live)
    R.mergeInto(*S, Out);
  return Out;
}

void TelemetryRegistry::reset() {
  RegistryImpl &R = RegistryImpl::get();
  std::lock_guard<std::mutex> Lock(R.M);
  R.RetiredCounters.clear();
  R.RetiredTimers.clear();
  R.RetiredValues.clear();
  R.RetiredEvents.clear();
  R.RetiredDropped = 0;
  R.RetiredSampledOut = 0;
  for (ThreadSink *S : R.Live)
    S->clear();
  R.Epoch = Clock::now();
}

namespace {

// The stats dump's serializer.

void appendEscaped(std::ostream &OS, std::string_view S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
}

void appendStats(std::ostream &OS, const ValueStats &V) {
  OS << "{\"count\": " << V.Count << ", \"sum\": " << V.Sum
     << ", \"min\": " << (V.Count ? V.Min : 0) << ", \"max\": " << V.Max
     << ", \"mean\": " << V.mean() << ", \"log2_buckets\": [";
  bool First = true;
  for (unsigned I = 0; I < ValueStats::NumBuckets; ++I) {
    if (!V.Buckets[I])
      continue;
    OS << (First ? "" : ", ") << "[" << I << ", " << V.Buckets[I] << "]";
    First = false;
  }
  OS << "]}";
}

template <class T, class Fn>
void appendMap(std::ostream &OS, const char *Key,
               const std::map<std::string, T> &M, Fn &&Value, bool Last) {
  OS << "  \"" << Key << "\": {";
  bool First = true;
  for (const auto &[N, V] : M) {
    OS << (First ? "\n    \"" : ",\n    \"");
    appendEscaped(OS, N);
    OS << "\": ";
    Value(V);
    First = false;
  }
  OS << (First ? "}" : "\n  }") << (Last ? "\n" : ",\n");
}

} // namespace

std::string TelemetryRegistry::toJson() {
  TelemetrySnapshot S = snapshot();
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"telemetry_compiled\": " << (PST_TELEMETRY != 0 ? "true" : "false")
     << ",\n";
  OS << "  \"telemetry_enabled\": "
     << (Telemetry::enabled() ? "true" : "false") << ",\n";
  OS << "  \"spans_retained\": " << S.Spans.size() << ",\n";
  OS << "  \"spans_dropped\": " << S.DroppedSpans << ",\n";
  OS << "  \"spans_sampled_out\": " << S.SampledOutSpans << ",\n";
  appendMap(OS, "counters", S.Counters,
            [&OS](uint64_t V) { OS << V; }, /*Last=*/false);
  appendMap(OS, "timers_ns", S.Timers,
            [&OS](const ValueStats &V) { appendStats(OS, V); },
            /*Last=*/false);
  appendMap(OS, "values", S.Values,
            [&OS](const ValueStats &V) { appendStats(OS, V); },
            /*Last=*/true);
  OS << "}\n";
  return OS.str();
}
