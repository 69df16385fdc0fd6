//===- common.cpp - Shared plumbing of the repository benchmark -----------===//

#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <sys/resource.h>

//===----------------------------------------------------------------------===//
// Global allocation counter. Replacing operator new/delete counts every
// heap allocation in the process. Each thread bumps its own cache line, so
// the count costs the 4-worker hot paths no shared-line contention.
//===----------------------------------------------------------------------===//

namespace {
constexpr unsigned NumAllocSlots = 64;
struct alignas(64) AllocSlot {
  std::atomic<uint64_t> N{0};
};
AllocSlot GAllocSlots[NumAllocSlots];
std::atomic<unsigned> GNextAllocSlot{0};
thread_local unsigned TAllocSlot = ~0u;

inline void countAlloc() {
  if (TAllocSlot == ~0u)
    TAllocSlot = GNextAllocSlot.fetch_add(1, std::memory_order_relaxed) %
                 NumAllocSlots;
  GAllocSlots[TAllocSlot].N.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

void *operator new(size_t Size) {
  countAlloc();
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size) { return ::operator new(Size); }
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  countAlloc();
  return std::malloc(Size ? Size : 1);
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  countAlloc();
  return std::malloc(Size ? Size : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace perfbench {

uint64_t allocCount() {
  uint64_t Sum = 0;
  for (const AllocSlot &S : GAllocSlots)
    Sum += S.N.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t peakRssBytes() {
  struct rusage Ru;
  if (getrusage(RUSAGE_SELF, &Ru) != 0)
    return 0;
  return uint64_t(Ru.ru_maxrss) * 1024; // KiB on Linux.
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

// -- LatencyHistogram --------------------------------------------------------

namespace {
constexpr unsigned SubBits = 7; // 128 buckets per power of two.
constexpr uint64_t SubCount = uint64_t(1) << SubBits;
constexpr size_t NumBuckets = (64 - SubBits + 1) * SubCount;
} // namespace

LatencyHistogram::LatencyHistogram() : Counts(NumBuckets, 0) {}

size_t LatencyHistogram::index(uint64_t V) {
  if (V < SubCount)
    return size_t(V);
  unsigned Msb = 63u - unsigned(__builtin_clzll(V));
  unsigned Shift = Msb - SubBits;
  return size_t((uint64_t(Shift) + 1) * SubCount + ((V >> Shift) - SubCount));
}

uint64_t LatencyHistogram::lowerBound(size_t I) {
  if (I < SubCount)
    return I;
  unsigned Shift = unsigned(I / SubCount) - 1;
  return (SubCount + I % SubCount) << Shift;
}

uint64_t LatencyHistogram::bucketWidth(size_t I) {
  if (I < SubCount)
    return 1;
  return uint64_t(1) << (unsigned(I / SubCount) - 1);
}

void LatencyHistogram::merge(const LatencyHistogram &O) {
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] += O.Counts[I];
  Total += O.Total;
  SumNs += O.SumNs;
}

double LatencyHistogram::percentileNs(double P) const {
  if (Total == 0)
    return 0;
  // Rank of the percentile among Total samples; the samples of a bucket
  // are taken as spread evenly across its width.
  double Rank = P * double(Total);
  uint64_t Before = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (!Counts[I])
      continue;
    if (double(Before + Counts[I]) >= Rank) {
      double Within = (Rank - double(Before)) / double(Counts[I]);
      return double(lowerBound(I)) + Within * double(bucketWidth(I));
    }
    Before += Counts[I];
  }
  return double(lowerBound(Counts.size() - 1));
}

// -- Windows -----------------------------------------------------------------

size_t numWindows(double RunSeconds) {
  return RunSeconds >= 4 ? size_t(RunSeconds) : 4;
}

// -- Report ------------------------------------------------------------------

void Report::endToEnd(std::string Name, double Value, std::string Unit) {
  E2E.push_back({std::move(Name), Value, std::move(Unit)});
}

void Report::layer(std::string Name, double Value, std::string Unit) {
  Layers.push_back({std::move(Name), Value, std::move(Unit)});
}

void Report::fail(const std::string &Why, uint64_t N) {
  if (Failed < 10)
    std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
  Failed += N;
}

void Report::detail(const std::string &Name, double Value,
                    const std::string &Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-28s %16.6g %s", Name.c_str(), Value,
                Unit.c_str());
  Details.push_back(Buf);
}

// -- Seeds and popularity ----------------------------------------------------

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z ^= Z >> 31;
  return Z ? Z : 0x2545f4914f6cdd1dull;
}

uint64_t zipfRank(uint64_t N, uint64_t UniformBits) {
  // U uniform in [0, 1); exp(U * ln(N + 1)) is log-uniform in [1, N + 1).
  double U = double(UniformBits >> 11) * 0x1.0p-53;
  uint64_t K = uint64_t(std::exp(U * std::log(double(N) + 1.0))) - 1;
  return K < N ? K : N - 1;
}

} // namespace perfbench
