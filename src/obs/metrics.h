#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

// Compile-time switch for the whole telemetry layer (metrics registry +
// trace spans): -DTASER_TELEMETRY=OFF (the CMake option) defines
// TASER_TELEMETRY_ENABLED=0, a gauge set compiles to nothing and no scope
// links into the registry. Default ON. Mirrors the TASER_FAILPOINTS
// pattern (util/failpoint.h). Exporters and snapshot functions still
// exist when OFF; they return empty results. Scope storage stays: its
// owners' stats read it.
#ifndef TASER_TELEMETRY_ENABLED
#define TASER_TELEMETRY_ENABLED 1
#endif

namespace taser::obs {

/// True when the telemetry layer is compiled in; tests gate on this and
/// the OFF CI build proves the compile-out path.
constexpr bool compiled_in() { return TASER_TELEMETRY_ENABLED != 0; }

// ---------------------------------------------------------------------------
// Histogram bucket geometry (shared by the registry, the serving stats
// path and the exporters). Log-spaced: 8 buckets per octave (bucket edge
// ratio 2^(1/8) ~ 9.05%), value domain [2^-7, 2^19) ~ [0.0078, 524288)
// in whatever unit the metric declares (serving latency uses
// milliseconds: ~8 us .. ~9 min). Underflow clamps into bucket 0,
// overflow into the last bucket. Quantile queries log-interpolate within
// the bucket, so the estimate error is well under the bucket width on
// smooth distributions.
// ---------------------------------------------------------------------------
struct HistogramBuckets {
  static constexpr int kPerOctave = 8;
  static constexpr int kMinExp2 = -7;   ///< lowest bucket lower edge = 2^-7
  static constexpr int kMaxExp2 = 19;   ///< highest bucket upper edge = 2^19
  static constexpr int kCount = (kMaxExp2 - kMinExp2) * kPerOctave;  // 208

  /// Bucket index for `v` (clamped into [0, kCount-1]; v <= 0 maps to 0).
  static int index(double v);
  /// Upper (inclusive, Prometheus `le`) edge of bucket i.
  static double upper_edge(int i);
  /// Lower edge of bucket i.
  static double lower_edge(int i);
};

/// A plain (non-atomic, non-registered) fixed-bucket histogram value
/// type: what snapshots and Scope reads return. NOT gated by
/// TASER_TELEMETRY_ENABLED — it is just arithmetic, and the serving
/// percentile path depends on it.
struct LocalHistogram {
  std::array<std::uint64_t, HistogramBuckets::kCount> buckets{};
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;  ///< exact; meaningful only when count > 0
  double max = 0;  ///< exact

  void observe(double v) {
    buckets[static_cast<std::size_t>(HistogramBuckets::index(v))]++;
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    ++count;
    sum += v;
  }
  void merge(const LocalHistogram& o) {
    for (int i = 0; i < HistogramBuckets::kCount; ++i)
      buckets[static_cast<std::size_t>(i)] += o.buckets[static_cast<std::size_t>(i)];
    if (o.count > 0) {
      if (count == 0 || o.min < min) min = o.min;
      if (count == 0 || o.max > max) max = o.max;
    }
    count += o.count;
    sum += o.sum;
  }
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Nearest-rank quantile with log interpolation inside the bucket;
  /// q in [0, 1]. Returns 0 when empty. The exact tracked min/max clamp
  /// the interpolation so q=0 / q=1 never leave the observed range.
  double quantile(double q) const;
};

/// The same histogram updated with relaxed atomics from any thread: the
/// storage behind Scope. An update is three relaxed RMWs (bucket, count,
/// sum) plus a CAS when an extreme moves. Fed by one writer at a time
/// (e.g. under its owner's lock) it reads back bit-identical to a
/// LocalHistogram fed the same values; concurrent writers may reorder the
/// sum's additions. Not gated by TASER_TELEMETRY_ENABLED.
class AtomicHistogram {
 public:
  void observe(double v);
  /// Relaxed read: exact once the writers have quiesced or are excluded
  /// by the caller's lock, a monotone view while they run.
  LocalHistogram read() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramBuckets::kCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{HUGE_VAL};  ///< exact; meaningful only when count > 0
  std::atomic<double> max_{-HUGE_VAL};
};

// ---------------------------------------------------------------------------
// The registry: series names, gauges, the live scopes, and the totals
// that destroyed scopes folded into their series. Counts and latencies
// live only in scopes (below); a gauge, a last-write-wins process global
// with no per-object view, is the one kind written through a handle.
//
// Capacity-bounded (kMaxCounters / kMaxGauges / kMaxHistograms below;
// exceeding a bound is a hard failure at registration time, never at
// update time). Registering the same name twice returns the same series —
// owners and tests re-construct freely.
//
// Prometheus semantics: registry values are process-lifetime cumulative.
// A per-object view (e.g. one ServingEngine's stats) reads its own scope —
// see src/obs/README.md.
// ---------------------------------------------------------------------------
inline constexpr int kMaxCounters = 256;
inline constexpr int kMaxGauges = 64;
inline constexpr int kMaxHistograms = 64;

/// A gauge handle: registered once at setup time (registration takes a
/// mutex and may allocate — never do it on a hot path); a set is one
/// relaxed store. Trivially copyable; a default-constructed handle is
/// valid and sets a reserved "unregistered" slot (so static-init order
/// can never crash a hot path).
class Gauge {
 public:
  Gauge() = default;
#if TASER_TELEMETRY_ENABLED
  void set(double v) const;
#else
  void set(double) const {}
#endif

 private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(std::uint16_t id) : id_(id) {}
  std::uint16_t id_ = 0;
};

/// Register-or-lookup. Names are flat, dot-separated, lowercase
/// (`taser.train.mean_loss`); see src/obs/README.md for the scheme and
/// cardinality rules (no unbounded label values — worker/shard indices
/// only). When compiled out this returns a no-op handle.
Gauge gauge(std::string_view name);

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0;
};
struct HistogramSnapshot {
  std::string name;
  LocalHistogram hist;
};
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Every series: the folded totals plus every live Scope's values. Exact
/// when writers are quiescent; a consistent-enough monotone view while
/// they run. Empty when compiled out.
MetricsSnapshot snapshot();

/// Zeroes the folded totals and the gauges (names and handles stay
/// valid). Live scopes keep their values: their owners read them. Test
/// isolation only — production code never resets.
void reset_for_test();

/// An owned block of named counters and histograms: the only storage for
/// counts and latencies, and one set of books that feeds both its
/// owner's per-object view (e.g. ServingEngine::stats()) and the
/// exporters. Slots are fixed at construction and addressed by index, in
/// the order the names are given; updates are relaxed atomics from any
/// thread (a counter add is one RMW, a histogram observe an
/// AtomicHistogram update), reads are the owner's own values only. While
/// the scope lives, snapshot() adds its values to the registry series of
/// the same names; its destructor folds them into those series' totals,
/// so exported values stay process-cumulative. The storage stays
/// compiled in under TASER_TELEMETRY=OFF (owners' stats are functional);
/// only the registry link compiles out.
class Scope {
 public:
  Scope(std::initializer_list<std::string_view> counters,
        std::initializer_list<std::string_view> histograms);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void add(std::size_t slot, std::uint64_t n = 1) {
    counters_[slot].fetch_add(n, std::memory_order_relaxed);
  }
  void observe(std::size_t slot, double v) { histograms_[slot].observe(v); }
  std::uint64_t count(std::size_t slot) const {
    return counters_[slot].load(std::memory_order_relaxed);
  }
  LocalHistogram histogram(std::size_t slot) const { return histograms_[slot].read(); }

 private:
  friend MetricsSnapshot snapshot();

  std::vector<std::atomic<std::uint64_t>> counters_;
  std::vector<AtomicHistogram> histograms_;
  /// Registry slot of each counter / histogram (empty when compiled out).
  std::vector<std::uint16_t> counter_ids_, histogram_ids_;
};

}  // namespace taser::obs
