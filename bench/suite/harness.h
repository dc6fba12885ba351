// Shared harness of the measured benchmark suite: run options, the result
// record every workload fills, timing/percentile helpers, and the
// benchmark's own in-memory span log (written as Chrome trace JSON).
//
// Every time in the suite is host wall-clock (std::chrono::steady_clock).
// Modeled device time is reported only as `train.sim_s` and never gates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-ups per untraced run; setup_s is their median (one set-up is a few
/// milliseconds, too short for a single sample to repeat).
constexpr int kSetupRepeats = 11;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< measurement budget of one run
  bool trace = false;   ///< per-layer run: traced pass + layer replays
  std::string result_path;  ///< empty = .bench_build/results/<name>.json
};

/// Nearest-rank quantile of an unsorted sample (copy sorted); q in [0, 1].
/// Infinite entries (failed operations) sort last. Empty -> 0.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// One run's outcome. Workloads set metrics by name; main() prints the
/// mode's metric list (end-to-end or per-layer) from it.
struct Result {
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  /// Bit patterns that must repeat for a seed (loss trace, MRR); written
  /// to the result file so runs can be cross-checked.
  std::vector<std::pair<std::string, std::string>> fingerprints;

  void set(const std::string& name, double value);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  void check(const std::string& name, bool ok);
  bool all_checks_pass() const;
};

/// Exact hex rendering of doubles (fingerprints compare bit patterns).
std::string hex_bits(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Benchmark-side tracing. Spans are recorded by the suite's own code around
// its calls into each layer — the library's internal trace sites stay off.
// One SpanLog per recording thread (no sharing, no locks); capacity is
// reserved up front and overflow is counted, never grown, so recording
// allocates nothing while measuring.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, std::size_t capacity);
  /// Records [t0, t1) under an interned name; `tag` is site-defined.
  /// `async` spans (overlapping requests) render as their own rows.
  void add(taser::obs::SpanName name, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t tag = 0, bool async = false);
  const std::vector<taser::obs::SpanRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t tid_;
  std::size_t capacity_;
  std::vector<taser::obs::SpanRecord> records_;
  std::uint64_t dropped_ = 0;
};

/// Runs fn(), records it as one span (when `log` is set) and returns its
/// wall time in seconds.
template <typename Fn>
double timed(SpanLog* log, taser::obs::SpanName name, std::uint64_t tag, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (log != nullptr) log->add(name, t0, t1, tag);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Writes every log's records as one Chrome trace_event file.
bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// A measurement window over the library's obs registry, whose values are
/// process-cumulative: reads return the growth since construction.
class RegistryWindow {
 public:
  RegistryWindow() : before_(taser::obs::snapshot()) {}
  std::uint64_t counter(const std::string& name) const;
  /// Bucketwise growth of every histogram whose name starts with `prefix`,
  /// merged (e.g. the per-worker `taser.serve.latency_ms.w<N>` series).
  /// min/max are the cumulative extremes, which only widen the clamp of
  /// quantile().
  taser::obs::LocalHistogram histogram(const std::string& prefix) const;

 private:
  taser::obs::MetricsSnapshot before_;
};

/// Creates the parent directory of `path` (mkdir -p).
bool ensure_parent_dir(const std::string& path);

}  // namespace suite
