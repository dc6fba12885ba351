#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/check.h"

namespace taser::obs {

int HistogramBuckets::index(double v) {
  if (!(v > 0)) return 0;
  // log2(v) via frexp: v = m * 2^e with m in [0.5, 1) → log2(v) = e + log2(m).
  int e;
  const double m = std::frexp(v, &e);
  const double l2 = static_cast<double>(e) + std::log2(m);
  const int i = static_cast<int>(std::floor((l2 - kMinExp2) * kPerOctave));
  return i < 0 ? 0 : (i >= kCount ? kCount - 1 : i);
}

double HistogramBuckets::upper_edge(int i) {
  return std::exp2(static_cast<double>(kMinExp2) +
                   static_cast<double>(i + 1) / kPerOctave);
}

double HistogramBuckets::lower_edge(int i) {
  return std::exp2(static_cast<double>(kMinExp2) +
                   static_cast<double>(i) / kPerOctave);
}

double LocalHistogram::quantile(double q) const {
  TASER_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q << " outside [0, 1]");
  if (count == 0) return 0.0;
  // Nearest-rank: the smallest value whose cumulative count reaches
  // ceil(q * count) (q=0 → rank 1, the minimum).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (int i = 0; i < HistogramBuckets::kCount; ++i) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (cum + in_bucket >= rank) {
      // Log-interpolate the rank's position inside the bucket: fraction
      // of the bucket's own observations below the rank.
      const double frac = (static_cast<double>(rank - cum) - 0.5) /
                          static_cast<double>(in_bucket);
      const double lo = HistogramBuckets::lower_edge(i);
      const double hi = HistogramBuckets::upper_edge(i);
      double v = lo * std::exp2(std::log2(hi / lo) *
                                std::min(1.0, std::max(0.0, frac)));
      // Exact extremes bound the estimate (q=0/1 return them exactly).
      if (v < min) v = min;
      if (v > max) v = max;
      return v;
    }
    cum += in_bucket;
  }
  return max;
}

void AtomicHistogram::observe(double v) {
  buckets_[static_cast<std::size_t>(HistogramBuckets::index(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // CAS only when an extreme actually moves — after warm-up these are two
  // relaxed loads.
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

LocalHistogram AtomicHistogram::read() const {
  LocalHistogram h;
  h.count = count_.load(std::memory_order_relaxed);
  if (h.count == 0) return h;
  for (int i = 0; i < HistogramBuckets::kCount; ++i)
    h.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  h.sum = sum_.load(std::memory_order_relaxed);
  h.min = min_.load(std::memory_order_relaxed);
  h.max = max_.load(std::memory_order_relaxed);
  return h;
}

#if TASER_TELEMETRY_ENABLED

namespace {

/// Everything the registry holds, guarded by `mu` except the gauge
/// values. A series' total is what its destroyed scopes folded in; the
/// live scopes' values are added only when snapshot() reads them.
struct Registry {
  std::mutex mu;
  std::vector<std::string> counter_names, hist_names;
  std::vector<std::uint64_t> counter_totals;
  std::vector<LocalHistogram> hist_totals;
  /// Slot 0 is the reserved "unregistered handle" sink.
  std::vector<std::string> gauge_names{"taser.unregistered"};
  /// Gauges are last-write-wins process globals, set without the lock.
  std::atomic<double> gauges[kMaxGauges]{};
  std::vector<const Scope*> scopes;

  static std::uint16_t intern(std::vector<std::string>& names,
                              std::string_view name, int cap, const char* kind) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == name) return static_cast<std::uint16_t>(i);
    TASER_CHECK_MSG(static_cast<int>(names.size()) < cap,
                    "metric registry " << kind << " capacity (" << cap
                                       << ") exhausted registering '" << name
                                       << "'");
    names.emplace_back(name);
    return static_cast<std::uint16_t>(names.size() - 1);
  }
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives every static dtor
  return *r;
}

}  // namespace

void Gauge::set(double v) const {
  registry().gauges[id_].store(v, std::memory_order_relaxed);
}

Gauge gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Gauge(Registry::intern(r.gauge_names, name, kMaxGauges, "gauge"));
}

MetricsSnapshot snapshot() {
  Registry& r = registry();
  MetricsSnapshot out;
  // Held throughout: a scope folds into the totals and unlinks under
  // this lock, so the snapshot counts it exactly once — live or folded.
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.counter_names.size(); ++i)
    out.counters.push_back({r.counter_names[i], r.counter_totals[i]});
  for (std::size_t i = 1; i < r.gauge_names.size(); ++i)
    out.gauges.push_back({r.gauge_names[i], r.gauges[i].load(std::memory_order_relaxed)});
  for (std::size_t i = 0; i < r.hist_names.size(); ++i)
    out.histograms.push_back({r.hist_names[i], r.hist_totals[i]});
  for (const Scope* scope : r.scopes) {
    for (std::size_t i = 0; i < scope->counter_ids_.size(); ++i)
      out.counters[scope->counter_ids_[i]].value += scope->count(i);
    for (std::size_t i = 0; i < scope->histogram_ids_.size(); ++i)
      out.histograms[scope->histogram_ids_[i]].hist.merge(scope->histogram(i));
  }
  return out;
}

void reset_for_test() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& g : r.gauges) g.store(0.0, std::memory_order_relaxed);
  std::fill(r.counter_totals.begin(), r.counter_totals.end(), 0);
  std::fill(r.hist_totals.begin(), r.hist_totals.end(), LocalHistogram{});
}

Scope::Scope(std::initializer_list<std::string_view> counters,
             std::initializer_list<std::string_view> histograms)
    : counters_(counters.size()), histograms_(histograms.size()) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::string_view name : counters)
    counter_ids_.push_back(
        Registry::intern(r.counter_names, name, kMaxCounters, "counter"));
  for (std::string_view name : histograms)
    histogram_ids_.push_back(
        Registry::intern(r.hist_names, name, kMaxHistograms, "histogram"));
  r.counter_totals.resize(r.counter_names.size());
  r.hist_totals.resize(r.hist_names.size());
  r.scopes.push_back(this);
}

Scope::~Scope() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < counter_ids_.size(); ++i)
    r.counter_totals[counter_ids_[i]] += count(i);
  for (std::size_t i = 0; i < histogram_ids_.size(); ++i)
    r.hist_totals[histogram_ids_[i]].merge(histogram(i));
  r.scopes.erase(std::find(r.scopes.begin(), r.scopes.end(), this));
}

#else  // !TASER_TELEMETRY_ENABLED

Gauge gauge(std::string_view) { return Gauge(); }
MetricsSnapshot snapshot() { return {}; }
void reset_for_test() {}
Scope::Scope(std::initializer_list<std::string_view> counters,
             std::initializer_list<std::string_view> histograms)
    : counters_(counters.size()), histograms_(histograms.size()) {}
Scope::~Scope() = default;

#endif  // TASER_TELEMETRY_ENABLED

}  // namespace taser::obs
