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
  extend(v, v);
}

void AtomicHistogram::add(const LocalHistogram& h) {
  if (h.count == 0) return;
  for (int i = 0; i < HistogramBuckets::kCount; ++i)
    buckets_[static_cast<std::size_t>(i)].fetch_add(
        h.buckets[static_cast<std::size_t>(i)], std::memory_order_relaxed);
  count_.fetch_add(h.count, std::memory_order_relaxed);
  sum_.fetch_add(h.sum, std::memory_order_relaxed);
  extend(h.min, h.max);
}

void AtomicHistogram::extend(double lo, double hi) {
  // CAS only when an extreme actually moves — after warm-up these are two
  // relaxed loads.
  double cur = min_.load(std::memory_order_relaxed);
  while (lo < cur && !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur && !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
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

void AtomicHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(HUGE_VAL, std::memory_order_relaxed);
  max_.store(-HUGE_VAL, std::memory_order_relaxed);
}

#if TASER_TELEMETRY_ENABLED

namespace {

/// One thread's slice of every registered metric. Allocated once per
/// shard slot on first use (startup-time, not steady state), never freed.
/// Cells are written with relaxed RMWs: a shard slot is normally owned
/// by one thread (uncontended RMW on a private line), but slots wrap at
/// kMaxShards, so the RMW keeps totals exact even when two threads share
/// a slot.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters];
  AtomicHistogram histograms[kMaxHistograms];
};

constexpr int kMaxShards = 64;

struct Registry {
  std::mutex mu;
  // Slot 0 of each kind is the reserved "unregistered handle" sink.
  std::vector<std::string> counter_names{"taser.unregistered"};
  std::vector<std::string> gauge_names{"taser.unregistered"};
  std::vector<std::string> hist_names{"taser.unregistered"};
  /// Gauges are last-write-wins process globals — not sharded (a sharded
  /// gauge has no meaningful merge).
  std::atomic<double> gauges[kMaxGauges]{};

  std::atomic<Shard*> shards[kMaxShards]{};
  std::atomic<std::uint32_t> next_slot{0};
  /// Live scopes (guarded by mu): snapshot() adds them to the series of
  /// the same names until their destructor folds them into a shard.
  std::vector<const Scope*> scopes;

  Shard& shard_for_this_thread() {
    thread_local Shard* tl = nullptr;
    if (tl == nullptr) {
      const auto slot = next_slot.fetch_add(1, std::memory_order_relaxed) %
                        static_cast<std::uint32_t>(kMaxShards);
      Shard* s = shards[slot].load(std::memory_order_acquire);
      if (s == nullptr) {
        std::lock_guard<std::mutex> lock(mu);
        s = shards[slot].load(std::memory_order_acquire);
        if (s == nullptr) {
          s = new Shard();
          shards[slot].store(s, std::memory_order_release);
        }
      }
      tl = s;
    }
    return *tl;
  }

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

void Counter::add(std::uint64_t n) const {
  registry().shard_for_this_thread().counters[id_].fetch_add(
      n, std::memory_order_relaxed);
}

void Gauge::set(double v) const {
  registry().gauges[id_].store(v, std::memory_order_relaxed);
}

void Histogram::observe(double v) const {
  registry().shard_for_this_thread().histograms[id_].observe(v);
}

Counter counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Counter(Registry::intern(r.counter_names, name, kMaxCounters, "counter"));
}

Gauge gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Gauge(Registry::intern(r.gauge_names, name, kMaxGauges, "gauge"));
}

Histogram histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Histogram(Registry::intern(r.hist_names, name, kMaxHistograms, "histogram"));
}

MetricsSnapshot snapshot() {
  Registry& r = registry();
  MetricsSnapshot out;
  // Held throughout: a scope folds into a shard and unlinks under this
  // lock, so the snapshot counts it exactly once — live or folded.
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 1; i < r.counter_names.size(); ++i)
    out.counters.push_back({r.counter_names[i], 0});
  for (std::size_t i = 1; i < r.gauge_names.size(); ++i)
    out.gauges.push_back({r.gauge_names[i], r.gauges[i].load(std::memory_order_relaxed)});
  for (std::size_t i = 1; i < r.hist_names.size(); ++i)
    out.histograms.push_back({r.hist_names[i], {}});
  for (int slot = 0; slot < kMaxShards; ++slot) {
    const Shard* s = r.shards[slot].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t i = 1; i <= out.counters.size(); ++i)
      out.counters[i - 1].value += s->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 1; i <= out.histograms.size(); ++i)
      out.histograms[i - 1].hist.merge(s->histograms[i].read());
  }
  for (const Scope* scope : r.scopes) {
    for (std::size_t i = 0; i < scope->counter_ids_.size(); ++i)
      out.counters[scope->counter_ids_[i] - 1u].value += scope->count(i);
    for (std::size_t i = 0; i < scope->histogram_ids_.size(); ++i)
      out.histograms[scope->histogram_ids_[i] - 1u].hist.merge(scope->histogram(i));
  }
  return out;
}

void reset_for_test() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& g : r.gauges) g.store(0.0, std::memory_order_relaxed);
  for (int slot = 0; slot < kMaxShards; ++slot) {
    Shard* s = r.shards[slot].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->histograms) h.reset();
  }
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
  r.scopes.push_back(this);
}

Scope::~Scope() {
  Registry& r = registry();
  Shard& shard = r.shard_for_this_thread();  // may lock r.mu: take it first
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < counter_ids_.size(); ++i)
    shard.counters[counter_ids_[i]].fetch_add(count(i), std::memory_order_relaxed);
  for (std::size_t i = 0; i < histogram_ids_.size(); ++i)
    shard.histograms[histogram_ids_[i]].add(histogram(i));
  r.scopes.erase(std::find(r.scopes.begin(), r.scopes.end(), this));
}

#else  // !TASER_TELEMETRY_ENABLED

Counter counter(std::string_view) { return Counter(); }
Gauge gauge(std::string_view) { return Gauge(); }
Histogram histogram(std::string_view) { return Histogram(); }
MetricsSnapshot snapshot() { return {}; }
void reset_for_test() {}
Scope::Scope(std::initializer_list<std::string_view> counters,
             std::initializer_list<std::string_view> histograms)
    : counters_(counters.size()), histograms_(histograms.size()) {}
Scope::~Scope() = default;

#endif  // TASER_TELEMETRY_ENABLED

}  // namespace taser::obs
