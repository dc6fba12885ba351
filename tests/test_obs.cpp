// Telemetry layer (src/obs/): registry exactness under concurrent scope
// writers, register-or-lookup idempotence, histogram bucket geometry and
// quantile resolution, the bucketwise merge of skewed shards against the
// exact percentile, the obs::Scope contract (owner-only reads, snapshot
// sums of live and folded scopes, fold on destruction, bit-identity with
// LocalHistogram),
// trace-ring overflow/nesting/async emission, the exporters (Prometheus
// text, JSON snapshot round-trip, Chrome trace_event), and the
// determinism contract: runtime tracing on/off must not change a single
// training bit. With -DTASER_TELEMETRY=OFF the registry/trace tests skip
// themselves (the Scope owner-side tests still run) and the compile-out
// test proves the exporters return empty documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace taser;

namespace {

/// Bucket-edge ratio: log interpolation keeps quantile estimates inside
/// one bucket, so this bounds the relative error vs the exact value.
const double kBucketRatio = std::pow(2.0, 1.0 / obs::HistogramBuckets::kPerOctave);

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_for_test();
    obs::set_trace_enabled(false);
    obs::clear_spans();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::clear_spans();
    obs::reset_for_test();
  }
};

std::uint64_t counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

const obs::LocalHistogram* find_hist(const obs::MetricsSnapshot& snap,
                                     const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h.hist;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterExactUnderConcurrentWriters) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::Scope scope({"test.obs.concurrent"}, {});
  const int kThreads = 8;
  const std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) scope.add(0);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter_value(obs::snapshot(), "test.obs.concurrent"),
            kThreads * kPerThread);
}

TEST_F(ObsTest, RegisterOrLookupSharesTheSeries) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::Scope a({"test.obs.same_name"}, {});
  obs::Scope b({"test.obs.same_name"}, {});
  a.add(0, 3);
  b.add(0, 4);
  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_EQ(counter_value(snap, "test.obs.same_name"), 7u);
  EXPECT_EQ(std::count_if(snap.counters.begin(), snap.counters.end(),
                          [](const auto& c) { return c.name == "test.obs.same_name"; }),
            1);
}

TEST_F(ObsTest, HistogramSnapshotMergesScopesExactly) {
  // One scope per thread, as the worker shards own theirs: two fold into
  // the series as their threads end, two are still live at the snapshot.
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const int kThreads = 4;
  obs::Scope live0({}, {"test.obs.hist"});
  obs::Scope live1({}, {"test.obs.hist"});
  obs::Scope* live[2] = {&live0, &live1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto observe_all = [t](obs::Scope& scope) {
        for (int i = 1; i <= 1000; ++i) scope.observe(0, static_cast<double>(t * 1000 + i));
      };
      if (t < 2) {
        observe_all(*live[t]);
      } else {
        obs::Scope own({}, {"test.obs.hist"});
        observe_all(own);
      }
    });
  for (auto& t : threads) t.join();
  const obs::MetricsSnapshot snap = obs::snapshot();  // outlives `merged`
  const obs::LocalHistogram* merged = find_hist(snap, "test.obs.hist");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 4000u);
  EXPECT_DOUBLE_EQ(merged->min, 1.0);
  EXPECT_DOUBLE_EQ(merged->max, 4000.0);
  // sum accumulates per scope in double then merges; values are integers
  // well under 2^53 so the total is exact.
  EXPECT_DOUBLE_EQ(merged->sum, 4000.0 * 4001.0 / 2.0);
}

TEST_F(ObsTest, GaugeHoldsLastSetValue) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const obs::Gauge g = obs::gauge("test.obs.gauge");
  g.set(1.5);
  g.set(-7.25);
  const auto snap = obs::snapshot();
  for (const auto& gs : snap.gauges)
    if (gs.name == "test.obs.gauge") {
      EXPECT_DOUBLE_EQ(gs.value, -7.25);
      return;
    }
  FAIL() << "gauge not found in snapshot";
}

// ---------------------------------------------------------------------------
// LocalHistogram (plain value type — works even when compiled out)
// ---------------------------------------------------------------------------

TEST(LocalHistogram, BucketGeometryRoundTrips) {
  for (int i = 0; i < obs::HistogramBuckets::kCount; ++i) {
    const double lo = obs::HistogramBuckets::lower_edge(i);
    const double hi = obs::HistogramBuckets::upper_edge(i);
    EXPECT_LT(lo, hi);
    // A value strictly inside the bucket indexes back to it.
    EXPECT_EQ(obs::HistogramBuckets::index(std::sqrt(lo * hi)), i);
  }
  // Clamping at the domain edges.
  EXPECT_EQ(obs::HistogramBuckets::index(0.0), 0);
  EXPECT_EQ(obs::HistogramBuckets::index(-5.0), 0);
  EXPECT_EQ(obs::HistogramBuckets::index(1e12), obs::HistogramBuckets::kCount - 1);
}

TEST(LocalHistogram, QuantileWithinBucketResolution) {
  obs::LocalHistogram h;
  util::Rng rng(11);
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) {
    const double v = 0.1 + 99.9 * static_cast<double>(rng.next_float());
    vals.push_back(v);
    h.observe(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = vals[static_cast<std::size_t>(q * (vals.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_LE(est, exact * kBucketRatio * 1.01) << "q=" << q;
    EXPECT_GE(est, exact / kBucketRatio / 1.01) << "q=" << q;
  }
  // The exact tracked extremes clamp the interpolation.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), vals.front());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), vals.back());
  EXPECT_DOUBLE_EQ(h.min, vals.front());
  EXPECT_DOUBLE_EQ(h.max, vals.back());
}

TEST(LocalHistogram, MergeAddsCountsAndExtremes) {
  obs::LocalHistogram a, b;
  a.observe(1.0);
  a.observe(2.0);
  b.observe(0.5);
  b.observe(8.0);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.min, 0.5);
  EXPECT_DOUBLE_EQ(a.max, 8.0);
  EXPECT_DOUBLE_EQ(a.sum, 11.5);
  obs::LocalHistogram empty;
  a.merge(empty);  // merging empty is a no-op
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.min, 0.5);
}

TEST(LocalHistogram, MergedSkewedShardsMatchExactPercentile) {
  // Three shards with skewed loads and different latency regimes, as hash
  // dispatch produces. The bucketwise merge counts every request once, so
  // it differs from the exact nearest-rank percentile of the whole
  // population only by bucket resolution.
  util::Rng rng(23);
  std::vector<obs::LocalHistogram> hists(3);
  std::vector<double> all;
  const double base[3] = {1.0, 5.0, 20.0};
  const std::size_t loads[3] = {4000, 1000, 250};
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t i = 0; i < loads[s]; ++i) {
      const double v = base[s] * (0.5 + static_cast<double>(rng.next_float()));
      hists[s].observe(v);
      all.push_back(v);
    }
  obs::LocalHistogram merged;
  for (const obs::LocalHistogram& h : hists) merged.merge(h);
  std::sort(all.begin(), all.end());
  for (double p : {0.5, 0.95, 0.99}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(p * static_cast<double>(all.size()))));
    const double exact = all[rank - 1];
    EXPECT_LE(merged.quantile(p), exact * kBucketRatio * 1.01) << "p=" << p;
    EXPECT_GE(merged.quantile(p), exact / kBucketRatio / 1.01) << "p=" << p;
  }
  // Empty shards merge to an empty histogram, which reports zero.
  obs::LocalHistogram none;
  for (int i = 0; i < 4; ++i) none.merge(obs::LocalHistogram{});
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// obs::Scope: one set of books for the owner's view and the exporters
// ---------------------------------------------------------------------------

// Owner-side reads are functional, so these hold with telemetry compiled
// out too.
TEST(ObsScope, OwnerSeesOnlyItsOwnValues) {
  obs::Scope a({"test.scope.own"}, {"test.scope.own_ms"});
  obs::Scope b({"test.scope.own"}, {"test.scope.own_ms"});
  {
    obs::Scope other({"test.scope.own"}, {"test.scope.own_ms"});  // folds into the series
    other.add(0, 100);
    other.observe(0, 100.0);
  }
  a.add(0, 3);
  b.add(0);
  a.observe(0, 2.0);
  EXPECT_EQ(a.count(0), 3u);
  EXPECT_EQ(b.count(0), 1u);
  EXPECT_EQ(a.histogram(0).count, 1u);
  EXPECT_DOUBLE_EQ(a.histogram(0).max, 2.0);
  EXPECT_EQ(b.histogram(0).count, 0u);
}

TEST(ObsScope, SingleWriterHistogramMatchesLocalHistogram) {
  obs::Scope scope({}, {"test.scope.bits_ms"});
  obs::LocalHistogram local;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Inexact sums, a zero and a negative value: the atomic sum must round
    // like `sum += v` and the extremes must order like `<`.
    const double v = i == 10 ? 0.0
                     : i == 20
                         ? -1.5
                         : 0.01 + 50.0 * static_cast<double>(rng.next_float()) *
                                      static_cast<double>(rng.next_float());
    scope.observe(0, v);
    local.observe(v);
  }
  const obs::LocalHistogram got = scope.histogram(0);
  EXPECT_EQ(got.buckets, local.buckets);
  EXPECT_EQ(got.count, local.count);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum), std::bit_cast<std::uint64_t>(local.sum));
  EXPECT_EQ(got.min, local.min);
  EXPECT_EQ(got.max, local.max);
}

TEST_F(ObsTest, LiveAndFoldedScopesSumInSnapshot) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::Scope a({"test.scope.sum"}, {"test.scope.sum_ms"});
  obs::Scope b({"test.scope.sum"}, {"test.scope.sum_ms"});
  {
    obs::Scope folded({"test.scope.sum"}, {"test.scope.sum_ms"});
    folded.add(0, 5);
    folded.observe(0, 1.0);
  }
  // Scope updates are relaxed atomics from any thread.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) a.add(0);
    });
  for (auto& t : writers) t.join();
  b.add(0, 3);
  a.observe(0, 4.0);
  b.observe(0, 0.5);
  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_EQ(counter_value(snap, "test.scope.sum"), 4008u);
  EXPECT_EQ(std::count_if(snap.counters.begin(), snap.counters.end(),
                          [](const auto& c) { return c.name == "test.scope.sum"; }),
            1)
      << "a scope adds no series of its own";
  const obs::LocalHistogram* h = find_hist(snap, "test.scope.sum_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 5.5);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 4.0);
}

TEST_F(ObsTest, DestroyedScopeKeepsItsTotalsInTheSeries) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  {
    obs::Scope scope({"test.scope.fold"}, {"test.scope.fold_ms"});
    scope.add(0, 7);
    for (double v : {3.0, 0.25, 9.5}) scope.observe(0, v);
  }
  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_EQ(counter_value(snap, "test.scope.fold"), 7u);
  const obs::LocalHistogram* h = find_hist(snap, "test.scope.fold_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 12.75);
  EXPECT_DOUBLE_EQ(h->min, 0.25);
  EXPECT_DOUBLE_EQ(h->max, 9.5);
  // Process-cumulative: a later scope of the same name adds on top.
  obs::Scope again({"test.scope.fold"}, {});
  again.add(0);
  EXPECT_EQ(counter_value(obs::snapshot(), "test.scope.fold"), 8u);
}

// ---------------------------------------------------------------------------
// Trace rings
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpansRecordNestingAndTags) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_trace_enabled(true);
  const obs::SpanName outer_name = obs::intern_span_name("test.outer");
  const obs::SpanName inner_name = obs::intern_span_name("test.inner");
  std::uint64_t outer_id = 0;
  {
    obs::TraceSpan outer(outer_name, /*tag=*/42);
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(obs::current_span_id(), outer_id);
    obs::TraceSpan inner(inner_name);
    EXPECT_EQ(obs::current_span_id(), inner.id());
  }
  EXPECT_EQ(obs::current_span_id(), 0u);
  const auto spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by t0: outer first.
  EXPECT_EQ(obs::span_name(spans[0].name_id), "test.outer");
  EXPECT_EQ(spans[0].tag, 42u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(obs::span_name(spans[1].name_id), "test.inner");
  EXPECT_EQ(spans[1].parent, outer_id);
  for (const auto& s : spans) {
    EXPECT_LE(s.t0_ns, s.t1_ns);
    EXPECT_FALSE(s.async);
  }
  // Inner nests inside outer in time too.
  EXPECT_GE(spans[1].t0_ns, spans[0].t0_ns);
  EXPECT_LE(spans[1].t1_ns, spans[0].t1_ns);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const obs::SpanName name = obs::intern_span_name("test.disabled");
  {
    obs::TraceSpan span(name);
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(obs::collect_spans().empty());
}

TEST_F(ObsTest, RingOverflowDropsOldestNeverBlocks) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_trace_enabled(true);
  const obs::SpanName name = obs::intern_span_name("test.flood");
  const std::size_t cap = obs::ring_capacity();
  const std::size_t total = cap + cap / 2;
  for (std::size_t i = 0; i < total; ++i)
    obs::emit_span(name, /*t0=*/static_cast<std::int64_t>(i),
                   /*t1=*/static_cast<std::int64_t>(i + 1), /*parent=*/0, /*tag=*/i);
  const auto spans = obs::collect_spans();
  EXPECT_EQ(spans.size(), cap);
  EXPECT_EQ(obs::dropped_spans(), total - cap);
  // The survivors are the newest `cap` records.
  EXPECT_EQ(spans.front().tag, total - cap);
  EXPECT_EQ(spans.back().tag, total - 1);
  obs::clear_spans();
  EXPECT_TRUE(obs::collect_spans().empty());
  EXPECT_EQ(obs::dropped_spans(), 0u);
}

TEST_F(ObsTest, CrossThreadEmissionKeepsParentage) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_trace_enabled(true);
  const obs::SpanName parent_name = obs::intern_span_name("test.xroot");
  const obs::SpanName child_name = obs::intern_span_name("test.xchild");
  // The submit-side pattern: allocate the id + t0 here, let another
  // thread emit the finished span.
  const std::uint64_t child_id = obs::next_span_id();
  std::uint64_t parent_id = 0;
  std::int64_t t0 = 0;
  {
    obs::TraceSpan parent(parent_name);
    parent_id = parent.id();
    t0 = obs::trace_now_ns();
    std::thread worker([&] {
      obs::emit_span(child_name, t0, obs::trace_now_ns(), parent_id,
                     /*tag=*/7, /*async=*/true, child_id);
    });
    worker.join();
  }
  const auto spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& child = spans[0].span_id == child_id ? spans[0] : spans[1];
  EXPECT_EQ(child.span_id, child_id);
  EXPECT_EQ(child.parent, parent_id);
  EXPECT_TRUE(child.async);
  EXPECT_EQ(child.tag, 7u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PrometheusTextFormat) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::Scope scope({"test.obs.prom_counter"}, {"test.obs.prom_hist"});
  scope.add(0, 5);
  obs::gauge("test.obs.prom_gauge").set(2.5);
  scope.observe(0, 1.0);
  scope.observe(0, 100.0);
  const std::string text = obs::prometheus_text();
  // Dots map to underscores; counters/gauges as plain samples.
  EXPECT_NE(text.find("test_obs_prom_counter 5"), std::string::npos) << text;
  EXPECT_NE(text.find("test_obs_prom_gauge 2.5"), std::string::npos) << text;
  // Histograms: cumulative buckets with le edges, +Inf, _sum, _count.
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_sum 101"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\""), std::string::npos);
}

TEST_F(ObsTest, JsonSnapshotRoundTrips) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::Scope scope({"test.obs.json_counter"}, {"test.obs.json_hist"});
  scope.add(0, 9);
  scope.observe(0, 3.5);
  const std::string doc = obs::json_snapshot();
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  EXPECT_TRUE(obs::json_has_key(doc, "schema_version"));
  EXPECT_TRUE(obs::json_has_key(doc, "counters"));
  EXPECT_TRUE(obs::json_has_key(doc, "gauges"));
  EXPECT_TRUE(obs::json_has_key(doc, "histograms"));
  EXPECT_NE(doc.find("\"test.obs.json_counter\":9"), std::string::npos) << doc;
}

TEST(JsonSupport, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(obs::json_valid("{\"a\":[1,2.5,-3e2,true,false,null],\"b\":{}}"));
  EXPECT_TRUE(obs::json_valid("\"just a string\""));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::json_valid("{'a':1}"));
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_has_key("{\"a\":{\"b\":1}}", "b"));  // top level only
  EXPECT_TRUE(obs::json_has_key("{\"a\":{\"b\":1}}", "a"));
  // Quoting round-trips control characters and quotes.
  const std::string quoted = obs::json_quote("a\"b\\c\n\t");
  EXPECT_TRUE(obs::json_valid(quoted));
}

TEST_F(ObsTest, ChromeTraceExport) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_trace_enabled(true);
  const obs::SpanName outer = obs::intern_span_name("test.chrome_outer");
  const obs::SpanName inner = obs::intern_span_name("test.chrome_inner");
  const obs::SpanName waitn = obs::intern_span_name("test.chrome_wait");
  {
    obs::TraceSpan a(outer);
    obs::TraceSpan b(inner);
  }
  obs::emit_span(waitn, 100, 900, /*parent=*/0, /*tag=*/1, /*async=*/true);
  const std::string doc = obs::chrome_trace_json(obs::collect_spans());
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  EXPECT_TRUE(obs::json_has_key(doc, "traceEvents"));
  // Sync spans are complete events; async spans nestable begin/end pairs.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(doc.find("test.chrome_outer"), std::string::npos);
  EXPECT_NE(doc.find("test.chrome_wait"), std::string::npos);
}

TEST(Exporters, EmptyWhenNothingRecorded) {
  // Works both compiled-in (no metrics registered by this TU yet — but
  // other tests may have registered; so only assert structural validity)
  // and compiled-out (documents must be valid and empty-ish).
  const std::string json = obs::json_snapshot();
  EXPECT_TRUE(obs::json_valid(json));
  const std::string chrome = obs::chrome_trace_json({});
  EXPECT_TRUE(obs::json_valid(chrome));
  if (!obs::compiled_in()) {
    EXPECT_TRUE(obs::snapshot().counters.empty());
    EXPECT_TRUE(obs::collect_spans().empty());
    EXPECT_EQ(obs::ring_capacity(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Determinism contract: telemetry reads the clock and nothing else.
// ---------------------------------------------------------------------------

TEST(ObsDeterminism, TracingOnOffTrainingBitsIdentical) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 50;
  cfg.num_dst = 25;
  cfg.num_edges = 1200;
  cfg.edge_feat_dim = 6;
  cfg.node_feat_dim = 4;
  cfg.seed = 31;
  graph::Dataset data = generate_synthetic(cfg);

  auto run = [&](bool tracing) {
    obs::set_trace_enabled(tracing);
    core::TrainerConfig tc;
    tc.backbone = core::BackboneKind::kTgat;
    tc.finder = core::FinderKind::kGpu;
    tc.batch_size = 64;
    tc.n_neighbors = 4;
    tc.m_candidates = 8;
    tc.hidden_dim = 16;
    tc.time_dim = 8;
    tc.seed = 5;
    core::Trainer trainer(data, tc);
    std::vector<float> losses;
    for (int e = 0; e < 2; ++e)
      losses.push_back(static_cast<float>(trainer.train_epoch().mean_loss));
    losses.push_back(static_cast<float>(trainer.evaluate_val_mrr()));
    obs::set_trace_enabled(false);
    obs::clear_spans();
    return losses;
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i)
    EXPECT_EQ(off[i], on[i]) << "telemetry changed training bit at " << i;
}

}  // namespace
