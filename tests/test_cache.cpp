// Feature store and GPU cache: gather correctness, hit/miss accounting,
// Algorithm 3 replacement behaviour (threshold, O(|E|) top-k, stability
// under stationary access patterns), and the Oracle upper bound.
#include <gtest/gtest.h>

#include <omp.h>

#include <cstring>
#include <numeric>

#include "cache/feature_store.h"
#include "cache/gpu_cache.h"
#include "graph/synthetic.h"
#include "util/rng.h"

using namespace taser;
using namespace taser::cache;

namespace {

graph::Dataset make_data(std::int64_t edges = 2000, std::int64_t de = 8) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 50;
  cfg.num_dst = 50;
  cfg.num_edges = edges;
  cfg.edge_feat_dim = de;
  cfg.node_feat_dim = 4;
  cfg.seed = 77;
  return generate_synthetic(cfg);
}

TEST(TopK, SelectsMostFrequent) {
  std::vector<std::uint32_t> counts = {5, 1, 9, 9, 0, 7};
  auto top3 = top_k_edges(counts, 3);
  EXPECT_EQ(top3, (std::vector<graph::EdgeId>{2, 3, 5}));
}

TEST(TopK, TieBreaksTowardLowerId) {
  std::vector<std::uint32_t> counts = {4, 4, 4, 4};
  auto top2 = top_k_edges(counts, 2);
  EXPECT_EQ(top2, (std::vector<graph::EdgeId>{0, 1}));
}

TEST(TopK, KLargerThanEdgesReturnsAll) {
  std::vector<std::uint32_t> counts = {1, 2};
  EXPECT_EQ(top_k_edges(counts, 10).size(), 2u);
  EXPECT_TRUE(top_k_edges(counts, 0).empty());
}

TEST(HostFeatureStore, GatherCopiesRowsAndZeroFillsPadding) {
  auto data = make_data(500, 6);
  gpusim::Device dev;
  HostFeatureStore store(data, dev);
  std::vector<graph::EdgeId> ids = {0, 42, graph::kInvalidEdge, 499};
  std::vector<float> out(ids.size() * 6, -1.f);
  store.gather_edge_feats(ids, out.data());
  for (int j = 0; j < 6; ++j) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(j)], data.edge_feat(0)[j]);
    EXPECT_FLOAT_EQ(out[6 + static_cast<std::size_t>(j)], data.edge_feat(42)[j]);
    EXPECT_FLOAT_EQ(out[12 + static_cast<std::size_t>(j)], 0.f);
    EXPECT_FLOAT_EQ(out[18 + static_cast<std::size_t>(j)], data.edge_feat(499)[j]);
  }
  EXPECT_GT(dev.elapsed().seconds, 0.0);  // H2D accounted
}

TEST(HostFeatureStore, NodeGatherWorks) {
  auto data = make_data(500, 6);
  gpusim::Device dev;
  HostFeatureStore store(data, dev);
  std::vector<graph::NodeId> ids = {3, graph::kInvalidNode};
  std::vector<float> out(ids.size() * 4, -1.f);
  store.gather_node_feats(ids, out.data());
  EXPECT_FLOAT_EQ(out[0], data.node_feat(3)[0]);
  EXPECT_FLOAT_EQ(out[4], 0.f);
}

TEST(GpuCache, GatherReturnsCorrectRowsRegardlessOfResidency) {
  auto data = make_data(1000, 8);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 0.2);
  std::vector<graph::EdgeId> ids(100);
  std::iota(ids.begin(), ids.end(), 100);
  std::vector<float> out(ids.size() * 8);
  cache.gather_edge_feats(ids, out.data());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (int j = 0; j < 8; ++j)
      ASSERT_FLOAT_EQ(out[i * 8 + static_cast<std::size_t>(j)],
                      data.edge_feat(ids[i])[j]);
}

TEST(GpuCache, CapacityMatchesRatio) {
  auto data = make_data(1000, 8);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 0.25);
  EXPECT_EQ(cache.capacity(), 250);
  std::int64_t resident = 0;
  for (graph::EdgeId e = 0; e < 1000; ++e) resident += cache.is_cached(e);
  EXPECT_EQ(resident, 250);
}

TEST(GpuCache, HitRateOneWhenEverythingCached) {
  auto data = make_data(300, 4);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 1.0);
  std::vector<graph::EdgeId> ids = {1, 2, 3, 200};
  std::vector<float> out(ids.size() * 4);
  cache.gather_edge_feats(ids, out.data());
  EXPECT_EQ(cache.current_epoch().misses, 0u);
  EXPECT_DOUBLE_EQ(cache.current_epoch().hit_rate(), 1.0);
}

TEST(GpuCache, AdaptsToSkewedAccessPatternWithinOneReplacement) {
  auto data = make_data(1000, 8);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 0.1);  // 100 rows
  // Hot set: edges 500..599 accessed every iteration.
  std::vector<graph::EdgeId> hot(100);
  std::iota(hot.begin(), hot.end(), 500);
  std::vector<float> out(hot.size() * 8);

  // Epoch 1: random initial content -> ~10% expected hit rate.
  for (int it = 0; it < 20; ++it) cache.gather_edge_feats(hot, out.data());
  cache.end_epoch();
  const double epoch1_hit = cache.history()[0].hit_rate();
  EXPECT_LT(epoch1_hit, 0.3);
  EXPECT_TRUE(cache.history()[0].replaced);  // overlap far below epsilon*k

  // Epoch 2: cache now holds exactly the hot set -> 100% hits.
  for (int it = 0; it < 20; ++it) cache.gather_edge_feats(hot, out.data());
  cache.end_epoch();
  EXPECT_DOUBLE_EQ(cache.history()[1].hit_rate(), 1.0);
  EXPECT_FALSE(cache.history()[1].replaced);  // stable pattern: no churn
  EXPECT_EQ(cache.replacements(), 1);
}

TEST(GpuCache, NoReplacementWhenOverlapAboveThreshold) {
  auto data = make_data(400, 4);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 0.5, /*epsilon=*/0.5);
  // Access exactly the currently cached set: overlap = k.
  std::vector<graph::EdgeId> cached_ids;
  for (graph::EdgeId e = 0; e < 400; ++e)
    if (cache.is_cached(e)) cached_ids.push_back(e);
  std::vector<float> out(cached_ids.size() * 4);
  cache.gather_edge_feats(cached_ids, out.data());
  cache.end_epoch();
  EXPECT_EQ(cache.replacements(), 0);
  EXPECT_FALSE(cache.history()[0].replaced);
}

TEST(GpuCache, ZeroCapacityNeverReplaces) {
  // 1% of 40 edges floors to 0 rows: the empty set is already the top-0,
  // so no epoch may swap it or charge the H2D copy of a swap.
  auto data = make_data(40, 4);
  gpusim::Device dev;
  GpuFeatureCache cache(data, dev, 0.01);
  ASSERT_EQ(cache.capacity(), 0);
  std::vector<graph::EdgeId> ids = {0, 7, 7, 39};
  std::vector<float> out(ids.size() * 4);
  for (int epoch = 0; epoch < 3; ++epoch) {
    cache.gather_edge_feats(ids, out.data());
    const double before = dev.elapsed().seconds;
    cache.end_epoch();
    EXPECT_EQ(dev.elapsed().seconds, before) << "epoch " << epoch;
    EXPECT_FALSE(cache.history()[static_cast<std::size_t>(epoch)].replaced);
    EXPECT_EQ(cache.history()[static_cast<std::size_t>(epoch)].misses, ids.size());
  }
  EXPECT_EQ(cache.replacements(), 0);
}

TEST(GpuCache, ParallelGatherMatchesSerialExactly) {
  // The gather is OpenMP-parallel with per-thread hit/miss counters
  // merged after the loop and atomic access-count increments; rows, all
  // statistics, and the end-of-epoch replacement decision must match the
  // serial (1-thread) gather bit-for-bit.
  const int saved_threads = omp_get_max_threads();
  auto data = make_data(800, 8);
  // Repeats (so freq counts go above 1), invalid ids, and a skewed head.
  std::vector<graph::EdgeId> ids;
  util::Rng rng(123);
  for (int i = 0; i < 600; ++i) {
    if (i % 37 == 0) {
      ids.push_back(graph::kInvalidEdge);
    } else {
      ids.push_back(static_cast<graph::EdgeId>(rng.next_below(i % 3 == 0 ? 50 : 800)));
    }
  }

  gpusim::Device dev1, dev4;
  GpuFeatureCache serial(data, dev1, 0.25);
  GpuFeatureCache parallel(data, dev4, 0.25);
  std::vector<float> out1(ids.size() * 8), out4(ids.size() * 8);

  omp_set_num_threads(1);
  serial.gather_edge_feats(ids, out1.data());
  omp_set_num_threads(4);
  parallel.gather_edge_feats(ids, out4.data());
  omp_set_num_threads(saved_threads);

  EXPECT_EQ(0, std::memcmp(out1.data(), out4.data(), out1.size() * sizeof(float)));
  EXPECT_EQ(serial.current_epoch().hits, parallel.current_epoch().hits);
  EXPECT_EQ(serial.current_epoch().misses, parallel.current_epoch().misses);
  EXPECT_EQ(dev1.elapsed().seconds, dev4.elapsed().seconds);  // same bytes accounted

  // Same access counts ⇒ same top-k ⇒ identical replacement outcome.
  serial.end_epoch();
  parallel.end_epoch();
  EXPECT_EQ(serial.history()[0].replaced, parallel.history()[0].replaced);
  for (graph::EdgeId e = 0; e < 800; ++e)
    ASSERT_EQ(serial.is_cached(e), parallel.is_cached(e)) << "edge " << e;
}

TEST(GpuCache, MissesCostMoreSimTimeThanHits) {
  auto data = make_data(1000, 64);
  std::vector<graph::EdgeId> ids(200);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<float> out(ids.size() * 64);

  gpusim::Device dev_hit;
  GpuFeatureCache all_cached(data, dev_hit, 1.0);
  dev_hit.reset_elapsed();  // exclude the initial fill
  all_cached.gather_edge_feats(ids, out.data());
  const double t_hits = dev_hit.elapsed().seconds;

  gpusim::Device dev_miss;
  GpuFeatureCache none_cached(data, dev_miss, 0.0);
  dev_miss.reset_elapsed();
  none_cached.gather_edge_feats(ids, out.data());
  const double t_misses = dev_miss.elapsed().seconds;

  EXPECT_GT(t_misses, t_hits * 10);  // PCIe zero-copy ≫ VRAM gather
}

TEST(OracleCache, PerfectForesightBeatsOrMatchesTaserCache) {
  auto data = make_data(2000, 8);
  gpusim::Device dev;
  GpuFeatureCache taser_cache(data, dev, 0.1);
  OracleCache oracle(data, dev, 0.1);

  util::Rng rng(3);
  // Zipf-like access pattern, stationary across epochs.
  auto draw_batch = [&](std::vector<graph::EdgeId>& ids) {
    ids.clear();
    for (int i = 0; i < 200; ++i)
      ids.push_back(static_cast<graph::EdgeId>(rng.next_zipf(2000, 1.2)));
  };

  std::vector<float> out;
  for (int epoch = 0; epoch < 3; ++epoch) {
    // Record the epoch's accesses first so the oracle can be clairvoyant.
    std::vector<std::vector<graph::EdgeId>> batches(10);
    std::vector<std::uint32_t> counts(2000, 0);
    for (auto& b : batches) {
      draw_batch(b);
      for (auto e : b) ++counts[static_cast<std::size_t>(e)];
    }
    oracle.prepare_epoch(counts);
    for (auto& b : batches) {
      out.assign(b.size() * 8, 0.f);
      taser_cache.gather_edge_feats(b, out.data());
      oracle.gather_edge_feats(b, out.data());
    }
    taser_cache.end_epoch();
    oracle.end_epoch();
  }
  // After warm-up, TASER's historical policy approaches the oracle.
  const auto& th = taser_cache.history();
  const auto& oh = oracle.history();
  EXPECT_GE(oh[2].hit_rate() + 1e-9, th[2].hit_rate() - 0.05);
  EXPECT_GT(th[2].hit_rate(), th[0].hit_rate());  // learning happened
  EXPECT_GT(th[2].hit_rate(), 0.3);
  EXPECT_NEAR(th[2].hit_rate(), oh[2].hit_rate(), 0.15);  // near-optimal
}

}  // namespace
