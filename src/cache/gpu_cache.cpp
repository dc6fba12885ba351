#include "cache/gpu_cache.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace taser::cache {

std::vector<EdgeId> top_k_edges(const std::vector<std::uint32_t>& counts, std::int64_t k) {
  const auto e = static_cast<std::int64_t>(counts.size());
  k = std::min(k, e);
  std::vector<EdgeId> ids(static_cast<std::size_t>(e));
  std::iota(ids.begin(), ids.end(), 0);
  if (k <= 0) return {};
  auto cmp = [&](EdgeId a, EdgeId b) {
    const auto ca = counts[static_cast<std::size_t>(a)];
    const auto cb = counts[static_cast<std::size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  };
  std::nth_element(ids.begin(), ids.begin() + (k - 1), ids.end(), cmp);
  ids.resize(static_cast<std::size_t>(k));
  std::sort(ids.begin(), ids.end());
  return ids;
}

GpuFeatureCache::GpuFeatureCache(const graph::Dataset& data, gpusim::Device& device,
                                 double cache_ratio, double epsilon, std::uint64_t seed)
    : data_(data), device_(device), epsilon_(epsilon) {
  TASER_CHECK(cache_ratio >= 0.0 && cache_ratio <= 1.0);
  TASER_CHECK_MSG(data_.edge_feat_dim > 0, "GpuFeatureCache on dataset without edge features");
  const std::int64_t e = data_.num_edges();
  capacity_ = static_cast<std::int64_t>(static_cast<double>(e) * cache_ratio);
  slot_of_.assign(static_cast<std::size_t>(e), -1);
  freq_.assign(static_cast<std::size_t>(e), 0);

  // Algorithm 3 line 2: initial cache content is random.
  std::vector<EdgeId> ids(static_cast<std::size_t>(e));
  std::iota(ids.begin(), ids.end(), 0);
  util::Rng rng(seed);
  rng.shuffle(ids);
  ids.resize(static_cast<std::size_t>(capacity_));
  std::sort(ids.begin(), ids.end());
  install(ids);
  // The initial fill is a bulk H2D copy.
  device_.account_h2d(static_cast<std::uint64_t>(capacity_) *
                      static_cast<std::uint64_t>(data_.edge_feat_dim) * sizeof(float));
}

void GpuFeatureCache::install(const std::vector<EdgeId>& edges) {
  TASER_CHECK(static_cast<std::int64_t>(edges.size()) <= capacity_);
  std::fill(slot_of_.begin(), slot_of_.end(), -1);
  for (std::size_t s = 0; s < edges.size(); ++s)
    slot_of_[static_cast<std::size_t>(edges[s])] = static_cast<std::int32_t>(s);
}

void GpuFeatureCache::gather_edge_feats_onto(const std::vector<EdgeId>& ids, float* out,
                                             gpusim::Device& device) {
  const std::int64_t d = data_.edge_feat_dim;
  const auto count = static_cast<std::int64_t>(ids.size());
  std::uint64_t hit_rows = 0, miss_rows = 0;
  // Rows are disjoint per index, so the copy loop parallelises cleanly.
  // The stateful pieces stay exact: hit/miss counts go through OpenMP's
  // per-thread reduction copies (merged after the loop, then added to the
  // books once), and the access-frequency increments are atomic
  // (std::atomic_ref so they stay atomic — and sanitizer-visible — across
  // concurrent builder threads, not just within one OpenMP team) — all
  // order-independent, so statistics are bit-identical to the serial
  // gather at any thread or builder count (test_cache / test_pipeline
  // assert).
#pragma omp parallel for schedule(static) reduction(+ : hit_rows, miss_rows) \
    if (count > 64)
  for (std::int64_t i = 0; i < count; ++i) {
    float* dst = out + i * d;
    const EdgeId e = ids[static_cast<std::size_t>(i)];
    if (e == graph::kInvalidEdge) {
      std::memset(dst, 0, static_cast<std::size_t>(d) * sizeof(float));
      continue;
    }
    std::atomic_ref<std::uint32_t>(freq_[static_cast<std::size_t>(e)])
        .fetch_add(1, std::memory_order_relaxed);
    // A miss is a zero-copy read over PCIe (paper: "we directly slice the
    // feature through the unified virtual memory"); either way the bytes
    // come from host memory and only the accounting differs.
    std::memcpy(dst, data_.edge_feat(e), static_cast<std::size_t>(d) * sizeof(float));
    if (is_cached(e)) {
      ++hit_rows;
    } else {
      ++miss_rows;
    }
  }
  books_.add(kHits, hit_rows);
  books_.add(kMisses, miss_rows);
  const auto row_bytes = static_cast<std::uint64_t>(d) * sizeof(float);
  if (hit_rows > 0) device.account_vram_gather(hit_rows * row_bytes);
  if (miss_rows > 0) device.account_zero_copy(miss_rows * row_bytes);
}

void GpuFeatureCache::end_epoch() {
  // Algorithm 3 lines 8-10.
  CacheEpochStats epoch = current_epoch();
  const auto topk = top_k_edges(freq_, capacity_);
  std::int64_t overlap = 0;
  for (EdgeId e : topk)
    if (slot_of_[static_cast<std::size_t>(e)] >= 0) ++overlap;
  // A zero-capacity cache never replaces: its empty set is already the
  // top-0, and a "replacement" would charge a zero-byte H2D's latency.
  if (static_cast<double>(overlap) < epsilon_ * static_cast<double>(capacity_)) {
    install(topk);
    books_.add(kReplacements);
    epoch.replaced = true;
    device_.account_h2d(static_cast<std::uint64_t>(topk.size()) *
                        static_cast<std::uint64_t>(data_.edge_feat_dim) * sizeof(float));
  }
  archived_hits_ += epoch.hits;
  archived_misses_ += epoch.misses;
  history_.push_back(epoch);
  if (record_counts_) epoch_counts_.push_back(freq_);
  std::fill(freq_.begin(), freq_.end(), 0);
}

OracleCache::OracleCache(const graph::Dataset& data, gpusim::Device& device,
                         double cache_ratio)
    : data_(data), device_(device) {
  const std::int64_t e = data_.num_edges();
  capacity_ = static_cast<std::int64_t>(static_cast<double>(e) * cache_ratio);
  cached_.assign(static_cast<std::size_t>(e), 0);
}

void OracleCache::prepare_epoch(const std::vector<std::uint32_t>& upcoming_counts) {
  TASER_CHECK(upcoming_counts.size() == cached_.size());
  std::fill(cached_.begin(), cached_.end(), 0);
  for (EdgeId e : top_k_edges(upcoming_counts, capacity_))
    cached_[static_cast<std::size_t>(e)] = 1;
}

void OracleCache::gather_edge_feats(const std::vector<EdgeId>& ids, float* out) {
  const std::int64_t d = data_.edge_feat_dim;
  std::uint64_t hit_rows = 0, miss_rows = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    float* dst = out + static_cast<std::int64_t>(i) * d;
    const EdgeId e = ids[i];
    if (e == graph::kInvalidEdge) {
      std::memset(dst, 0, static_cast<std::size_t>(d) * sizeof(float));
      continue;
    }
    std::memcpy(dst, data_.edge_feat(e), static_cast<std::size_t>(d) * sizeof(float));
    if (cached_[static_cast<std::size_t>(e)]) {
      ++hit_rows;
    } else {
      ++miss_rows;
    }
  }
  current_.hits += hit_rows;
  current_.misses += miss_rows;
  const auto row_bytes = static_cast<std::uint64_t>(d) * sizeof(float);
  if (hit_rows > 0) device_.account_vram_gather(hit_rows * row_bytes);
  if (miss_rows > 0) device_.account_zero_copy(miss_rows * row_bytes);
}

void OracleCache::end_epoch() {
  history_.push_back(current_);
  current_ = {};
}

}  // namespace taser::cache
