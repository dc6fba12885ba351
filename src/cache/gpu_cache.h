#pragma once

#include <vector>

#include "graph/dataset.h"
#include "gpusim/device.h"
#include "obs/metrics.h"

namespace taser::cache {

using graph::EdgeId;

/// Per-epoch cache statistics.
struct CacheEpochStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool replaced = false;  ///< whether end-of-epoch swapped the cache content

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// TASER's dynamic GPU edge-feature cache (paper Algorithm 3, §III-D).
///
///  - `capacity = ratio * |E|` rows live in simulated VRAM;
///  - every read increments the access-frequency array Q (O(1));
///  - at epoch end, if the overlap between the cached set and the top-k
///    most accessed edges of the finished epoch falls below
///    `epsilon * k`, the cache content is swapped to that top-k — an
///    O(|E|) nth_element, the paper's "lightweight" policy (a cache of
///    capacity 0 therefore never swaps);
///  - hits are served at VRAM bandwidth, misses via zero-copy PCIe reads
///    (both as simulated-time accounting on the Device ledger; the bytes
///    themselves always come from host memory, which *is* the simulated
///    device memory).
class GpuFeatureCache {
 public:
  GpuFeatureCache(const graph::Dataset& data, gpusim::Device& device, double cache_ratio,
                  double epsilon = 0.5, std::uint64_t seed = 9);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t edge_dim() const { return data_.edge_feat_dim; }

  /// Slices edge-feature rows into `out` ([ids.size() x edge_dim]),
  /// serving from cache where possible. Invalid ids zero-fill for free.
  /// OpenMP-parallel across rows; hit/miss counts and the access
  /// counters Q match the serial gather exactly at any thread count
  /// (per-thread counter reduction + atomic Q increments).
  void gather_edge_feats(const std::vector<EdgeId>& ids, float* out) {
    gather_edge_feats_onto(ids, out, device_);
  }

  /// Multi-builder variant: identical content lookup (same cached set),
  /// but simulated time is accounted on `device` (a
  /// per-slot ledger). Safe to call concurrently from several builder
  /// threads: intra-epoch the cached set is immutable, and the Q
  /// increments and the hit/miss adds to the cache's books are atomic.
  /// All three are integer sums, so no consumption-order fold is
  /// needed: they are bit-identical to the serial gather at any builder
  /// count.
  void gather_edge_feats_onto(const std::vector<EdgeId>& ids, float* out,
                              gpusim::Device& device);

  /// Algorithm 3 epoch boundary: maybe replace the cached set, then
  /// archive the epoch's counts and reset Q. Call with no gather in
  /// flight.
  void end_epoch();

  /// Whether an edge currently resides in the cache (tests/benches).
  bool is_cached(EdgeId e) const { return slot_of_[static_cast<std::size_t>(e)] >= 0; }

  /// Hits and misses since the last end_epoch() (`replaced` is false).
  CacheEpochStats current_epoch() const {
    return {books_.count(kHits) - archived_hits_, books_.count(kMisses) - archived_misses_};
  }
  /// One entry per end_epoch(): the books' growth over that epoch.
  const std::vector<CacheEpochStats>& history() const { return history_; }
  std::int64_t replacements() const {
    return static_cast<std::int64_t>(books_.count(kReplacements));
  }

  /// When enabled, end_epoch() archives each epoch's access-count vector
  /// (used by the Fig. 3(b) bench to replay other cache ratios and the
  /// Oracle policy on the exact same access stream).
  void set_record_counts(bool record) { record_counts_ = record; }
  const std::vector<std::vector<std::uint32_t>>& epoch_counts() const {
    return epoch_counts_;
  }

 private:
  void install(const std::vector<EdgeId>& edges);

  enum Slot : std::size_t { kHits, kMisses, kReplacements };

  const graph::Dataset& data_;
  gpusim::Device& device_;
  std::int64_t capacity_;
  double epsilon_;
  /// Every gather's hits and misses and every replacement, under
  /// `taser.cache.*`.
  obs::Scope books_{{"taser.cache.hits", "taser.cache.misses", "taser.cache.replacements"},
                    {}};

  std::vector<std::int32_t> slot_of_;   ///< edge -> VRAM slot (-1 = not cached)
  std::vector<std::uint32_t> freq_;     ///< per-epoch access counts Q
  std::vector<CacheEpochStats> history_;
  /// The books' hits and misses at the last end_epoch().
  std::uint64_t archived_hits_ = 0, archived_misses_ = 0;
  bool record_counts_ = false;
  std::vector<std::vector<std::uint32_t>> epoch_counts_;
};

/// Clairvoyant baseline for Fig. 3(b): before each epoch it is handed the
/// exact access counts that epoch will produce and caches the top-k.
/// Upper-bounds any epoch-granularity replacement policy of equal size.
/// A serial bench baseline: it keeps its own counts, so its replayed
/// traffic never enters `taser.cache.*`.
class OracleCache {
 public:
  OracleCache(const graph::Dataset& data, gpusim::Device& device, double cache_ratio);

  /// Installs the top-k edges of the epoch about to run.
  void prepare_epoch(const std::vector<std::uint32_t>& upcoming_counts);

  void gather_edge_feats(const std::vector<EdgeId>& ids, float* out);
  void end_epoch();

  bool is_cached(EdgeId e) const { return cached_[static_cast<std::size_t>(e)] != 0; }
  const CacheEpochStats& current_epoch() const { return current_; }
  const std::vector<CacheEpochStats>& history() const { return history_; }
  std::int64_t capacity() const { return capacity_; }

 private:
  const graph::Dataset& data_;
  gpusim::Device& device_;
  std::int64_t capacity_;
  std::vector<std::uint8_t> cached_;
  CacheEpochStats current_;
  std::vector<CacheEpochStats> history_;
};

/// Selects the k most frequent edges (ties broken toward lower id).
/// O(|E|) via nth_element. Shared by both caches and tested directly.
std::vector<EdgeId> top_k_edges(const std::vector<std::uint32_t>& counts, std::int64_t k);

}  // namespace taser::cache
