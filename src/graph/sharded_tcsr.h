#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dynamic_tcsr.h"

namespace taser::graph {

/// Hash-partitioned streaming graph, the one growing temporal graph that
/// serving reads: ONE dense global event log plus S DynamicTCSR shards
/// over it, where shard s keeps exactly the adjacency lists of nodes with
/// `shard_of(v, S) == s`. An event (u, v) lands in both endpoints' shards
/// — the sharded analogue of TCSR inserting both directions — while
/// EdgeIds stay dense and global, so EdgeId-indexed feature sources keep
/// working unchanged.
///
/// Why this shape: every merged-view query (degree / pivot_count / nbr*)
/// routes to the single shard owning the root, and that shard's list is
/// byte-identical to what the unsharded graph would hold (the filtered
/// TCSR build and `apply_event` replay only ever *skip whole unowned
/// lists*, never reorder surviving entries). At S = 1 the one shard holds
/// every list of a static TCSR over the log, and any S answers every
/// query identically — the conformance anchor test_serve pins.
///
/// Writer model (the parallel-ingest payoff): appending to the log
/// (`append_event`) is serial and cheap; *indexing* the appended rows —
/// the per-direction work that event-driven models (TGN-style memory
/// updates) make expensive — is `apply_slice_to_shard`, safe to run on S
/// threads concurrently because shards touch disjoint state and unowned
/// rows are filtered before the per-shard writer guard. The
/// GraphEpochManager's publish() is the intended driver. The container
/// itself keeps the single-writer orchestration contract: one thread
/// calls append/compact/frozen at a time (the epoch manager's shard crew,
/// which runs apply and compact waves split by shard, is the one
/// sanctioned exception).
class ShardedDynamicTCSR {
 public:
  /// Takes the base event log by value; `num_shards` >= 1.
  explicit ShardedDynamicTCSR(Dataset base, int num_shards = 1);

  int num_shards() const { return num_shards_; }
  const DynamicTCSR& shard(int s) const { return *shards_[static_cast<std::size_t>(s)]; }
  /// The shard owning node v's adjacency list.
  const DynamicTCSR& shard_for(NodeId v) const {
    return *shards_[static_cast<std::size_t>(shard_of(v, num_shards_))];
  }

  std::int64_t num_nodes() const { return data_.num_nodes; }
  /// The shared global event log + features. Stable reference.
  const Dataset& dataset() const { return data_; }
  Time last_time() const { return last_time_; }
  /// Compaction backlog summed over shards — the value
  /// EpochConfig::compact_threshold is compared against, after which
  /// every shard compacts in the same wave. Note the cross-S wobble: an
  /// event whose endpoints hash to different shards counts once in each,
  /// so the same stream reads up to 2x higher at S > 1 — compaction
  /// *timing* may differ across shard counts, query answers never do.
  std::int64_t delta_edges() const;

  /// Mutation counter summed over shards; strictly monotone across
  /// publishes (every applied event lands in >= 1 shard). Readers fence
  /// on it (DynamicNeighborFinder::begin_batch / expect_version).
  std::uint64_t version() const;
  bool writer_active() const;

  /// Freeze/thaw every shard (published-epoch protection; see
  /// DynamicTCSR::set_frozen).
  void set_frozen(bool frozen);
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  // ---- merged view, routed to the owning shard ----------------------------
  std::int64_t degree(NodeId v) const { return shard_for(v).degree(v); }
  std::int64_t pivot_count(NodeId v, Time t) const { return shard_for(v).pivot_count(v, t); }
  NodeId nbr(NodeId v, std::int64_t j) const { return shard_for(v).nbr(v, j); }
  Time nbr_ts(NodeId v, std::int64_t j) const { return shard_for(v).nbr_ts(v, j); }
  EdgeId nbr_eid(NodeId v, std::int64_t j) const { return shard_for(v).nbr_eid(v, j); }

  // ---- writer API (publish-time catch-up) ---------------------------------

  /// Appends one event row (+ feature row) to the shared log WITHOUT
  /// indexing it into any shard; returns its dense global EdgeId. Serial
  /// phase of a catch-up: must not run concurrently with apply slices
  /// (appends can reallocate the log vectors the shard threads read).
  EdgeId append_event(NodeId u, NodeId v, Time t, const float* edge_feat = nullptr);

  /// Replays log rows [e0, e1) into shard s (owned directions only);
  /// returns the number of directions applied. Safe to call concurrently
  /// for distinct shards over the same slice — the parallel phase.
  std::int64_t apply_slice_to_shard(int s, EdgeId e0, EdgeId e1);

  /// Folds shard s's delta into its base (DynamicTCSR::compact: a merge
  /// over the shard's own slots; the shared log is not read). Safe to
  /// call concurrently for distinct shards.
  void compact_shard(int s);
  /// Serial all-shard compaction.
  void compact();

  /// Serial convenience: append + index into every shard in one call
  /// (tests and single-threaded callers; the epoch manager uses the
  /// split append/apply phases instead).
  EdgeId ingest(NodeId u, NodeId v, Time t, const float* edge_feat = nullptr);

 private:
  Dataset data_;  ///< the one shared event log; shards hold pointers into it
  int num_shards_ = 1;
  std::vector<std::unique_ptr<DynamicTCSR>> shards_;
  Time last_time_;
  std::atomic<bool> frozen_{false};
};

}  // namespace taser::graph
