#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dynamic_tcsr.h"

namespace taser::graph {

/// Hash-partitioned streaming graph, the one growing temporal graph that
/// serving reads: S DynamicTCSR shards indexing ONE event log, where
/// shard s keeps exactly the adjacency lists of nodes with
/// `shard_of(v, S) == s`. The container binds the log and owns only the
/// shard indexes; the rows (and their features) live once in the log,
/// however many containers bind it. An event (u, v) lands in both
/// endpoints' shards — the sharded analogue of TCSR inserting both
/// directions — while EdgeIds stay dense and global, so EdgeId-indexed
/// feature sources keep working unchanged.
///
/// Why this shape: every merged-view query (degree / pivot_count / nbr*)
/// routes to the single shard owning the root, and that shard's list is
/// byte-identical to what the unsharded graph would hold (the filtered
/// TCSR build and `apply_event` replay only ever *skip whole unowned
/// lists*, never reorder surviving entries). At S = 1 the one shard holds
/// every list of a static TCSR over the log, and any S answers every
/// query identically — the conformance anchor test_serve pins.
///
/// Visibility: a container sees the log rows it has indexed into every
/// shard (`num_edges()`), never the rows appended after them. Rows are
/// appended by the log's writer; *indexing* them — the per-direction
/// work that event-driven models (TGN-style memory updates) make
/// expensive — is `apply_slice_to_shard`, safe to run on S threads
/// concurrently because shards touch disjoint state and unowned rows are
/// filtered before the per-shard writer guard; the GraphEpochManager's
/// publish() runs it in shard waves. The container itself keeps the
/// single-writer orchestration contract: one thread calls
/// apply/compact/frozen at a time (the epoch manager's shard crew, which
/// runs apply and compact waves split by shard, is the one sanctioned
/// exception).
class ShardedDynamicTCSR {
 public:
  /// Binds `log` (not owned; it must outlive the container) and indexes
  /// its base rows into `num_shards` >= 1 shards. Rows streamed into the
  /// log become visible as apply_slice_to_shard indexes them.
  explicit ShardedDynamicTCSR(const EventLog& log, int num_shards = 1);

  int num_shards() const { return num_shards_; }
  const DynamicTCSR& shard(int s) const { return *shards_[static_cast<std::size_t>(s)]; }
  /// The shard owning node v's adjacency list.
  const DynamicTCSR& shard_for(NodeId v) const {
    return *shards_[static_cast<std::size_t>(shard_of(v, num_shards_))];
  }

  /// The bound event log: rows and features for every EdgeId this
  /// container returns.
  const EventLog& log() const { return log_; }
  std::int64_t num_nodes() const { return log_.num_nodes(); }
  /// Log rows indexed into every shard: the rows this container's
  /// queries see.
  std::int64_t num_edges() const;
  /// Time of the latest visible row (-inf when there is none).
  Time last_time() const;
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

  /// Indexes log rows [e0, e1) into shard s (owned directions only);
  /// returns the number of directions applied. The rows must already be
  /// in the log. Safe to call concurrently for distinct shards over the
  /// same slice — the parallel phase. A frozen container rejects it.
  std::int64_t apply_slice_to_shard(int s, EdgeId e0, EdgeId e1);

  /// Folds shard s's delta into its base (DynamicTCSR::compact: a merge
  /// over the shard's own slots; the log is not read). Safe to call
  /// concurrently for distinct shards.
  void compact_shard(int s);
  /// Serial all-shard compaction.
  void compact();

 private:
  const EventLog& log_;
  int num_shards_ = 1;
  std::vector<std::unique_ptr<DynamicTCSR>> shards_;
  std::atomic<bool> frozen_{false};
};

}  // namespace taser::graph
