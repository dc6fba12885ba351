#pragma once

#include <atomic>
#include <cstdint>

#include "graph/event_log.h"
#include "graph/tcsr.h"
#include "util/check.h"

namespace taser::graph {

/// One shard of a ShardedDynamicTCSR: a streaming T-CSR over the
/// container's event log that keeps only the adjacency lists of the
/// nodes it owns (`shard_of(v, num_shards) == shard_id`). It holds a
/// base TCSR (shard-filtered) plus per-node, timestamp-ordered delta
/// buffers that `apply_event` grows by replaying log rows, and `compact`
/// folds the delta back into the base. The log holds the rows; a shard
/// holds only its index over them.
/// Queries see one *merged* per-node neighbor list — the base prefix
/// followed by the delta suffix — which is exactly the list a static TCSR
/// built from the log would hold for an owned node (test_serve's
/// ingest/compaction equivalence suite), so `pivot_count` / neighbor
/// iteration / finder samples are identical whether the graph was built
/// statically or grown one event at a time, before or after any
/// compaction, at any shard count.
///
/// Why the concatenation is already sorted: the log's timestamps are
/// globally non-decreasing (the natural order interaction events arrive
/// in; EventLog::append rejects a regression), so every delta
/// entry of a node is >= every base entry of that node, and the delta
/// itself grows in time order — ties at a shared timestamp keep row
/// (= EdgeId) order, matching TCSR's fill pass.
///
/// Single-writer / snapshot-read contract (hard TASER_CHECKs, not
/// conventions):
///   - At most one thread mutates a shard (`apply_event` / `compact`);
///     overlapping writers throw (atomic writer flag). Distinct shards of
///     one container are written concurrently by the epoch manager's
///     shard crew — they share no mutable state.
///   - Readers must not overlap a write. Each mutation bumps `version()`;
///     DynamicNeighborFinder captures the container's summed version in
///     begin_batch and every sample_into asserts it unchanged, so a write
///     landing inside a batch's sampling window is a hard error, never a
///     torn read. GraphEpochManager satisfies the contract by freezing
///     every published replica (`set_frozen`) and thawing one only for
///     its publish-time catch-up, after every reader pin has been
///     released.
class DynamicTCSR {
 public:
  /// A shard over `log` (not owned; it must outlive the shard) that keeps
  /// only nodes with `shard_of(v, num_shards) == shard_id`. Indexes the
  /// log's base rows; streamed rows arrive through `apply_event`.
  DynamicTCSR(const EventLog& log, int shard_id, int num_shards);

  /// Replays log row `eid` (read through the log, which validated it at
  /// append): pushes the directions this shard owns (0, 1, or 2 — a
  /// non-self-loop event whose endpoints hash to the same shard
  /// contributes both) and returns that count. Unowned events are a cheap
  /// no-op *before* the writer guard, so distinct shards of one container
  /// can replay disjoint slices concurrently. Writer-exclusive per shard;
  /// bumps version() when any direction lands.
  int apply_event(EdgeId eid);

  /// Folds the delta into the base CSR and clears the delta buffers
  /// (capacity retained). A merge, not a rebuild: each node's base
  /// segment followed by its delta list, in one pass over this graph's
  /// own slots — O(nodes + owned slots), the event log is never read. The
  /// result is byte-identical to a TCSR built from the log (test_serve
  /// pins it), so every query answers identically before and after.
  /// Writer-exclusive; bumps version().
  void compact();

  std::int64_t num_nodes() const { return base_.num_nodes(); }
  /// Events not yet folded into the base (compaction backlog): events
  /// that touched this shard (an event split across two shards counts
  /// once in each).
  std::int64_t delta_edges() const { return delta_edge_count_; }
  /// The exclusive upper bound of log rows this shard has already
  /// replayed (owned or not — unowned rows advance it too).
  /// ShardedDynamicTCSR::apply_slice_to_shard clamps its slice start to
  /// this watermark, which is what makes a publish-time catch-up retry
  /// after a mid-replay fault idempotent: a row is never indexed twice
  /// into one shard no matter how many times the slice is re-driven.
  EdgeId applied_through() const { return applied_through_; }
  int shard_id() const { return shard_id_; }
  int num_shards() const { return num_shards_; }

  /// Monotone mutation counter: bumped by every owned apply_event() and
  /// every compact(). Readers snapshot it to assert no write landed
  /// inside their window.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }
  /// True while an apply_event/compact is in progress (reader-side
  /// assert).
  bool writer_active() const { return writing_.load(std::memory_order_acquire); }

  /// Epoch freeze: while frozen, an owned `apply_event` and `compact` are
  /// hard errors. The GraphEpochManager freezes a replica whenever it is
  /// (or may still be) visible to readers and thaws it only for the
  /// publish-time catch-up, after every reader pin has been released — a
  /// stray write against a published epoch fails loudly at the writer
  /// instead of surfacing as a version-fence trip in some reader.
  void set_frozen(bool frozen) { frozen_.store(frozen, std::memory_order_release); }
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  // ---- merged base+delta view ---------------------------------------------
  // Per-node neighbor list = base segment [0, base_degree(v)) followed by
  // delta segment [base_degree(v), degree(v)), both timestamp-ascending,
  // the concatenation timestamp-ascending by the ingest ordering rule.

  // Bounds discipline (PR 7): an out-of-range NodeId from a buggy caller
  // used to be silent UB in Release. The per-batch-granularity entry
  // points (degree, pivot_count) carry always-on TASER_CHECKs — one
  // predictable compare next to a binary search is free. The per-slot
  // accessors (nbr / nbr_ts / nbr_eid) sit on the sampling inner loop and
  // use TASER_DCHECK: on in debug and in the -DTASER_DEBUG_CHECKS
  // sanitizer CI builds, compiled out in plain Release.

  std::int64_t degree(NodeId v) const {
    check_node(v);
    return base_.degree(v) + static_cast<std::int64_t>(delta_[static_cast<std::size_t>(v)].size());
  }

  /// Number of neighbors of v with timestamp strictly earlier than t —
  /// the size of the temporal neighborhood N(v, t), i.e. the merged
  /// equivalent of `TCSR::pivot(v, t) - TCSR::begin(v)`.
  std::int64_t pivot_count(NodeId v, Time t) const;

  NodeId nbr(NodeId v, std::int64_t j) const {
    dcheck_slot(v, j);
    const std::int64_t b = base_.degree(v);
    return j < b ? base_.nbr_at(base_.begin(v) + j)
                 : delta_[static_cast<std::size_t>(v)][static_cast<std::size_t>(j - b)].nbr;
  }
  Time nbr_ts(NodeId v, std::int64_t j) const {
    dcheck_slot(v, j);
    const std::int64_t b = base_.degree(v);
    return j < b ? base_.ts_at(base_.begin(v) + j)
                 : delta_[static_cast<std::size_t>(v)][static_cast<std::size_t>(j - b)].ts;
  }
  EdgeId nbr_eid(NodeId v, std::int64_t j) const {
    dcheck_slot(v, j);
    const std::int64_t b = base_.degree(v);
    return j < b ? base_.eid_at(base_.begin(v) + j)
                 : delta_[static_cast<std::size_t>(v)][static_cast<std::size_t>(j - b)].eid;
  }

  const TCSR& base() const { return base_; }

 private:
  /// Time first: {ts, nbr, eid} packs into 16 bytes with no padding.
  struct DeltaEntry {
    Time ts;
    NodeId nbr;
    EdgeId eid;
  };
  static_assert(sizeof(DeltaEntry) == 16, "DeltaEntry must stay padding-free");

  /// RAII writer-exclusivity guard: entering a second writer throws.
  class WriteScope;

  void check_node(NodeId v) const {
    TASER_CHECK_MSG(v >= 0 && v < num_nodes(), "DynamicTCSR: node id "
                                                   << v << " out of range [0, "
                                                   << num_nodes() << ")");
  }
  void dcheck_slot(NodeId v, std::int64_t j) const {
    TASER_DCHECK_MSG(v >= 0 && v < num_nodes(),
                     "DynamicTCSR: node id " << v << " out of range [0, "
                                             << num_nodes() << ")");
    TASER_DCHECK_MSG(
        j >= 0 && j < base_.degree(v) +
                          static_cast<std::int64_t>(
                              delta_[static_cast<std::size_t>(v)].size()),
        "DynamicTCSR: slot " << j << " out of range [0, degree(" << v << "))");
  }

  const EventLog& log_;
  int shard_id_ = 0;
  int num_shards_ = 1;
  TCSR base_;
  std::vector<std::vector<DeltaEntry>> delta_;  ///< per-node, ts-ordered
  std::int64_t delta_edge_count_ = 0;
  EdgeId applied_through_ = 0;  ///< replayed-row watermark
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> writing_{false};
  std::atomic<bool> frozen_{false};
};

}  // namespace taser::graph
