#pragma once

#include <atomic>
#include <cstdint>

#include "graph/tcsr.h"
#include "util/check.h"

namespace taser::graph {

/// Streaming T-CSR for online serving: a base TCSR plus per-node,
/// timestamp-ordered delta buffers that absorb appended edge events, with
/// periodic compaction folding the delta back into the base. Queries see
/// one *merged* per-node neighbor list — the base prefix followed by the
/// delta suffix — which is exactly the list a static TCSR built from the
/// concatenated event log would hold (asserted by test_serve's
/// ingest/compaction equivalence suite), so `pivot_count` / neighbor
/// iteration / finder samples are identical whether the graph was built
/// statically or grown one event at a time, before or after any
/// compaction.
///
/// Why the concatenation is already sorted: `ingest` requires globally
/// non-decreasing timestamps (the natural order interaction events arrive
/// in; violating it throws), so every delta entry of a node is >= every
/// base entry of that node, and the delta itself is appended in time
/// order — ties at a shared timestamp keep ingestion (= EdgeId) order,
/// matching TCSR's fill pass.
///
/// Single-writer / snapshot-read contract (in the style of the PR 4
/// pipeline invariants — hard TASER_CHECKs, not conventions):
///   - At most one thread may mutate the graph (`ingest` / `compact`);
///     overlapping writers throw (atomic writer flag).
///   - Readers must not overlap a write. Each mutation bumps `version()`;
///     DynamicNeighborFinder captures the version in begin_batch and
///     every sample_into asserts it unchanged, so a write landing inside
///     a batch's sampling window is a hard error, never a torn read. The
///     ServingEngine satisfies the contract structurally: its single
///     worker thread is both the only writer and the only reader, and it
///     applies queued events strictly between micro-batches.
///
/// The graph owns its growing event log (`dataset()`): ingest appends
/// src/dst/ts and the edge-feature row, so EdgeIds stay dense and
/// feature sources indexed by EdgeId keep working for streamed edges.
///
/// Shard mode (hash-partitioned ingest, PR 7): constructed against an
/// *external* shared event log with a (shard_id, num_shards) ownership
/// filter, the graph keeps only the adjacency lists of nodes it owns —
/// base is a shard-filtered TCSR, deltas grow via `apply_event` replay of
/// log rows (never `ingest`, which is owner-mode only). An owned node's
/// merged list is byte-identical to the owner-mode list for the same log,
/// which is what makes the 1-shard sharded container bit-identical to the
/// pre-sharding path. ShardedDynamicTCSR routes queries to owners.
class DynamicTCSR {
 public:
  /// Takes the base event log by value (serving owns its own copy — the
  /// log grows with every ingested event).
  explicit DynamicTCSR(Dataset base);

  /// Shard mode: a view-like replica over `shared_log` (not owned — the
  /// caller appends rows and replays them here via `apply_event`) that
  /// keeps only nodes with `shard_of(v, num_shards) == shard_id`.
  DynamicTCSR(const Dataset& shared_log, int shard_id, int num_shards);

  /// Appends one interaction event (both directions, like TCSR) and
  /// returns its EdgeId. `t` must be >= the latest event time already in
  /// the graph; `u`, `v` must be existing node ids. `edge_feat`, when the
  /// dataset carries edge features, points at `edge_feat_dim` floats
  /// (nullptr = zero row). Writer-exclusive; bumps version(). Owner-mode
  /// only (shard-mode graphs replay the shared log via apply_event).
  EdgeId ingest(NodeId u, NodeId v, Time t, const float* edge_feat = nullptr);

  /// Shard-mode replay of one shared-log row: pushes the directions this
  /// shard owns (0, 1, or 2 — a non-self-loop event whose endpoints hash
  /// to the same shard contributes both) and returns that count. The row
  /// `eid` must already be present in the shared log. Unowned events are
  /// a cheap no-op *before* the writer guard, so distinct shards of one
  /// container can replay disjoint slices concurrently. Writer-exclusive
  /// per shard; bumps version() when any direction lands.
  int apply_event(NodeId u, NodeId v, Time t, EdgeId eid);

  /// Folds the delta into the base CSR and clears the delta buffers
  /// (capacity retained). A merge, not a rebuild: each node's base
  /// segment followed by its delta list, in one pass over this graph's
  /// own slots — O(nodes + owned slots), the event log is never read. The
  /// result is byte-identical to a TCSR built from the log (test_serve
  /// pins it), so every query answers identically before and after.
  /// Writer-exclusive; bumps version().
  void compact();

  std::int64_t num_nodes() const { return base_.num_nodes(); }
  /// Events not yet folded into the base (compaction backlog). In shard
  /// mode, counts events that touched this shard (an event split across
  /// two shards counts once in each).
  std::int64_t delta_edges() const { return delta_edge_count_; }
  /// True when this graph owns its event log (classic mode); false for
  /// shard-mode replicas over a shared log.
  bool owns_log() const { return log_ == &data_; }
  /// Shard mode: the exclusive upper bound of shared-log rows this shard
  /// has already replayed (owned or not — unowned rows advance it too).
  /// ShardedDynamicTCSR::apply_slice_to_shard clamps its slice start to
  /// this watermark, which is what makes a publish-time catch-up retry
  /// after a mid-replay fault idempotent: a row is never indexed twice
  /// into one shard no matter how many times the slice is re-driven.
  EdgeId applied_through() const { return applied_through_; }
  int shard_id() const { return shard_id_; }
  int num_shards() const { return num_shards_; }
  /// Latest event timestamp in the graph (base or delta).
  Time last_time() const { return last_time_; }

  /// Monotone mutation counter: bumped by every ingest() and compact().
  /// Readers snapshot it to assert no write landed inside their window.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }
  /// True while an ingest/compact is in progress (reader-side assert).
  bool writer_active() const { return writing_.load(std::memory_order_acquire); }

  /// Epoch freeze: while frozen, `ingest`/`compact` are hard errors. The
  /// GraphEpochManager freezes a replica whenever it is (or may still be)
  /// visible to readers and thaws it only for the publish-time catch-up,
  /// after every reader pin has been released — a stray write against a
  /// published epoch fails loudly at the writer instead of surfacing as a
  /// version-fence trip in some reader.
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

  /// The event log + features (owner mode: the growing log this graph
  /// owns; shard mode: the shared container log). Stable reference:
  /// feature sources and builders constructed against it keep seeing
  /// appended rows.
  const Dataset& dataset() const { return *log_; }
  const TCSR& base() const { return base_; }

 private:
  struct DeltaEntry {
    NodeId nbr;
    Time ts;
    EdgeId eid;
  };

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

  Dataset data_;          ///< owner-mode event log (empty in shard mode)
  const Dataset* log_;    ///< == &data_ in owner mode, external in shard mode
  int shard_id_ = 0;
  int num_shards_ = 1;
  TCSR base_;
  std::vector<std::vector<DeltaEntry>> delta_;  ///< per-node, ts-ordered
  std::int64_t delta_edge_count_ = 0;
  EdgeId applied_through_ = 0;  ///< shard mode: replayed-row watermark
  Time last_time_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> writing_{false};
  std::atomic<bool> frozen_{false};
};

}  // namespace taser::graph
