#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/event_log.h"
#include "graph/sharded_tcsr.h"
#include "obs/metrics.h"

namespace taser::serve {

struct EpochConfig {
  /// Compact every shard of a replica during publish-time catch-up once
  /// the replica's delta backlog, summed over its shards
  /// (ShardedDynamicTCSR::delta_edges), reaches this value (0 = never).
  /// The sum counts an event whose endpoints live in two shards twice, so
  /// at S > 1 it is not an event count. Compaction only ever runs on the
  /// retired write side — published epochs are immutable, so compaction
  /// stays invisible to queries by construction, not just by the
  /// DynamicTCSR equivalence argument.
  std::int64_t compact_threshold = 0;
  /// Hash-partition the node space into this many shards per replica
  /// (>= 1). Publish-time catch-up indexes each shard's slice of the
  /// event log in parallel: the publishing thread takes shard 0, S - 1
  /// threads started with the manager take the rest. 1 shard starts no
  /// thread: every wave runs on the publishing thread. Query answers are
  /// shard-count-invariant.
  int num_shards = 1;
  /// Modeled accelerator time per applied edge direction during catch-up,
  /// in microseconds (0 = none). Stands in for the per-event device work
  /// an event-driven model does (e.g. a TGN memory update per endpoint),
  /// following the repo's modeled-device convention: the sleeps overlap
  /// across shard threads, which is exactly the win parallel ingest buys
  /// (bench_serve's shard sweep gates >= 2x at 4 shards on it, and
  /// reports the measured host-wall column beside it).
  double modeled_apply_us = 0.0;
};

/// Left-right epoch manager: promotes the PR 5 single-writer/snapshot-read
/// contract from a structural accident of one thread into a concurrency
/// design. The manager owns ONE graph::EventLog, which ingest() appends
/// to, and two ShardedDynamicTCSR replicas that both bind it and hold only
/// their shard indexes. The replicas alternate between two roles:
///
///   - the *current epoch*: frozen (DynamicTCSR::set_frozen), served
///     read-only to any number of concurrent InferenceSession readers,
///     each of which pins it with a ReadGuard for the duration of one
///     micro-batch;
///   - the *write side*: invisible to readers, caught up with newly
///     ingested events (indexing their log rows) by the publishing
///     thread and then published, atomically becoming the next current
///     epoch.
///
/// Reclamation is RCU-style: publish() blocks until every reader pin on
/// the write side (stragglers from its previous life as the current
/// epoch) has been released — an epoch retires only after every session
/// has advanced past it, asserted by the pin counter, never assumed from
/// timing. The read-side fence is DynamicNeighborFinder's version check:
/// ReadGuard carries the version captured at publish, readers hand it to
/// the finder, and any write landing inside a pinned epoch hard-fails the
/// reader (and, via the freeze flag, the writer) rather than racing.
///
/// Cost model: every event is stored once, in the log, at ingest, and
/// indexed once per replica (O(1) amortized, twice total) instead of the
/// graph being copied per epoch; publish is O(new events) plus a pointer
/// swap, and a due compaction adds one merge pass over each shard's own
/// slots (never a re-read of the log). Memory is one log plus two sets of
/// shard indexes — the price of lock-free-shaped reads with zero
/// reader-visible mutation is the second index, not a second copy of the
/// rows. A pinned epoch sees only the log rows below its watermark: rows
/// appended after its publish are outside every list it serves.
///
/// Sharded catch-up (PR 7): each replica is hash-partitioned into
/// `num_shards` disjoint DynamicTCSR shards over the one log. publish()
/// indexes the unapplied log slice into the S shards in one wave (the
/// indexing + modeled per-direction device work, embarrassingly parallel
/// because shards own disjoint node sets), then compacts in a second wave
/// when due, then swaps ALL shards atomically behind the single epoch id
/// — one epoch counter, one pin counter per side, one event log, so the
/// read-side contract is unchanged at any S. A wave runs shard 0 on the
/// publishing thread and shards 1..S-1 on a crew of S - 1 threads that
/// the constructor starts once and the destructor joins (no thread
/// start-up per publish); a shard's exception is captured and rethrown
/// after the whole wave.
///
/// Threading contract (hard checks where cheap):
///   - ingest() is safe from any thread: appends serialize on the
///     manager's mutex, so the log sees one writer at a time;
///   - publish() runs on one thread at a time (a concurrent publish
///     throws) and may overlap ingest() calls: it indexes only the rows
///     below the watermark it took under the mutex;
///   - acquire() is safe from any thread, any concurrency;
///   - both replicas answer queries identically at equal applied-event
///     watermarks (the test_serve equivalence suite pins this through
///     epoch boundaries and compactions).
class GraphEpochManager {
 public:
  /// Starts the S - 1 shard crew threads (none at S = 1).
  explicit GraphEpochManager(graph::Dataset base, EpochConfig config = {});
  /// Joins the shard crew. Every ReadGuard must have been released.
  ~GraphEpochManager();

  /// Pin of one published epoch: the graph view is immutable (and its
  /// version fenced) for the guard's lifetime. Release order is
  /// arbitrary; the last release of a superseded epoch lets publish()
  /// retire it.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : mgr_(other.mgr_), graph_(other.graph_), side_(other.side_),
          epoch_(other.epoch_), version_(other.version_) {
      other.mgr_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&&) = delete;
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard();

    const graph::ShardedDynamicTCSR& graph() const { return *graph_; }
    /// Monotone epoch number (0 = the base snapshot before any publish).
    std::uint64_t epoch() const { return epoch_; }
    /// Which replica this epoch lives on (session pipeline selector).
    int side() const { return side_; }
    /// Replica version (summed over shards) captured when this epoch was
    /// published — the read-side fence value to hand DynamicNeighborFinder.
    std::uint64_t graph_version() const { return version_; }

   private:
    friend class GraphEpochManager;
    ReadGuard(GraphEpochManager* mgr, int side, std::uint64_t epoch,
              std::uint64_t version, const graph::ShardedDynamicTCSR* graph)
        : mgr_(mgr), graph_(graph), side_(side), epoch_(epoch), version_(version) {}

    GraphEpochManager* mgr_;
    const graph::ShardedDynamicTCSR* graph_;
    int side_;
    std::uint64_t epoch_;
    std::uint64_t version_;
  };

  /// Pins and returns the current epoch. Any thread.
  ReadGuard acquire();

  // ---- writer side ----------------------------------------------------------

  /// Appends one interaction event to the log (validated here: node
  /// range, finite and globally non-decreasing time, feature width). Any
  /// thread. A rejected event, or a fault at the `serve.ingest.apply`
  /// failpoint before the append, throws to the caller and changes
  /// nothing. The event becomes visible to readers only at the next
  /// publish().
  void ingest(graph::NodeId u, graph::NodeId v, graph::Time t,
              std::vector<float> edge_feat = {});

  /// Catches the write side up with every ingested event and publishes it
  /// as the new current epoch. Blocks until the write side has retired
  /// (reader pins released). Returns the new current epoch id. When
  /// nothing is unpublished, keeps the current epoch (id unchanged) but
  /// still catches the *lagging* replica up — if it is unpinned — so a
  /// quiescent stream converges to both replicas fully applied
  /// (log_size() == 0) instead of leaving the inter-epoch tail unindexed
  /// forever.
  std::uint64_t publish();

  /// Ingested events not yet visible in the current epoch.
  std::uint64_t unpublished() const;

  // ---- introspection --------------------------------------------------------

  std::uint64_t current_epoch() const;
  /// Events visible in the current epoch.
  std::uint64_t events_published() const;
  std::uint64_t compactions() const;
  /// Ingested events not yet indexed into both replicas (unpublished
  /// events plus the tail the lagging replica has not replayed). An idle,
  /// fully caught-up manager reads zero.
  std::size_t log_size() const;
  /// Reader pins currently held on replica `side` (tests assert the
  /// no-reclaim-while-held invariant with this).
  std::int64_t pins(int side) const;

  std::int64_t num_nodes() const { return log_.num_nodes(); }
  std::int64_t edge_feat_dim() const { return log_.edge_feat_dim(); }

  /// Direct replica access for session pipeline binding and tests. The
  /// replica addresses are stable for the manager's lifetime; treat the
  /// graphs as read-only.
  const graph::ShardedDynamicTCSR& side(int i) const { return *sides_[i]; }
  /// The one event log both replicas bind (stable address). Its base
  /// never changes; a reader touches streamed rows only below the
  /// watermark of the epoch it pinned.
  const graph::EventLog& log() const { return log_; }

 private:
  void release(int side);
  /// Events appended to the log since construction. Caller holds mu_.
  std::uint64_t streamed() const;
  /// Indexes streamed events [applied_[w], target) into replica w: a
  /// per-shard indexing wave (+ modeled apply cost), optional compaction
  /// wave (counted in books_), re-freeze. Runs unlocked. Caller must hold
  /// the publishing_ flag and have verified pins_[w] == 0.
  /// Exception-safe and re-drivable: on a throw (a shard's exception is
  /// rethrown once its whole wave has finished) the replica is re-frozen
  /// and a later call resumes from the per-shard replay watermarks, so a
  /// faulted publish retries to convergence.
  void catch_up(int w, std::uint64_t target);

  EpochConfig config_;
  /// The one event log. Appended under mu_, from any thread; read below
  /// applied watermarks by catch-up and by readers of pinned epochs.
  /// Declared before the replicas that bind it.
  graph::EventLog log_;
  std::unique_ptr<graph::ShardedDynamicTCSR> sides_[2];

  mutable std::mutex mu_;
  std::condition_variable retire_cv_;  ///< signaled when a pin count hits 0
  int current_ = 0;
  std::uint64_t epoch_id_ = 0;
  std::int64_t pins_[2] = {0, 0};
  /// Replica versions captured at publish (ReadGuard fence values).
  std::uint64_t published_version_[2];
  /// Streamed events indexed into each replica. Advances only when a
  /// catch-up completes; a faulted catch-up leaves it put, and the retry
  /// resumes from it (per-shard clamps make the overlap idempotent).
  std::uint64_t applied_[2] = {0, 0};
  /// Rows in the log's base: streamed event i is log row base_edges_ + i.
  std::uint64_t base_edges_ = 0;
  /// `taser.epoch.{published,compactions,publish_ms}`, written by the
  /// publishing thread.
  enum BookCounter : std::size_t { kPublished, kCompactions };
  enum BookHistogram : std::size_t { kPublishMs };
  obs::Scope books_;

  std::atomic<bool> publishing_{false};

  /// Runs catch_up's per-shard waves; declared last so it is joined
  /// before any state a wave touches is destroyed.
  class ShardCrew;
  std::unique_ptr<ShardCrew> crew_;
};

}  // namespace taser::serve
