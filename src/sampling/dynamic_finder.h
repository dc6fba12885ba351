#pragma once

#include <stdexcept>

#include "graph/sharded_tcsr.h"
#include "sampling/neighbor_finder.h"

namespace taser::sampling {

/// Thrown by the epoch fence: the replica under a pinned epoch no longer
/// matches the version captured at publish — the reader's view is torn.
/// A typed error (rather than the generic TASER_CHECK runtime_error)
/// because torn views are the one worker-forward fault that is safe to
/// retry: the ServingEngine re-pins the current epoch and re-runs the
/// batch once before failing it.
class TornViewError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// NeighborFinder over a streaming ShardedDynamicTCSR: the thin
/// serving-side adapter that samples from the merged base+delta view. All
/// three static policies are supported with the same per-query semantics
/// as OrigNeighborFinder (most-recent = newest-first prefix, uniform =
/// partial Fisher–Yates without replacement, inverse-timespan = weighted
/// without replacement). By default stochastic draws come from one
/// per-instance Rng stream in target order — so two finders with the same
/// seed issued the same query sequence over query-identical graphs
/// produce bitwise-identical samples. That is the property test_serve's
/// incremental-vs-static equivalence suite pins: sampling depends only on
/// the merged logical neighbor lists, never on how they are physically
/// split between base and delta.
///
/// Keyed streams (serving): `set_stream_keys` arms the next batch with
/// one stream key per root target; every target then draws from a private
/// Rng seeded by its key, and hop-h targets inherit keys from their
/// hop-(h-1) parent slot (`mix_stream_key(parent_key, slot)`). A query's
/// samples become a pure function of (its key, its (node, time) frontier,
/// the merged graph view) — independent of which micro-batch, batch
/// position, or worker the query was coalesced into. The chaining relies
/// on the builder's non-adaptive frontier layout (hop-h frontier == the
/// hop-(h-1) output slots, one entry per slot, padding included); a
/// frontier of any other shape is a hard TASER_CHECK.
///
/// Snapshot-read half of the DynamicTCSR contract, asserted here over the
/// whole container (its version is summed over shards): begin_batch()
/// captures the graph version (and checks no writer is mid-mutation);
/// every sample_into() re-checks the version, so an ingest/compact
/// landing between begin_batch and sampling is a hard TASER_CHECK
/// failure, not a torn read. Call begin_batch after every graph mutation
/// (BatchBuilder does so at the top of each build).
/// `expect_version` extends the fence across the epoch hand-off: a reader
/// holding a published epoch passes the publish-time version, and the
/// next begin_batch hard-fails unless the replica still matches it — a
/// write that slipped in between epoch acquisition and sampling fails the
/// reader deterministically instead of racing.
///
/// Serial per-target loop with capacity-reusing member scratch: serving
/// micro-batches are small, and both stream modes keep the sample
/// sequence independent of thread count by construction.
///
/// Every root routes to the shard owning its adjacency list
/// (`shard_for`); because an owned node's merged list is byte-identical
/// to the unsharded one, the sample sequence — and therefore every score
/// — is independent of the shard count (test_serve's S ∈ {1,2,4} anchor).
class DynamicNeighborFinder : public NeighborFinder {
 public:
  explicit DynamicNeighborFinder(const graph::ShardedDynamicTCSR& graph,
                                 std::uint64_t seed = 1)
      : graph_(graph), rng_(seed) {}

  void begin_batch(Time batch_time) override;

  void sample_into(const TargetBatch& targets, std::int64_t budget,
                   FinderPolicy policy, SampledNeighbors& out) override;

  std::string name() const override { return "dynamic-cpu"; }

  /// Epoch fence: the next begin_batch asserts graph.version() == v (then
  /// clears the expectation). Readers pass the version captured when
  /// their epoch was published.
  void expect_version(std::uint64_t v);

  /// Arms the next batch (one build, all hops) with per-root stream keys;
  /// keys.size() must equal the root frontier size of that build. Without
  /// a fresh call the finder falls back to its single unkeyed stream.
  void set_stream_keys(const std::vector<std::uint64_t>& root_keys);

 private:
  static constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};

  const graph::ShardedDynamicTCSR& graph_;
  util::Rng rng_;
  std::uint64_t version_at_batch_ = kNoBatch;
  std::uint64_t expected_version_ = 0;
  bool has_expected_version_ = false;
  // Keyed-stream state: root keys armed for the next batch, the current
  // hop's per-target keys, and the previous hop's shape for chaining.
  bool keys_pending_ = false;
  bool keyed_ = false;
  int hop_ = 0;
  std::int64_t prev_targets_ = 0, prev_budget_ = 0;
  std::vector<std::uint64_t> root_keys_, cur_keys_, parent_keys_;
  std::vector<std::int64_t> idx_;  ///< uniform-policy pick scratch
  std::vector<double> w_;          ///< inverse-timespan weight scratch
};

}  // namespace taser::sampling
