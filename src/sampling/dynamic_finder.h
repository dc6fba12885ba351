#pragma once

#include <span>
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

/// Seed of the Rng a target keyed `key` draws its picks from:
/// `Rng(draw_seed(key))` replays exactly the draws DynamicNeighborFinder
/// makes for that target, so one target's picks can be checked against
/// any other finder seeded the same way.
inline std::uint64_t draw_seed(std::uint64_t key) {
  return util::mix_stream_key(key, 0xd4a17b015u);
}

/// NeighborFinder over a streaming ShardedDynamicTCSR: the thin
/// serving-side adapter that samples from the merged base+delta view. All
/// three static policies are supported with the same per-target semantics
/// as OrigNeighborFinder (most-recent = newest-first prefix, uniform =
/// partial Fisher–Yates without replacement, inverse-timespan = weighted
/// without replacement); sampling depends only on the merged logical
/// neighbor lists, never on how they are split between base and delta.
///
/// Armed per build: `arm` hands the finder the pinned epoch's replica,
/// the version captured when that epoch was published, and one stream key
/// per root target. The next begin_batch consumes the arming, so one
/// arming covers exactly one build (all hops), and a build that was not
/// armed throws. One finder thus serves whichever replica each request
/// pinned.
///
/// Keyed streams: every target draws from a private Rng seeded by
/// `draw_seed` of its key; roots carry the armed keys and hop-h targets
/// inherit keys from their hop-(h-1) parent slot
/// (`mix_stream_key(parent_key, slot)`). A query's samples are a pure
/// function of (its key, its (node, time) frontier, the merged graph
/// view) — independent of which micro-batch, batch position, or worker
/// the query was coalesced into. The chaining relies on the builder's
/// non-adaptive frontier layout (hop-h frontier == the hop-(h-1) output
/// slots, one entry per slot, padding included); a frontier of any other
/// shape is a hard TASER_CHECK.
///
/// Snapshot-read half of the DynamicTCSR contract, asserted here over the
/// whole container (its version is summed over shards): begin_batch()
/// checks that no writer is mid-mutation and that the replica's version
/// still equals the armed one — otherwise the epoch hand-off was torn
/// and it throws TornViewError. Every sample_into() re-checks the
/// version, so an ingest/compact landing between begin_batch and
/// sampling is a hard TASER_CHECK failure, not a torn read.
///
/// Serial per-target loop with capacity-reusing member scratch: serving
/// micro-batches are small, and keyed streams keep the sample sequence
/// independent of thread count by construction.
///
/// Every root routes to the shard owning its adjacency list
/// (`shard_for`); because an owned node's merged list is byte-identical
/// to the unsharded one, the sample sequence — and therefore every score
/// — is independent of the shard count (test_serve's S ∈ {1,2,4} anchor).
class DynamicNeighborFinder : public NeighborFinder {
 public:
  /// Arms the next build with the replica to sample (it must stay pinned
  /// until the build ends), its publish-time version and one stream key
  /// per root target.
  void arm(const graph::ShardedDynamicTCSR& graph, std::uint64_t version,
           std::span<const std::uint64_t> root_keys);

  void begin_batch(Time batch_time) override;

  void sample_into(const TargetBatch& targets, std::int64_t budget,
                   FinderPolicy policy, SampledNeighbors& out) override;

  std::string name() const override { return "dynamic-cpu"; }

 private:
  // The arming begin_batch consumes: replica, fence version, root keys.
  const graph::ShardedDynamicTCSR* armed_ = nullptr;
  std::uint64_t armed_version_ = 0;
  // The current build's replica (null outside a fenced build) and the
  // version it was fenced at.
  const graph::ShardedDynamicTCSR* graph_ = nullptr;
  std::uint64_t version_at_batch_ = 0;
  // Keyed-stream state: the current hop's per-target keys and the
  // previous hop's shape for chaining.
  int hop_ = 0;
  std::int64_t prev_targets_ = 0, prev_budget_ = 0;
  std::vector<std::uint64_t> root_keys_, cur_keys_, parent_keys_;
  std::vector<std::int64_t> idx_;  ///< uniform-policy pick scratch
  std::vector<double> w_;          ///< inverse-timespan weight scratch
};

}  // namespace taser::sampling
