#include "sampling/dynamic_finder.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace taser::sampling {

void DynamicNeighborFinder::arm(const graph::ShardedDynamicTCSR& graph, std::uint64_t version,
                                std::span<const std::uint64_t> root_keys) {
  armed_ = &graph;
  armed_version_ = version;
  root_keys_.assign(root_keys.begin(), root_keys.end());
}

void DynamicNeighborFinder::begin_batch(Time batch_time) {
  (void)batch_time;  // any batch order is fine; the version is the snapshot
  // Consume the arming before any possible throw: a worker that catches
  // TornViewError and retries re-arms from a fresh epoch acquisition; a
  // stale arming must not leak into it.
  const graph::ShardedDynamicTCSR* graph = std::exchange(armed_, nullptr);
  graph_ = nullptr;
  TASER_CHECK_MSG(graph != nullptr,
                  "build on an unarmed dynamic finder — arm() every build with "
                  "the pinned replica, its publish-time version and the root keys");
  TASER_CHECK_MSG(!graph->writer_active(),
                  "begin_batch during a DynamicTCSR mutation — readers must be "
                  "sequenced after the writer (single-writer/snapshot-read "
                  "contract)");
  version_at_batch_ = graph->version();
  if (version_at_batch_ != armed_version_) {
    std::ostringstream os;
    os << "epoch fence: replica version " << version_at_batch_
       << " != published epoch version " << armed_version_
       << " — the graph mutated between epoch acquisition and sampling";
    throw TornViewError(os.str());
  }
  graph_ = graph;
  hop_ = 0;
  prev_targets_ = prev_budget_ = 0;
}

void DynamicNeighborFinder::sample_into(const TargetBatch& targets, std::int64_t budget,
                                        FinderPolicy policy, SampledNeighbors& out) {
  TASER_CHECK(budget > 0);
  TASER_CHECK_MSG(graph_ != nullptr,
                  "sample_into before begin_batch — the dynamic finder needs a "
                  "version snapshot to assert the read window");
  TASER_CHECK_MSG(graph_->version() == version_at_batch_,
                  "DynamicTCSR mutated inside a sampling window (version "
                      << graph_->version() << " != snapshot " << version_at_batch_
                      << ") — ingest/compact must happen between batches, then "
                         "begin_batch again");
  out.resize(static_cast<std::int64_t>(targets.size()), budget);

  // Resolve this hop's per-target keys: roots carry the armed keys, deeper
  // hops inherit mix(parent_key, slot) following the builder's
  // one-entry-per-slot frontier layout.
  if (hop_ == 0) {
    TASER_CHECK_MSG(targets.size() == root_keys_.size(),
                    "keyed sampling: " << root_keys_.size()
                        << " stream keys armed for a root frontier of "
                        << targets.size() << " targets");
    cur_keys_.assign(root_keys_.begin(), root_keys_.end());
  } else {
    TASER_CHECK_MSG(static_cast<std::int64_t>(targets.size()) ==
                        prev_targets_ * prev_budget_,
                    "keyed sampling: hop " << hop_ << " frontier has "
                        << targets.size() << " targets, expected "
                        << prev_targets_ << " x " << prev_budget_
                        << " output slots (keyed streams require the "
                           "non-adaptive frontier chaining)");
    parent_keys_.swap(cur_keys_);
    cur_keys_.resize(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i)
      cur_keys_[i] = util::mix_stream_key(
          parent_keys_[i / static_cast<std::size_t>(prev_budget_)],
          static_cast<std::uint64_t>(i % static_cast<std::size_t>(prev_budget_)));
  }
  prev_targets_ = static_cast<std::int64_t>(targets.size());
  prev_budget_ = budget;
  ++hop_;

  util::Rng r(0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId v = targets.nodes[i];
    const Time t = targets.times[i];
    if (v == graph::kInvalidNode) continue;
    // Per-root shard routing: all merged-view reads for this target go to
    // the one shard owning v's list.
    const graph::DynamicTCSR& g = graph_->shard_for(v);
    const std::int64_t eligible = g.pivot_count(v, t);
    if (eligible == 0) continue;
    const std::int64_t take = std::min(budget, eligible);

    r.reseed(draw_seed(cur_keys_[i]));

    // Writes one pick into the next output slot.
    std::int64_t written = 0;
    auto emit = [&](std::int64_t j) {
      const auto s = static_cast<std::size_t>(
          out.slot(static_cast<std::int64_t>(i), written++));
      out.nbr[s] = g.nbr(v, j);
      out.ts[s] = g.nbr_ts(v, j);
      out.eid[s] = g.nbr_eid(v, j);
    };

    switch (policy) {
      case FinderPolicy::kMostRecent:
        for (std::int64_t j = 0; j < take; ++j) emit(eligible - 1 - j);
        break;
      case FinderPolicy::kUniform: {
        if (eligible <= budget) {
          for (std::int64_t j = 0; j < eligible; ++j) emit(j);
        } else {
          idx_.resize(static_cast<std::size_t>(eligible));
          for (std::int64_t j = 0; j < eligible; ++j)
            idx_[static_cast<std::size_t>(j)] = j;
          // Partial Fisher–Yates without replacement.
          for (std::int64_t j = 0; j < take; ++j) {
            const std::int64_t pick =
                j + static_cast<std::int64_t>(
                        r.next_below(static_cast<std::uint64_t>(eligible - j)));
            std::swap(idx_[static_cast<std::size_t>(j)], idx_[static_cast<std::size_t>(pick)]);
            emit(idx_[static_cast<std::size_t>(j)]);
          }
        }
        break;
      }
      case FinderPolicy::kInverseTimespan: {
        // TGAT's heuristic: p(j) ∝ 1 / (t - t_j + δ), without replacement.
        w_.resize(static_cast<std::size_t>(eligible));
        for (std::int64_t j = 0; j < eligible; ++j)
          w_[static_cast<std::size_t>(j)] = 1.0 / (t - g.nbr_ts(v, j) + 1e-6);
        for (std::int64_t j = 0; j < take; ++j) {
          const std::size_t pick = r.next_weighted(w_);
          w_[pick] = 0.0;
          emit(static_cast<std::int64_t>(pick));
        }
        break;
      }
    }
    out.count[i] = static_cast<std::int32_t>(written);
  }
}

}  // namespace taser::sampling
