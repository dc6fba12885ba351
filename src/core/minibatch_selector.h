#pragma once

#include "core/fenwick.h"
#include "graph/dataset.h"

namespace taser::core {

/// Temporal adaptive mini-batch selection (paper §III-A).
///
/// Maintains one importance score P(e) per training edge, initialised
/// uniformly; batches are drawn with probability proportional to P
/// (without replacement within a batch). After the forward pass the
/// caller reports each positive edge's logit, and the score is updated to
///   P(e) = sigmoid(ŷ_e) + γ            (Eq. 11)
/// High-confidence (clean) positives are re-visited more; suspected-noise
/// positives decay towards the γ floor, which keeps exploration alive.
///
/// Staleness contract (depth-K stale-θ prefetch): all calls happen on the
/// trainer thread, so sample/update interleaving is a pure ordering
/// question. The synchronous path samples batch k *after* batch k-1's
/// updates; the stale path samples batch k at submit time — up to K =
/// `prefetch_depth` steps before its own — i.e. re-weighted only by
/// logits through batch k-1-K. Every ordering is deterministic (the
/// trainer submits in batch order at every depth) — `num_updates()`
/// tells each story for accounting.
class MiniBatchSelector {
 public:
  /// `num_train_edges` — size of E_train; edge index 0 is the first
  /// training edge. γ defaults to the paper's 0.1.
  MiniBatchSelector(std::int64_t num_train_edges, float gamma = 0.1f,
                    std::uint64_t seed = 17);

  /// Draws a batch of distinct training-edge indices ~ P.
  std::vector<std::int64_t> sample_batch(std::int64_t batch_size);

  /// Eq. 11 update from the forward pass's positive logit.
  void update(std::int64_t edge_index, float positive_logit);

  double score(std::int64_t edge_index) const {
    return scores_.get(static_cast<std::size_t>(edge_index));
  }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(scores_.size()); }
  float gamma() const { return gamma_; }
  /// Eq. 11 updates applied so far (staleness accounting).
  std::int64_t num_updates() const { return num_updates_; }

 private:
  FenwickTree scores_;
  float gamma_;
  util::Rng rng_;
  std::int64_t num_updates_ = 0;
};

}  // namespace taser::core
