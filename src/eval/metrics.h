#pragma once

#include <span>
#include <vector>

namespace taser::eval {

/// Reciprocal rank of one positive score against its negative scores.
/// Ties contribute half a rank step, so an untrained model (all-equal
/// logits) scores like a random ranker instead of like the worst one.
/// The one ranking kernel: Trainer::evaluate_mrr ranks through it too.
double reciprocal_rank(float positive, std::span<const float> negatives);

/// Mean reciprocal rank over per-edge (positive, negatives) score sets.
double mean_reciprocal_rank(const std::vector<float>& positives,
                            const std::vector<std::vector<float>>& negatives);

/// Hit@k over the same protocol.
double hit_at_k(const std::vector<float>& positives,
                const std::vector<std::vector<float>>& negatives, int k);

}  // namespace taser::eval
