#include "eval/metrics.h"

#include "util/check.h"

namespace taser::eval {

double reciprocal_rank(float positive, std::span<const float> negatives) {
  int greater = 0, ties = 0;
  for (float n : negatives) {
    if (n > positive) ++greater;
    else if (n == positive) ++ties;
  }
  return 1.0 / (1.0 + greater + 0.5 * ties);
}

double mean_reciprocal_rank(const std::vector<float>& positives,
                            const std::vector<std::vector<float>>& negatives) {
  TASER_CHECK(positives.size() == negatives.size());
  TASER_CHECK(!positives.empty());
  double sum = 0;
  for (std::size_t i = 0; i < positives.size(); ++i)
    sum += reciprocal_rank(positives[i], negatives[i]);
  return sum / static_cast<double>(positives.size());
}

double hit_at_k(const std::vector<float>& positives,
                const std::vector<std::vector<float>>& negatives, int k) {
  TASER_CHECK(positives.size() == negatives.size());
  TASER_CHECK(!positives.empty() && k >= 1);
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < positives.size(); ++i) {
    int greater = 0;
    for (float n : negatives[i])
      if (n > positives[i]) ++greater;
    hits += (greater < k);
  }
  return static_cast<double>(hits) / static_cast<double>(positives.size());
}

}  // namespace taser::eval
