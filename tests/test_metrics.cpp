// Evaluation metrics: reciprocal rank semantics (ties, extremes), MRR
// aggregation, hit@k.
#include <gtest/gtest.h>

#include "eval/metrics.h"

using namespace taser::eval;

namespace {

TEST(ReciprocalRank, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(reciprocal_rank(10.f, std::vector<float>{1.f, 2.f, 3.f}), 1.0);
  EXPECT_DOUBLE_EQ(reciprocal_rank(0.f, std::vector<float>{1.f, 2.f, 3.f}), 1.0 / 4.0);
}

TEST(ReciprocalRank, MiddleRank) {
  // one negative above -> rank 2
  EXPECT_DOUBLE_EQ(reciprocal_rank(5.f, std::vector<float>{9.f, 1.f, 2.f}), 0.5);
}

TEST(ReciprocalRank, TiesCountHalf) {
  // all equal: rank = 1 + 0 + 3/2 = 2.5
  EXPECT_DOUBLE_EQ(reciprocal_rank(1.f, std::vector<float>{1.f, 1.f, 1.f}), 1.0 / 2.5);
}

TEST(ReciprocalRank, UntrainedModelScoresLikeRandom) {
  // With K equal negatives, RR = 1/(1 + K/2) ≈ E[1/rank-ish]; crucially it
  // is far above the worst case 1/(K+1).
  const double rr = reciprocal_rank(0.f, std::vector<float>(49, 0.f));
  EXPECT_GT(rr, 1.0 / 50.0);
  EXPECT_LT(rr, 0.2);
}

TEST(Mrr, AveragesOverEdges) {
  std::vector<float> pos = {10.f, 0.f};
  std::vector<std::vector<float>> negs = {{1.f, 2.f}, {5.f, 6.f}};
  // rr = 1 and 1/3
  EXPECT_DOUBLE_EQ(mean_reciprocal_rank(pos, negs), (1.0 + 1.0 / 3.0) / 2.0);
}

TEST(Mrr, RejectsEmptyAndMismatched) {
  EXPECT_THROW(mean_reciprocal_rank({}, {}), std::runtime_error);
  EXPECT_THROW(mean_reciprocal_rank({1.f}, {{1.f}, {2.f}}), std::runtime_error);
}

TEST(HitAtK, Bounds) {
  std::vector<float> pos = {5.f, 0.f, 3.f};
  std::vector<std::vector<float>> negs = {{1.f, 2.f}, {5.f, 6.f}, {4.f, 1.f}};
  // ranks: 1, 3, 2
  EXPECT_DOUBLE_EQ(hit_at_k(pos, negs, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(hit_at_k(pos, negs, 2), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(hit_at_k(pos, negs, 3), 1.0);
}

}  // namespace
