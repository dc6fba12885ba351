// Forward-value tests for the tensor library: shapes, broadcasting rules,
// and numeric results checked against hand-computed expectations.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/counters.h"
#include "tensor/gelu_kernel.h"
#include "tensor/gemm_kernels.h"
#include "tensor/layer_norm_kernel.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tt = taser::tensor;
using tt::Tensor;

namespace {

void expect_all_close(const Tensor& t, const std::vector<float>& expect,
                      float tol = 1e-5f) {
  ASSERT_EQ(t.numel(), static_cast<std::int64_t>(expect.size()));
  const float* d = t.data();
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_NEAR(d[i], expect[i], tol) << "at index " << i;
}

TEST(TensorBasics, ConstructorsAndMetadata) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(), 2);
  EXPECT_EQ(z.size(0), 2);
  EXPECT_EQ(z.size(1), 3);
  EXPECT_EQ(z.size(-1), 3);
  expect_all_close(z, {0, 0, 0, 0, 0, 0});

  Tensor f = Tensor::full({2}, 3.5f);
  expect_all_close(f, {3.5f, 3.5f});

  Tensor s = Tensor::scalar(2.f);
  EXPECT_EQ(s.dim(), 0);
  EXPECT_FLOAT_EQ(s.item(), 2.f);
}

TEST(TensorBasics, FromVectorShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1.f, 2.f, 3.f}), std::runtime_error);
}

TEST(TensorBasics, AtIndexing) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 1.f);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 6.f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 3.f);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor a = Tensor::from_vector({2}, {1, 2});
  Tensor b = a.clone();
  b.data()[0] = 9.f;
  EXPECT_FLOAT_EQ(a.data()[0], 1.f);
}

TEST(TensorBasics, DetachSharesNoGraph) {
  Tensor a = Tensor::from_vector({2}, {1, 2}, /*requires_grad=*/true);
  Tensor b = tt::mul_scalar(a, 2.f);
  Tensor d = b.detach();
  EXPECT_FALSE(d.requires_grad());
  expect_all_close(d, {2, 4});
}

TEST(Elementwise, AddSameShape) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  expect_all_close(tt::add(a, b), {11, 22, 33, 44});
  expect_all_close(tt::sub(a, b), {-9, -18, -27, -36});
  expect_all_close(tt::mul(a, b), {10, 40, 90, 160});
  expect_all_close(tt::div(b, a), {10, 10, 10, 10});
}

TEST(Elementwise, BroadcastRowVector) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3}, {10, 20, 30});
  expect_all_close(tt::add(a, b), {11, 22, 33, 14, 25, 36});
}

TEST(Elementwise, BroadcastColumnAgainstMatrix) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({2, 1}, {10, 100});
  expect_all_close(tt::mul(a, b), {10, 20, 30, 400, 500, 600});
}

TEST(Elementwise, Broadcast3dMiddleDim) {
  // [2,2,2] * [2,1,2]
  Tensor a = Tensor::from_vector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor b = Tensor::from_vector({2, 1, 2}, {1, 10, 100, 1000});
  expect_all_close(tt::mul(a, b), {1, 20, 3, 40, 500, 6000, 700, 8000});
}

TEST(Elementwise, IncompatibleBroadcastThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 4});
  EXPECT_THROW(tt::add(a, b), std::runtime_error);
}

TEST(Elementwise, UnaryValues) {
  Tensor x = Tensor::from_vector({4}, {-2.f, -0.5f, 0.f, 1.5f});
  expect_all_close(tt::relu(x), {0, 0, 0, 1.5f});
  expect_all_close(tt::leaky_relu(x, 0.1f), {-0.2f, -0.05f, 0, 1.5f});
  expect_all_close(tt::neg(x), {2.f, 0.5f, 0.f, -1.5f});
  expect_all_close(tt::square(x), {4.f, 0.25f, 0.f, 2.25f});
  expect_all_close(tt::sigmoid(Tensor::from_vector({1}, {0.f})), {0.5f});
  expect_all_close(tt::exp_t(Tensor::from_vector({2}, {0.f, 1.f})),
                   {1.f, std::exp(1.f)}, 1e-4f);
  expect_all_close(tt::cos_t(Tensor::from_vector({2}, {0.f, 3.14159265f})),
                   {1.f, -1.f}, 1e-4f);
}

TEST(Elementwise, SigmoidExtremeLogitsStable) {
  Tensor x = Tensor::from_vector({2}, {-80.f, 80.f});
  Tensor y = tt::sigmoid(x);
  EXPECT_GE(y.data()[0], 0.f);
  EXPECT_LE(y.data()[1], 1.f);
  EXPECT_NEAR(y.data()[0], 0.f, 1e-6f);
  EXPECT_NEAR(y.data()[1], 1.f, 1e-6f);
}

TEST(MatMul, Values2d) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  expect_all_close(tt::matmul(a, b), {58, 64, 139, 154});
}

TEST(MatMul, InnerDimMismatchThrows) {
  EXPECT_THROW(tt::matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               std::runtime_error);
}

TEST(MatMul, BatchedValues) {
  Tensor a = Tensor::from_vector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2, 1}, {5, 6, 7, 8});
  expect_all_close(tt::bmm(a, b), {17, 53});
}

TEST(MatMul, LinearMatchesManual) {
  Tensor x = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::from_vector({2, 3}, {1, 0, 2, 0, 1, 1});
  Tensor b = Tensor::from_vector({3}, {0.5f, -0.5f, 0.f});
  // row0: [1*1+2*0, 1*0+2*1, 1*2+2*1] + b = [1.5, 1.5, 4]
  expect_all_close(tt::linear(x, w, b), {1.5f, 1.5f, 4.f, 3.5f, 3.5f, 10.f});
}

TEST(MatMul, LinearOn3dInput) {
  Tensor x = Tensor::ones({2, 3, 4});
  taser::util::Rng rng(1);
  Tensor w = Tensor::randn({4, 5}, rng);
  Tensor out = tt::linear(x, w, Tensor());
  EXPECT_EQ(out.shape(), (tt::Shape{2, 3, 5}));
}

TEST(Reduce, SumAndMean) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(tt::sum_all(a).item(), 21.f);
  EXPECT_FLOAT_EQ(tt::mean_all(a).item(), 3.5f);
  expect_all_close(tt::sum_dim(a, 0), {5, 7, 9});
  expect_all_close(tt::sum_dim(a, 1), {6, 15});
  expect_all_close(tt::mean_dim(a, 1), {2, 5});
  expect_all_close(tt::sum_dim(a, -1), {6, 15});
}

TEST(Reduce, SumDimKeepdim) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = tt::sum_dim(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s.shape(), (tt::Shape{2, 1}));
}

TEST(Reduce, SumMiddleDimOf3d) {
  Tensor a = Tensor::from_vector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  expect_all_close(tt::sum_dim(a, 1), {4, 6, 12, 14});
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, -1, 0, 5});
  Tensor s = tt::softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.f, 1e-5f);
  }
  EXPECT_LT(s.at({0, 0}), s.at({0, 2}));
}

TEST(Softmax, LargeLogitsStable) {
  Tensor a = Tensor::from_vector({1, 3}, {1000.f, 1000.f, 1000.f});
  Tensor s = tt::softmax_lastdim(a);
  expect_all_close(s, {1.f / 3, 1.f / 3, 1.f / 3});
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::from_vector({1, 4}, {0.1f, -2.f, 3.f, 0.f});
  Tensor ls = tt::log_softmax_lastdim(a);
  Tensor s = tt::softmax_lastdim(a);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(ls.at({0, i}), std::log(s.at({0, i})), 1e-5f);
}

TEST(LayerNorm, NormalisesRows) {
  Tensor x = Tensor::from_vector({2, 4}, {1, 2, 3, 4, -10, 0, 10, 20});
  Tensor gamma = Tensor::ones({4});
  Tensor beta = Tensor::zeros({4});
  Tensor y = tt::layer_norm_lastdim(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 4; ++c) mean += y.at({r, c});
    mean /= 4;
    for (int c = 0; c < 4; ++c) var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.f, 1e-4f);
    EXPECT_NEAR(var, 1.f, 1e-2f);
  }
}

TEST(ShapeOps, ReshapeAndWildcard) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = tt::reshape(a, {3, -1});
  EXPECT_EQ(r.shape(), (tt::Shape{3, 2}));
  expect_all_close(r, {1, 2, 3, 4, 5, 6});
  EXPECT_THROW(tt::reshape(a, {4, 2}), std::runtime_error);
}

TEST(ShapeOps, Transpose2d) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  expect_all_close(tt::transpose2d(a), {1, 4, 2, 5, 3, 6});
}

TEST(ShapeOps, Permute021) {
  Tensor a = Tensor::from_vector({2, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor p = tt::permute_021(a);
  EXPECT_EQ(p.shape(), (tt::Shape{2, 3, 2}));
  expect_all_close(p, {1, 4, 2, 5, 3, 6, 7, 10, 8, 11, 9, 12});
}

TEST(ShapeOps, ConcatLastdim) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 1}, {9, 10});
  expect_all_close(tt::concat_lastdim({a, b}), {1, 2, 9, 3, 4, 10});
}

TEST(ShapeOps, ConcatDim0) {
  Tensor a = Tensor::from_vector({1, 2}, {1, 2});
  Tensor b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  Tensor c = tt::concat_dim0({a, b});
  EXPECT_EQ(c.shape(), (tt::Shape{3, 2}));
  expect_all_close(c, {1, 2, 3, 4, 5, 6});
}

TEST(ShapeOps, SliceLastdim) {
  Tensor a = Tensor::from_vector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  expect_all_close(tt::slice_lastdim(a, 1, 2), {2, 3, 6, 7});
  EXPECT_THROW(tt::slice_lastdim(a, 3, 2), std::runtime_error);
}

TEST(ShapeOps, IndexSelect0) {
  Tensor a = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = tt::index_select0(a, {2, 0, 2});
  expect_all_close(g, {5, 6, 1, 2, 5, 6});
  EXPECT_THROW(tt::index_select0(a, {3}), std::runtime_error);
}

TEST(Loss, BceWithLogitsMatchesManual) {
  Tensor z = Tensor::from_vector({2}, {0.f, 2.f});
  Tensor y = Tensor::from_vector({2}, {1.f, 0.f});
  // loss0 = log(2); loss1 = 2 + log(1+e^-2)
  const float expect = (std::log(2.f) + 2.f + std::log1p(std::exp(-2.f))) / 2.f;
  EXPECT_NEAR(tt::bce_with_logits_mean(z, y).item(), expect, 1e-5f);
}

TEST(Loss, BceExtremeLogitsFinite) {
  Tensor z = Tensor::from_vector({2}, {-100.f, 100.f});
  Tensor y = Tensor::from_vector({2}, {0.f, 1.f});
  const float v = tt::bce_with_logits_mean(z, y).item();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 0.f, 1e-5f);
}

TEST(Dropout, EvalModeIsIdentityTrainModeScales) {
  taser::util::Rng rng(7);
  Tensor x = Tensor::ones({1000});
  Tensor eval_out = tt::dropout(x, 0.5f, /*training=*/false, rng);
  expect_all_close(eval_out, std::vector<float>(1000, 1.f));

  Tensor train_out = tt::dropout(x, 0.5f, /*training=*/true, rng);
  int zeros = 0;
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const float v = train_out.data()[i];
    EXPECT_TRUE(v == 0.f || std::abs(v - 2.f) < 1e-6f);
    zeros += v == 0.f;
    sum += v;
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

// The gemm kernels are unrolled 4-wide with the zero-skip hoisted to
// block granularity; the FLOP ledger must stay the dense 2·m·k·n count
// regardless of how much work the skip elides (the modeled GPU executes
// the dense kernel either way).
TEST(OpCounters, MatmulFlopAccountingIsDense) {
  Tensor a = Tensor::from_vector({3, 5}, std::vector<float>(15, 0.5f));
  Tensor b = Tensor::from_vector({5, 7}, std::vector<float>(35, 0.25f));
  taser::tensor::OpCounterSnapshot snap;
  Tensor c = tt::matmul(a, b);
  EXPECT_EQ(snap.flops(), static_cast<std::uint64_t>(2 * 3 * 5 * 7));

  // Sparse input: zero rows are skipped computationally but not in the
  // ledger.
  std::vector<float> az(15, 0.f);
  az[0] = 1.f;
  Tensor a2 = Tensor::from_vector({3, 5}, std::move(az));
  taser::tensor::OpCounterSnapshot snap2;
  Tensor c2 = tt::matmul(a2, b);
  EXPECT_EQ(snap2.flops(), static_cast<std::uint64_t>(2 * 3 * 5 * 7));
}

TEST(OpCounters, MatmulBackwardFlopAccountingIsDense) {
  Tensor a = Tensor::from_vector({4, 6}, std::vector<float>(24, 0.1f), true);
  Tensor b = Tensor::from_vector({6, 3}, std::vector<float>(18, 0.2f), true);
  Tensor c = tt::matmul(a, b);
  taser::tensor::OpCounterSnapshot snap;
  tt::sum_all(c).backward();
  // dA = g·Bᵀ (2·4·3·6) + dB = Aᵀ·g (2·6·4·3), plus the reduction's own
  // accounting; the gemm share must be present exactly.
  EXPECT_GE(snap.flops(), static_cast<std::uint64_t>(2 * 4 * 3 * 6 + 2 * 6 * 4 * 3));
}

// ---- packed GEMM backend ----------------------------------------------------
// The packed cache-blocked backend replaced the three ad-hoc kernels; it
// must (a) match a naive double reference on tile-unaligned shapes for
// all transpose variants (exercised through matmul's forward/backward),
// (b) be bit-identical across OpenMP thread counts, and (c) keep fused
// ops equal — in values and in the FLOP ledger — to their unfused
// decomposition.

void check_matmul_against_naive(std::int64_t m, std::int64_t k, std::int64_t n,
                                std::uint64_t seed) {
  taser::util::Rng rng(seed);
  std::vector<float> av(static_cast<std::size_t>(m * k)),
      bv(static_cast<std::size_t>(k * n));
  for (auto& v : av) v = rng.next_uniform(-1.f, 1.f);
  for (auto& v : bv) v = rng.next_uniform(-1.f, 1.f);
  // A zero stripe exercises the packed zero-chunk skip.
  if (m > 2)
    for (std::int64_t p = 0; p < k; ++p) av[static_cast<std::size_t>(2 * k + p)] = 0.f;

  Tensor a = Tensor::from_vector({m, k}, av, /*requires_grad=*/true);
  Tensor b = Tensor::from_vector({k, n}, bv, /*requires_grad=*/true);
  Tensor c = tt::matmul(a, b);
  tt::sum_all(c).backward();

  const float tol = 1e-4f * std::max<float>(1.f, static_cast<float>(k) / 64.f);
  // Forward: C = A·B (normal x normal).
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(av[static_cast<std::size_t>(i * k + p)]) *
               bv[static_cast<std::size_t>(p * n + j)];
      ASSERT_NEAR(c.at({i, j}), acc, tol) << "fwd " << m << "x" << k << "x" << n;
    }
  // dA = g·Bᵀ with g = 1 (transposed-B variant): dA[i,p] = Σ_j B[p,j].
  Tensor ga = a.grad();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) {
      double acc = 0;
      for (std::int64_t j = 0; j < n; ++j)
        acc += bv[static_cast<std::size_t>(p * n + j)];
      ASSERT_NEAR(ga.at({i, p}), acc, tol) << "dA " << m << "x" << k << "x" << n;
    }
  // dB = Aᵀ·g (transposed-A variant): dB[p,j] = Σ_i A[i,p].
  Tensor gb = b.grad();
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t i = 0; i < m; ++i)
        acc += av[static_cast<std::size_t>(i * k + p)];
      ASSERT_NEAR(gb.at({p, j}), acc, tol) << "dB " << m << "x" << k << "x" << n;
    }
}

TEST(PackedGemm, AllVariantsMatchNaiveOnUnalignedShapes) {
  // Odd shapes around the 6x16 register tile and the 256-wide k chunk.
  // Each packs B whole (regime P, or direct for n <= 4); the streamed
  // regime has its own suite below (StreamedWeightGradients*).
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 17},  {5, 17, 33},
                                    {17, 33, 1}, {33, 65, 7}, {7, 300, 9},
                                    {6, 16, 16}, {4, 600, 5}};
  std::uint64_t seed = 91;
  for (const auto& s : shapes) check_matmul_against_naive(s[0], s[1], s[2], ++seed);
}

TEST(PackedGemm, ThreadCountBitIdentity) {
  // Forward values AND accumulated gradients of the new kernels must be
  // bit-identical with a 1-thread and a 4-thread OpenMP team — the
  // repo's executable determinism invariant. Shapes are sized past the
  // kernels' parallelization thresholds.
  const int saved = omp_get_max_threads();
  auto run_all = [](std::vector<float>& out) {
    taser::util::Rng rng(77);
    Tensor x = Tensor::randn({300, 33}, rng, 0.8f, true);
    Tensor w = Tensor::randn({33, 65}, rng, 0.8f, true);
    Tensor b = Tensor::randn({65}, rng, 0.8f, true);
    Tensor y = tt::linear_gelu(x, w, b);
    Tensor yg = tt::gelu(tt::linear(x, w, b));  // chunk-parallel standalone op

    Tensor m1 = Tensor::randn({65, 130}, rng, 0.8f, true);
    Tensor m2 = Tensor::randn({130, 40}, rng, 0.8f, true);
    Tensor ym = tt::matmul(m1, m2);

    tt::add(tt::add(tt::sum_all(y), tt::sum_all(yg)), tt::sum_all(ym)).backward();
    for (const Tensor& t :
         {y, yg, ym, x.grad(), w.grad(), b.grad(), m1.grad(), m2.grad()}) {
      const float* d = t.data();
      out.insert(out.end(), d, d + t.numel());
    }
  };
  std::vector<float> serial, parallel;
  omp_set_num_threads(1);
  run_all(serial);
  omp_set_num_threads(4);
  run_all(parallel);
  omp_set_num_threads(saved);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "thread-count divergence at " << i;
}

namespace gemm = taser::tensor::gemm;

/// Runs fn() once at each OpenMP team size in `teams`; returns the results.
template <typename Fn>
std::vector<std::vector<float>> at_team_sizes(std::initializer_list<int> teams, Fn fn) {
  const int saved = omp_get_max_threads();
  std::vector<std::vector<float>> runs;
  for (int t : teams) {
    omp_set_num_threads(t);
    runs.push_back(fn());
  }
  omp_set_num_threads(saved);
  return runs;
}

void expect_same_bits(const std::vector<std::vector<float>>& runs) {
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    ASSERT_EQ(0, std::memcmp(runs[r].data(), runs[0].data(), runs[0].size() * sizeof(float)))
        << "run " << r << " differs from run 0";
  }
}

/// dW = Xᵀ·g at a shape whose packed g exceeds kPackAllBytes (regime S):
/// X [k, m], g [k, n], accumulated into a C that starts non-zero.
struct WeightGradCase {
  std::int64_t m, k, n;
  std::vector<float> x, g, c0;
};

WeightGradCase weight_grad_case(std::int64_t m, std::int64_t k, std::int64_t n,
                                std::uint64_t seed) {
  taser::util::Rng rng(seed);
  WeightGradCase w{m, k, n, {}, {}, {}};
  w.x.resize(static_cast<std::size_t>(k * m));
  w.g.resize(static_cast<std::size_t>(k * n));
  w.c0.resize(static_cast<std::size_t>(m * n));
  for (auto& v : w.x) v = rng.next_uniform(-1.f, 1.f);
  for (auto& v : w.g) v = rng.next_uniform(-1.f, 1.f);
  for (auto& v : w.c0) v = rng.next_uniform(-1.f, 1.f);
  // An all-zero A stripe: output rows 0..5 over the third k block.
  for (std::int64_t p = 2 * gemm::kKC; p < std::min(k, 3 * gemm::kKC); ++p)
    for (std::int64_t i = 0; i < std::min<std::int64_t>(m, gemm::kMR); ++i)
      w.x[static_cast<std::size_t>(p * m + i)] = 0.f;
  // With more than one row panel, the last one's A is all zero over all
  // of k and its C starts at -0: a skipped block is not added, so -0
  // survives.
  if (m <= gemm::kMR) return w;
  const std::int64_t last = (m - 1) / gemm::kMR * gemm::kMR;
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t i = last; i < m; ++i) w.x[static_cast<std::size_t>(p * m + i)] = 0.f;
  for (std::int64_t i = last; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) w.c0[static_cast<std::size_t>(i * n + j)] = -0.f;
  return w;
}

TEST(PackedGemm, StreamedWeightGradientsMatchNaiveAtEveryTeamSize) {
  // More than one fold group of k blocks with a ragged last block, m not
  // a multiple of 6; the second is train-taser's token fc2 dW shape, k
  // cut down (n = 10 takes 16-wide panels).
  const std::int64_t shapes[][3] = {{29, 2 * 16 * gemm::kKC + 2 * gemm::kKC + 37, 70},
                                    {5, 33000, 10}};
  std::uint64_t seed = 501;
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    SCOPED_TRACE(testing::Message() << "dW [" << m << "x" << k << " · " << k << "x" << n << "]");
    const std::int64_t nr = n <= gemm::kNR / 2 ? 4 : gemm::kNR;
    ASSERT_GT((n + nr - 1) / nr * nr * k * 4, gemm::kPackAllBytes) << "not regime S";
    const WeightGradCase w = weight_grad_case(m, k, n, ++seed);
    const auto runs = at_team_sizes({1, 2, 3, 4}, [&w] {
      std::vector<float> c = w.c0;
      gemm::gemm_acc(gemm::transposed(w.x.data(), w.m), gemm::row_major(w.g.data(), w.n),
                     c.data(), w.m, w.k, w.n);
      return c;
    });
    expect_same_bits(runs);
    const std::vector<float>& c = runs[0];
    const float tol = 1e-4f * static_cast<float>(k) / 64.f;
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = w.c0[static_cast<std::size_t>(i * n + j)];
        for (std::int64_t p = 0; p < k; ++p)
          acc += static_cast<double>(w.x[static_cast<std::size_t>(p * m + i)]) *
                 w.g[static_cast<std::size_t>(p * n + j)];
        ASSERT_NEAR(c[static_cast<std::size_t>(i * n + j)], acc, tol) << i << "," << j;
      }
    if (m > gemm::kMR)
      for (std::int64_t j = 0; j < n; ++j)
        ASSERT_TRUE(std::signbit(c[static_cast<std::size_t>((m - 1) * n + j)]))
            << "a skipped block was added at column " << j;
  }
}

TEST(PackedGemm, BetaZeroNeverReadsC) {
  // beta_zero: C's prior contents are never read, in every regime. A
  // NaN-filled C must give the bits of accumulating into zeros.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  taser::util::Rng rng(88);
  auto uniform = [&rng](std::int64_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = rng.next_uniform(-1.f, 1.f);
    return v;
  };
  const std::int64_t kBig = 6700;  // packed B of n = 70 exceeds kPackAllBytes
  struct Case {
    const char* name;
    std::int64_t batches, m, k, n;
    bool zero_panel, bias;
  };
  const Case cases[] = {
      {"direct (n <= 4)", 1, 7, 9, 3, false, true},
      {"packed, skipped panel", 1, 13, 20, 20, true, false},
      {"streamed", 1, 7, kBig, 70, true, false},
      {"streamed + bias", 1, 7, kBig, 70, false, true},
      {"batched fallback", 2, 3, kBig, 70, false, true},
      {"k = 0", 1, 5, 0, 20, false, false},
      {"k = 0 + bias", 1, 5, 0, 20, false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<float> a = uniform(c.batches * c.m * c.k), b = uniform(c.k * c.n),
                       bias = uniform(c.n);
    if (c.zero_panel)  // A rows 0..5 all zero: regime P skips that panel
      for (std::int64_t i = 0; i < gemm::kMR; ++i)
        for (std::int64_t p = 0; p < c.k; ++p) a[static_cast<std::size_t>(i * c.k + p)] = 0.f;
    auto run = [&](float fill, bool beta_zero) {
      std::vector<float> out(static_cast<std::size_t>(c.batches * c.m * c.n), fill);
      gemm::Epilogue ep;
      ep.bias = c.bias ? bias.data() : nullptr;
      ep.beta_zero = beta_zero;
      if (c.batches > 1)
        gemm::gemm_batched_acc(gemm::row_major(a.data(), c.k), c.m * c.k, c.batches,
                               gemm::row_major(b.data(), c.n), out.data(), c.m * c.n, c.m, c.k,
                               c.n, ep);
      else
        gemm::gemm_acc(gemm::row_major(a.data(), c.k), gemm::row_major(b.data(), c.n),
                       out.data(), c.m, c.k, c.n, ep);
      return out;
    };
    expect_same_bits({run(0.f, false), run(nan, true), run(0.f, true)});
  }
}

TEST(LayerNormKernel, TeamSizeBitIdentity) {
  // Rows split across the team; the γ/β grads by column chunk, each
  // column summed over rows in ascending order. Every output accumulates
  // into non-zero values.
  const std::int64_t rows = 997, d = 58;
  taser::util::Rng rng(61);
  auto uniform = [&rng](std::int64_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = rng.next_uniform(-2.f, 2.f);
    return v;
  };
  const std::vector<float> x = uniform(rows * d), g = uniform(rows * d), gamma = uniform(d),
                           beta = uniform(d), gx0 = uniform(rows * d), gg0 = uniform(d),
                           gb0 = uniform(d);
  const auto runs = at_team_sizes({1, 3, 4}, [&] {
    std::vector<float> y(static_cast<std::size_t>(rows * d)), y2(y.size()),
        stats(static_cast<std::size_t>(2 * rows));
    std::vector<float> gx = gx0, gg = gg0, gb = gb0;
    taser::tensor::kernels::layer_norm(x.data(), gamma.data(), beta.data(), y.data(), stats.data(), rows,
                              d, 1e-5f);
    taser::tensor::kernels::layer_norm_apply(x.data(), stats.data(), gamma.data(), beta.data(),
                                    y2.data(), rows, d);
    taser::tensor::kernels::layer_norm_grad(g.data(), x.data(), gamma.data(), stats.data(), gx.data(),
                                   gg.data(), gb.data(), rows, d);
    EXPECT_EQ(0, std::memcmp(y.data(), y2.data(), y.size() * sizeof(float)))
        << "apply differs from the forward";
    std::vector<float> out;
    for (const auto* v : {&y, &stats, &gx, &gg, &gb}) out.insert(out.end(), v->begin(), v->end());
    return out;
  });
  expect_same_bits(runs);
}

TEST(PackedGemm, FusedLinearGeluMatchesUnfusedBitwise) {
  taser::util::Rng rng(19);
  Tensor x = Tensor::randn({37, 23}, rng, 0.8f);
  Tensor w = Tensor::randn({23, 31}, rng, 0.8f);
  Tensor b = Tensor::randn({31}, rng, 0.8f);
  Tensor fused = tt::linear_gelu(x, w, b);
  Tensor unfused = tt::gelu(tt::linear(x, w, b));
  ASSERT_EQ(fused.numel(), unfused.numel());
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    ASSERT_EQ(fused.data()[i], unfused.data()[i]) << "at " << i;
}

TEST(OpCounters, FusedOpsKeepDecompositionFlops) {
  // The FLOP ledger is invariant under fusion: linear_gelu counts what
  // linear + gelu counted, forward and backward. (MixerBlock's node is
  // held to the same rule in test_nn.)
  taser::util::Rng rng(23);
  Tensor x = Tensor::randn({12, 7}, rng, 0.8f, true);
  Tensor w = Tensor::randn({7, 9}, rng, 0.8f, true);
  Tensor b = Tensor::randn({9}, rng, 0.8f, true);

  taser::tensor::OpCounterSnapshot fused_fwd;
  Tensor yf = tt::linear_gelu(x, w, b);
  const std::uint64_t fused_fwd_flops = fused_fwd.flops();
  taser::tensor::OpCounterSnapshot fused_bwd;
  tt::sum_all(yf).backward();
  const std::uint64_t fused_bwd_flops = fused_bwd.flops();

  x.zero_grad();
  w.zero_grad();
  b.zero_grad();
  taser::tensor::OpCounterSnapshot unfused_fwd;
  Tensor yu = tt::gelu(tt::linear(x, w, b));
  EXPECT_EQ(fused_fwd_flops, unfused_fwd.flops());
  taser::tensor::OpCounterSnapshot unfused_bwd;
  tt::sum_all(yu).backward();
  EXPECT_EQ(fused_bwd_flops, unfused_bwd.flops());
}

TEST(OpCounters, UnrolledGemmMatchesNaiveReference) {
  // k = 11 exercises the 4-wide main loop plus a 3-wide tail; a zero
  // block exercises the hoisted skip.
  const std::int64_t m = 5, k = 11, n = 7;
  taser::util::Rng rng(41);
  std::vector<float> av(static_cast<std::size_t>(m * k)), bv(static_cast<std::size_t>(k * n));
  for (auto& x : av) x = rng.next_uniform(-1.f, 1.f);
  for (auto& x : bv) x = rng.next_uniform(-1.f, 1.f);
  for (std::int64_t p = 4; p < 8; ++p) av[static_cast<std::size_t>(p)] = 0.f;  // row 0 block

  std::vector<float> expect(static_cast<std::size_t>(m * n), 0.f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(av[static_cast<std::size_t>(i * k + p)]) *
               static_cast<double>(bv[static_cast<std::size_t>(p * n + j)]);
      expect[static_cast<std::size_t>(i * n + j)] = static_cast<float>(acc);
    }

  Tensor c = tt::matmul(Tensor::from_vector({m, k}, std::move(av)),
                        Tensor::from_vector({k, n}, std::move(bv)));
  expect_all_close(c, expect, 1e-4f);
}

// ---- GELU array kernels (tensor/gelu_kernel.h) ------------------------------

namespace tk = taser::tensor::kernels;

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

float gelu1(float x) {
  float y = 0.f;
  tk::gelu(&x, &y, 1);
  return y;
}

float gelu_grad1(float g, float u) {
  float out = 0.f;
  tk::gelu_grad(&g, &u, &out, 1);
  return out;
}

TEST(GeluKernel, ArrayEqualsOneElementAtATime) {
  // Lane ≡ tail: every length 0..67 at every start offset 0..7 puts each
  // element in SIMD lanes, alignment peels and the scalar tail in turn;
  // the bits must equal a one-element call's. In place (y == x) too.
  constexpr std::size_t kLen = 8 + 67;
  taser::util::Rng rng(61);
  std::vector<float> x(kLen), g(kLen), want_y(kLen), want_d(kLen);
  for (auto& v : x) v = rng.next_uniform(-6.f, 6.f);
  for (auto& v : g) v = rng.next_uniform(-2.f, 2.f);
  for (std::size_t i = 0; i < kLen; ++i) {
    want_y[i] = gelu1(x[i]);
    want_d[i] = gelu_grad1(g[i], x[i]);
  }
  for (std::size_t off = 0; off < 8; ++off)
    for (std::int64_t len = 0; len <= 67; ++len) {
      std::vector<float> y(kLen, -7.f), d(kLen, -7.f), in_place = x;
      tk::gelu(x.data() + off, y.data() + off, len);
      tk::gelu_grad(g.data() + off, x.data() + off, d.data() + off, len);
      tk::gelu(in_place.data() + off, in_place.data() + off, len);
      for (std::size_t i = 0; i < kLen; ++i) {
        const bool inside = i >= off && i < off + static_cast<std::size_t>(len);
        ASSERT_TRUE(same_bits(y[i], inside ? want_y[i] : -7.f)) << off << "+" << len << " @" << i;
        ASSERT_TRUE(same_bits(d[i], inside ? want_d[i] : -7.f)) << off << "+" << len << " @" << i;
        ASSERT_TRUE(same_bits(in_place[i], inside ? want_y[i] : x[i])) << "in place @" << i;
      }
    }
}

TEST(GeluKernel, NanPropagates) {
  // NaN in, NaN out: a poisoned activation must surface, never become a
  // finite score. Every position of a 19-long array, so lanes and tail
  // both see the NaN; a NaN upstream gradient must surface too.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t pos = 0; pos < 19; ++pos) {
    std::vector<float> x(19, 0.5f), g(19, 1.f), y(19), d(19), dg(19);
    x[pos] = nan;
    tk::gelu(x.data(), y.data(), 19);
    tk::gelu_grad(g.data(), x.data(), d.data(), 19);
    std::vector<float> finite_u(19, 0.5f), nan_g = g;
    nan_g[pos] = nan;
    tk::gelu_grad(nan_g.data(), finite_u.data(), dg.data(), 19);
    for (std::size_t i = 0; i < 19; ++i) {
      EXPECT_EQ(std::isnan(y[i]), i == pos) << "gelu @" << i;
      EXPECT_EQ(std::isnan(d[i]), i == pos) << "gelu' @" << i;
      EXPECT_EQ(std::isnan(dg[i]), i == pos) << "g·gelu' @" << i;
    }
  }
}

TEST(GeluKernel, SaturationAndInfinities) {
  // Beyond the tanh clamp (|x| ≳ 4.85) the fit is exactly ±1, so for
  // every finite x: gelu(x) = x and gelu'(x) = 1 for x > 0, gelu(x) = -0
  // and gelu'(x) = 0 for x < 0 — also where x³ or x² overflow. ±inf:
  // gelu(+inf) = +inf, gelu(-inf) = NaN (-inf·0), gelu'(±inf) = NaN, so a
  // non-finite input never gives a finite output.
  const float big[] = {4.9f, 5.f, 12.f, 1e10f, 1e20f, std::numeric_limits<float>::max()};
  for (float v : big) {
    EXPECT_TRUE(same_bits(gelu1(v), v)) << v;
    EXPECT_TRUE(same_bits(gelu_grad1(1.f, v), 1.f)) << v;
    EXPECT_TRUE(same_bits(gelu1(-v), -0.f)) << -v;
    EXPECT_TRUE(same_bits(gelu_grad1(1.f, -v), 0.f)) << -v;
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(same_bits(gelu1(inf), inf));
  EXPECT_TRUE(std::isnan(gelu1(-inf)));
  EXPECT_TRUE(std::isnan(gelu_grad1(1.f, inf)));
  EXPECT_TRUE(std::isnan(gelu_grad1(1.f, -inf)));
  EXPECT_EQ(gelu1(0.f), 0.f);
  EXPECT_EQ(gelu_grad1(1.f, 0.f), 0.5f);
}

TEST(GeluKernel, AccuracyAgainstDoubleReference) {
  // Max abs error on [-12, 12] in steps of 1e-4 against the same tanh
  // formula in double precision. Measured: 8.7e-7 (gelu), 4.2e-6 (gelu');
  // libm tanhf in float gave 4.3e-7 for gelu.
  constexpr std::int64_t kHalf = 120000;
  std::vector<float> x(2 * kHalf + 1), ones(x.size(), 1.f), y(x.size()), d(x.size());
  for (std::int64_t i = -kHalf; i <= kHalf; ++i)
    x[static_cast<std::size_t>(i + kHalf)] = static_cast<float>(static_cast<double>(i) * 1e-4);
  const auto n = static_cast<std::int64_t>(x.size());
  tk::gelu(x.data(), y.data(), n);
  tk::gelu_grad(ones.data(), x.data(), d.data(), n);
  const double c = std::sqrt(2.0 / 3.14159265358979323846);
  double err_y = 0, err_d = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    const double t = std::tanh(c * (v + 0.044715 * v * v * v));
    const double dref =
        0.5 * (1 + t) + 0.5 * v * (1 - t * t) * c * (1 + 3 * 0.044715 * v * v);
    err_y = std::max(err_y, std::abs(y[i] - 0.5 * v * (1 + t)));
    err_d = std::max(err_d, std::abs(d[i] - dref));
  }
  EXPECT_LE(err_y, 2e-6);
  EXPECT_LE(err_d, 1e-5);
}

}  // namespace
