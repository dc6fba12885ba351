// Gradient correctness: every differentiable op is checked against
// central finite differences, plus structural autograd behaviours
// (accumulation, reuse, detach boundaries).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tt = taser::tensor;
using taser::util::Rng;
using tt::Tensor;

namespace {

Tensor randn_param(tt::Shape shape, Rng& rng, float stddev = 0.8f) {
  return Tensor::randn(std::move(shape), rng, stddev, /*requires_grad=*/true);
}

void run_check(const std::function<Tensor()>& loss_fn, const std::vector<Tensor>& inputs,
               float eps = 1e-2f, float atol = 2e-2f, float rtol = 6e-2f) {
  auto res = tt::grad_check(loss_fn, inputs, eps, atol, rtol);
  EXPECT_TRUE(res.ok) << res.detail << " (max_abs=" << res.max_abs_err
                      << " max_rel=" << res.max_rel_err << ")";
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor a = Tensor::ones({2}, true);
  Tensor y = tt::mul_scalar(a, 2.f);
  EXPECT_THROW(y.backward(), std::runtime_error);
}

TEST(Autograd, SimpleChainGradient) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3}, true);
  Tensor loss = tt::sum_all(tt::mul_scalar(a, 3.f));
  loss.backward();
  auto g = a.grad();
  ASSERT_TRUE(g.defined());
  EXPECT_FLOAT_EQ(g.data()[0], 3.f);
  EXPECT_FLOAT_EQ(g.data()[1], 3.f);
  EXPECT_FLOAT_EQ(g.data()[2], 3.f);
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  Tensor a = Tensor::ones({1}, true);
  for (int i = 0; i < 2; ++i) {
    Tensor loss = tt::sum_all(tt::mul_scalar(a, 2.f));
    loss.backward();
  }
  EXPECT_FLOAT_EQ(a.grad().data()[0], 4.f);
  a.zero_grad();
  Tensor loss = tt::sum_all(a);
  loss.backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 1.f);
}

TEST(Autograd, DiamondReuseSumsGradients) {
  // loss = sum(a*a + a*a) => d/da = 4a
  Tensor a = Tensor::from_vector({2}, {1.5f, -2.f}, true);
  Tensor sq = tt::mul(a, a);
  Tensor loss = tt::sum_all(tt::add(sq, sq));
  loss.backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 6.f);
  EXPECT_FLOAT_EQ(a.grad().data()[1], -8.f);
}

TEST(Autograd, DetachBlocksGradient) {
  Tensor a = Tensor::from_vector({2}, {1, 2}, true);
  Tensor b = tt::mul_scalar(a, 3.f).detach();
  Tensor loss = tt::sum_all(tt::mul(b, b));
  loss.backward();
  EXPECT_FALSE(a.grad().defined());
}

TEST(Autograd, NoGradInputReceivesNoGradient) {
  Tensor a = Tensor::ones({2}, true);
  Tensor b = Tensor::ones({2});  // no grad
  Tensor loss = tt::sum_all(tt::mul(a, b));
  loss.backward();
  EXPECT_TRUE(a.grad().defined());
  EXPECT_FALSE(b.grad().defined());
}

// add and sub read no operand value in their backward, so a constant
// operand (a mask) is freed with its caller's last handle rather than
// living as long as the tape; mul and div read both operands and keep
// them. Either way the grads are bit-equal to a run where the caller
// holds the constant through backward.
TEST(Autograd, ConstantOperandLivesOnlyAsLongAsTheBackwardReadsIt) {
  const std::vector<float> xv = {0.5f, 1.5f, -2.f, 1.25f, -0.75f, 3.f};
  const std::vector<float> cv = {2.f, -1.f, 0.5f};  // broadcast over rows
  using BinaryOp = Tensor (*)(const Tensor&, const Tensor&);
  struct Case {
    const char* name;
    BinaryOp op;
    bool keeps_constant;
  };
  for (const Case& c : {Case{"add", tt::add, false}, Case{"sub", tt::sub, false},
                        Case{"mul", tt::mul, true}, Case{"div", tt::div, true}}) {
    for (const bool constant_first : {false, true}) {
      SCOPED_TRACE(testing::Message() << c.name << (constant_first ? "(c, x)" : "(x, c)"));
      auto apply = [&](const Tensor& x, const Tensor& cst) {
        return tt::sum_all(tt::square(constant_first ? c.op(cst, x) : c.op(x, cst)));
      };
      Tensor x_ref = Tensor::from_vector({2, 3}, xv, true);
      const Tensor c_ref = Tensor::from_vector({3}, cv);
      apply(x_ref, c_ref).backward();

      Tensor x = Tensor::from_vector({2, 3}, xv, true);
      std::weak_ptr<tt::TensorImpl> watch;
      Tensor loss;
      {
        const Tensor cst = Tensor::from_vector({3}, cv);
        watch = cst.impl();
        loss = apply(x, cst);
      }
      EXPECT_EQ(watch.expired(), !c.keeps_constant);
      loss.backward();
      EXPECT_EQ(x.grad().to_vector(), x_ref.grad().to_vector());
    }
  }
}

// ---- finite-difference checks, one per op family ------------------------

TEST(GradCheck, AddSubBroadcast) {
  Rng rng(11);
  Tensor a = randn_param({2, 3}, rng);
  Tensor b = randn_param({3}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::add(a, b))); }, {a, b});
  run_check([&] { return tt::sum_all(tt::square(tt::sub(a, b))); }, {a, b});
}

TEST(GradCheck, MulDivBroadcast3d) {
  Rng rng(12);
  Tensor a = randn_param({2, 3, 4}, rng);
  Tensor b = randn_param({2, 1, 4}, rng);
  // keep |b| away from 0 for div
  for (std::int64_t i = 0; i < b.numel(); ++i)
    b.data()[i] = b.data()[i] > 0 ? b.data()[i] + 1.f : b.data()[i] - 1.f;
  run_check([&] { return tt::sum_all(tt::mul(a, b)); }, {a, b});
  run_check([&] { return tt::sum_all(tt::div(a, b)); }, {a, b});
}

TEST(GradCheck, UnaryOps) {
  Rng rng(13);
  Tensor a = randn_param({2, 5}, rng);
  run_check([&] { return tt::sum_all(tt::sigmoid(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::tanh_t(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::gelu(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::cos_t(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::sin_t(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::exp_t(tt::mul_scalar(a, 0.3f))); }, {a});
  run_check([&] { return tt::sum_all(tt::square(a)); }, {a});
  run_check([&] { return tt::mean_all(tt::leaky_relu(a, 0.1f)); }, {a});
}

TEST(GradCheck, LogAndSqrtOnPositiveInput) {
  Rng rng(14);
  Tensor a = Tensor::rand_uniform({2, 4}, rng, 0.5f, 2.f, true);
  run_check([&] { return tt::sum_all(tt::log_t(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::sqrt_t(a)); }, {a});
}

TEST(GradCheck, MatmulBoth) {
  Rng rng(15);
  Tensor a = randn_param({3, 4}, rng);
  Tensor b = randn_param({4, 2}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::matmul(a, b))); }, {a, b});
}

TEST(GradCheck, BmmBoth) {
  Rng rng(16);
  Tensor a = randn_param({2, 2, 3}, rng);
  Tensor b = randn_param({2, 3, 2}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::bmm(a, b))); }, {a, b});
}

TEST(GradCheck, LinearAllThree) {
  Rng rng(17);
  Tensor x = randn_param({4, 3}, rng);
  Tensor w = randn_param({3, 2}, rng);
  Tensor b = randn_param({2}, rng);
  run_check([&] { return tt::mean_all(tt::square(tt::linear(x, w, b))); }, {x, w, b});
}

TEST(GradCheck, LinearGeluAllThree) {
  // The fused epilogue's backward (gelu' folded into the gradient stream
  // before the two grad GEMMs) against finite differences.
  Rng rng(47);
  Tensor x = randn_param({5, 3}, rng);
  Tensor w = randn_param({3, 4}, rng);
  Tensor b = randn_param({4}, rng);
  run_check([&] { return tt::mean_all(tt::square(tt::linear_gelu(x, w, b))); },
            {x, w, b});
}

TEST(GradCheck, LinearGeluNoBias) {
  Rng rng(49);
  Tensor x = randn_param({3, 4}, rng);
  Tensor w = randn_param({4, 3}, rng);
  run_check([&] { return tt::mean_all(tt::square(tt::linear_gelu(x, w, Tensor()))); },
            {x, w});
}

TEST(GradCheck, Reductions) {
  Rng rng(18);
  Tensor a = randn_param({3, 4}, rng);
  run_check([&] { return tt::mean_all(tt::square(a)); }, {a});
  run_check([&] { return tt::sum_all(tt::square(tt::sum_dim(a, 0))); }, {a});
  run_check([&] { return tt::sum_all(tt::square(tt::mean_dim(a, 1))); }, {a});
  Tensor b = randn_param({2, 3, 2}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::sum_dim(b, 1))); }, {b});
}

TEST(GradCheck, SoftmaxAndLogSoftmax) {
  Rng rng(19);
  Tensor a = randn_param({3, 5}, rng);
  Tensor weights = Tensor::randn({3, 5}, rng);  // fixed mixing weights
  run_check([&] { return tt::sum_all(tt::mul(tt::softmax_lastdim(a), weights)); }, {a});
  run_check([&] { return tt::sum_all(tt::mul(tt::log_softmax_lastdim(a), weights)); },
            {a});
}

TEST(GradCheck, LayerNorm) {
  Rng rng(20);
  Tensor x = randn_param({3, 6}, rng);
  Tensor gamma = Tensor::rand_uniform({6}, rng, 0.5f, 1.5f, true);
  Tensor beta = randn_param({6}, rng, 0.3f);
  Tensor weights = Tensor::randn({3, 6}, rng);
  run_check(
      [&] {
        return tt::sum_all(tt::mul(tt::layer_norm_lastdim(x, gamma, beta), weights));
      },
      {x, gamma, beta}, 1e-2f, 3e-2f, 8e-2f);
}

TEST(GradCheck, ShapeOps) {
  Rng rng(21);
  Tensor a = randn_param({2, 6}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::reshape(a, {3, 4}))); }, {a});
  run_check([&] { return tt::sum_all(tt::square(tt::transpose2d(a))); }, {a});
  Tensor b = randn_param({2, 3, 2}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::permute_021(b))); }, {b});
  run_check([&] { return tt::sum_all(tt::square(tt::slice_lastdim(a, 1, 3))); }, {a});
}

TEST(GradCheck, ConcatOps) {
  Rng rng(22);
  Tensor a = randn_param({2, 2}, rng);
  Tensor b = randn_param({2, 3}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::concat_lastdim({a, b}))); }, {a, b});
  Tensor c = randn_param({1, 4}, rng);
  Tensor d = randn_param({2, 4}, rng);
  run_check([&] { return tt::sum_all(tt::square(tt::concat_dim0({c, d}))); }, {c, d});
}

TEST(GradCheck, IndexSelectScatterAdds) {
  Rng rng(23);
  Tensor a = randn_param({4, 2}, rng);
  const std::vector<std::int64_t> idx = {1, 1, 3, 0};
  run_check([&] { return tt::sum_all(tt::square(tt::index_select0(a, idx))); }, {a});
}

TEST(GradCheck, BceWithLogits) {
  Rng rng(24);
  Tensor z = randn_param({6}, rng);
  Tensor y = Tensor::from_vector({6}, {1, 0, 1, 0, 1, 1});
  run_check([&] { return tt::bce_with_logits_mean(z, y); }, {z});
}

TEST(GradCheck, CompositeAttentionShapedExpression) {
  // Mimics the TGAT attention data flow: softmax(q·K)·V through
  // broadcast-mul + reductions, the exact op pattern used by the model.
  Rng rng(25);
  const std::int64_t B = 2, n = 3, d = 4;
  Tensor q = randn_param({B, 1, d}, rng);
  Tensor K = randn_param({B, n, d}, rng);
  Tensor V = randn_param({B, n, d}, rng);
  auto loss_fn = [&] {
    Tensor scores = tt::sum_dim(tt::mul(K, q), -1);           // [B, n]
    Tensor attn = tt::softmax_lastdim(scores);                // [B, n]
    Tensor attn3 = tt::reshape(attn, {B, n, 1});              // [B, n, 1]
    Tensor out = tt::sum_dim(tt::mul(V, attn3), 1);           // [B, d]
    return tt::sum_all(tt::square(out));
  };
  run_check(loss_fn, {q, K, V});
}

}  // namespace
