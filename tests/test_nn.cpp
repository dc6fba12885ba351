// NN layer semantics: module registry, Linear/LayerNorm/MLP/MixerBlock
// shapes and gradients, time/frequency encodings (Eq. 3, 8, 12), Adam
// convergence and gradient clipping.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "nn/adam.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/mixer.h"
#include "nn/mlp.h"
#include "nn/time_encoding.h"
#include "tensor/counters.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

using namespace taser;
using namespace taser::nn;
namespace tt = taser::tensor;
using tt::Tensor;

namespace {

TEST(ModuleRegistry, ParametersFlattenSubtree) {
  util::Rng rng(1);
  Mlp mlp(4, 8, 2, rng);
  // fc1: W+b, fc2: W+b.
  EXPECT_EQ(mlp.parameters().size(), 4u);
  EXPECT_EQ(mlp.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2);
  auto named = mlp.named_parameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
  for (auto& [name, p] : named) EXPECT_TRUE(p.requires_grad());
}

TEST(ModuleRegistry, SetTrainingPropagates) {
  util::Rng rng(2);
  Mlp mlp(2, 4, 2, rng);
  EXPECT_TRUE(mlp.training());
  mlp.set_training(false);
  EXPECT_FALSE(mlp.training());
}

TEST(LinearLayer, ForwardMatchesManualGemm) {
  util::Rng rng(3);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::from_vector({1, 3}, {1, 2, 3});
  Tensor y = lin.forward(x);
  const float* w = lin.weight().data();
  const float* b = lin.bias().data();
  for (int j = 0; j < 2; ++j) {
    const float expect = 1 * w[0 * 2 + j] + 2 * w[1 * 2 + j] + 3 * w[2 * 2 + j] + b[j];
    EXPECT_NEAR(y.data()[j], expect, 1e-5f);
  }
}

TEST(LinearLayer, NoBiasVariant) {
  util::Rng rng(4);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Tensor y = lin.forward(Tensor::zeros({2, 3}));
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 0.f);
}

TEST(MixerBlock, PreservesShapeAndMixesTokens) {
  util::Rng rng(5);
  MixerBlock mixer(4, 6, rng);
  Tensor x = Tensor::randn({3, 4, 6}, rng, 1.f, true);
  Tensor y = mixer.forward(x);
  EXPECT_EQ(y.shape(), (tt::Shape{3, 4, 6}));

  // Token mixing means token 0's output depends on token 3's input.
  Tensor x2 = x.clone();
  x2.data()[3 * 6 + 0] += 1.f;  // batch 0, token 3, channel 0
  Tensor y2 = mixer.forward(x2);
  float delta_token0 = 0;
  for (int c = 0; c < 6; ++c) delta_token0 += std::abs(y2.at({0, 0, c}) - y.at({0, 0, c}));
  EXPECT_GT(delta_token0, 1e-6f);
}

TEST(MlpLayer, ForwardMatchesUnfusedCompositionBitwise) {
  // Mlp now rides the fused linear_gelu node; it must equal the unfused
  // fc2(gelu(fc1(x))) composition exactly.
  util::Rng rng(31);
  Mlp mlp(5, 8, 3, rng);
  auto params = mlp.parameters();  // fc1.w, fc1.b, fc2.w, fc2.b
  ASSERT_EQ(params.size(), 4u);
  Tensor x = Tensor::randn({7, 5}, rng);
  Tensor fused = mlp.forward(x);
  Tensor unfused = tt::linear(
      tt::gelu(tt::linear(x, params[0], params[1])), params[2], params[3]);
  ASSERT_EQ(fused.numel(), unfused.numel());
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    EXPECT_EQ(fused.data()[i], unfused.data()[i]) << "at " << i;
}

TEST(MixerBlock, RejectsWrongTokenCount) {
  util::Rng rng(6);
  MixerBlock mixer(4, 6, rng);
  EXPECT_THROW(mixer.forward(Tensor::zeros({2, 5, 6})), std::runtime_error);
}

TEST(MixerBlock, GradCheck) {
  util::Rng rng(7);
  MixerBlock mixer(3, 4, rng);
  Tensor x = Tensor::randn({2, 3, 4}, rng, 0.5f, true);
  auto res = tt::grad_check(
      [&] { return tt::mean_all(tt::square(mixer.forward(x))); }, {x}, 1e-2f, 3e-2f,
      8e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(MixerBlock, GradCheckParameters) {
  // The hand-written backward's parameter grads against finite
  // differences (GradCheck above covers the input grad).
  util::Rng rng(17);
  MixerBlock mixer(3, 4, rng);
  Tensor x = Tensor::randn({2, 3, 4}, rng, 0.5f, true);
  auto res = tt::grad_check(
      [&] { return tt::mean_all(tt::square(mixer.forward(x))); }, mixer.parameters(), 1e-2f,
      3e-2f, 8e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

// ---- MixerBlock's one node against the composition it replaced -----------

/// MixerBlock as the composition of public ops that its autograd node
/// replaced: the reference for its bits and its FLOP ledger. Token fc1
/// reads the materialized permute_021 of ln_token(x). The replaced op ran
/// it as one [C, T]·[T, Ht] product per block, so it summed W1's
/// gradient block by block; one GEMM over all B·C rows rounds that sum
/// differently. With `per_block_fc1` token fc1 is therefore a bmm against
/// W1 broadcast over blocks, plus the bias, then GELU: the replaced op's
/// values and gradient sums, though not its FLOP count (the broadcast and
/// the bias add count as ops). Without it, linear_gelu: the FLOP count.
Tensor unfused_mixer(const MixerBlock& mixer, const Tensor& x, bool per_block_fc1) {
  std::map<std::string, Tensor> p;
  for (auto& [name, t] : mixer.named_parameters()) p[name] = t;
  const std::int64_t B = x.size(0), T = x.size(1);
  Tensor w1 = p["token_mlp.fc1.weight"], b1 = p["token_mlp.fc1.bias"];
  Tensor ln1 = tt::layer_norm_lastdim(x, p["ln_token.gamma"], p["ln_token.beta"]);
  Tensor h1 = per_block_fc1
                  ? tt::gelu(tt::add(tt::bmm(tt::permute_021(ln1),
                                             tt::add(Tensor::zeros({B, T, w1.size(1)}), w1)),
                                     b1))
                  : tt::linear_gelu(tt::permute_021(ln1), w1, b1);
  Tensor t = tt::linear(h1, p["token_mlp.fc2.weight"], p["token_mlp.fc2.bias"]);
  Tensor x1 = tt::add(x, tt::permute_021(t));
  Tensor ln2 = tt::layer_norm_lastdim(x1, p["ln_channel.gamma"], p["ln_channel.beta"]);
  Tensor c = tt::linear(
      tt::linear_gelu(ln2, p["channel_mlp.fc1.weight"], p["channel_mlp.fc1.bias"]),
      p["channel_mlp.fc2.weight"], p["channel_mlp.fc2.bias"]);
  return tt::add(x1, c);
}

using BlockFn = std::function<Tensor(const Tensor&)>;

/// Backpropagates a loss over one or more applications of `block` and
/// returns collect() of it.
using Scenario = std::function<std::vector<float>(MixerBlock&, const BlockFn&)>;

/// The block outputs' values, the grad of the leaf `x0` the inputs derive
/// from and every parameter's grad, concatenated.
std::vector<float> collect(const std::vector<Tensor>& outputs, const Tensor& x0,
                           const MixerBlock& mixer) {
  std::vector<float> v;
  auto put = [&v](const Tensor& t) {
    ASSERT_TRUE(t.defined());
    v.insert(v.end(), t.data(), t.data() + t.numel());
  };
  for (const Tensor& y : outputs) put(y);
  put(x0.grad());
  for (auto& [name, p] : mixer.named_parameters()) put(p.grad());
  return v;
}

/// Runs `scenario` through the fused node and through the reference, at
/// OpenMP team sizes 1, 3 and 4, and requires all six to agree bit for bit.
void expect_fused_matches_unfused(std::int64_t B, std::int64_t T, std::int64_t C,
                                  const Scenario& scenario) {
  SCOPED_TRACE(testing::Message() << "[" << B << ", " << T << ", " << C << "]");
  util::Rng rng(101);
  MixerBlock mixer(T, C, rng);
  // Non-trivial affine parameters, so every LayerNorm term is exercised.
  for (auto& [name, p] : mixer.named_parameters())
    if (name.find("ln_") == 0)
      for (std::int64_t i = 0; i < p.numel(); ++i) p.data()[i] += 0.3f * rng.next_normal();
  const BlockFn fused = [&mixer](const Tensor& x) { return mixer.forward(x); };
  const BlockFn unfused = [&mixer](const Tensor& x) { return unfused_mixer(mixer, x, true); };

  const int saved_threads = omp_get_max_threads();
  std::vector<std::vector<float>> runs;
  for (int threads : {1, 3, 4}) {
    omp_set_num_threads(threads);
    for (const BlockFn* f : {&fused, &unfused}) {
      mixer.zero_grad();
      runs.push_back(scenario(mixer, *f));
    }
  }
  omp_set_num_threads(saved_threads);
  const char* names[] = {"fused@1", "unfused@1", "fused@3", "unfused@3", "fused@4", "unfused@4"};
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size()) << names[r];
    ASSERT_EQ(0, std::memcmp(runs[r].data(), runs[0].data(), runs[0].size() * sizeof(float)))
        << names[r] << " differs from fused@1";
  }
}

/// loss = Σ y ⊙ R for a fixed random R, so dL/dy = R.
Tensor weighted_sum(const Tensor& y, std::uint64_t seed) {
  util::Rng rng(seed);
  return tt::sum_all(tt::mul(y, Tensor::randn(y.shape(), rng)));
}

// The sampler-trunk and GraphMixer shapes use enough blocks that every
// weight-gradient GEMM takes the streamed (k-blocked) regime, as at the
// training shapes ([1920, 10, 58] and [1800, 10, 100]).
const std::int64_t kShapes[][3] = {{5, 3, 13}, {840, 10, 58}, {480, 10, 100}};

TEST(MixerBlock, FusedMatchesUnfusedBitwise) {
  for (const auto& s : kShapes) {
    const std::int64_t B = s[0], T = s[1], C = s[2];
    expect_fused_matches_unfused(B, T, C, [B](MixerBlock& m, const BlockFn& block) {
      util::Rng rng(3);
      Tensor x = Tensor::randn({B, m.tokens(), m.channels()}, rng, 1.f, true);
      Tensor y = block(x);
      weighted_sum(y, 4).backward();
      return collect({y}, x, m);
    });
  }
}

TEST(MixerBlock, FusedMatchesUnfusedWithSharedParameters) {
  // Two applications in one loss, as the sampler's two hops share one
  // trunk in the sample loss: each parameter's two contributions must
  // land in the order the unfused graph's DFS reaches them.
  for (const auto& s : kShapes) {
    const std::int64_t B = s[0], T = s[1], C = s[2];
    expect_fused_matches_unfused(B, T, C, [B](MixerBlock& m, const BlockFn& block) {
      util::Rng rng(5);
      Tensor x0 = Tensor::randn({2 * B, m.tokens(), m.channels()}, rng, 1.f, true);
      std::vector<std::int64_t> first(static_cast<std::size_t>(B)), second(first.size());
      for (std::int64_t i = 0; i < B; ++i) {
        first[static_cast<std::size_t>(i)] = i;
        second[static_cast<std::size_t>(i)] = B + i;
      }
      Tensor ya = block(tt::index_select0(x0, first));
      Tensor yb = block(tt::index_select0(x0, second));
      tt::add(weighted_sum(ya, 6), weighted_sum(yb, 7)).backward();
      return collect({ya, yb}, x0, m);
    });
  }
}

TEST(MixerBlock, FusedMatchesUnfusedWhenInputHasSecondConsumer) {
  // x feeds the block and another op: x's grad gathers three shares (the
  // residual, ln_token and the other consumer), in the unfused order,
  // whichever side of the loss the other consumer sits on.
  for (bool other_first : {false, true}) {
    SCOPED_TRACE(other_first ? "other consumer first" : "block first");
    for (const auto& s : kShapes) {
      const std::int64_t B = s[0], T = s[1], C = s[2];
      expect_fused_matches_unfused(B, T, C, [B, other_first](MixerBlock& m,
                                                             const BlockFn& block) {
        util::Rng rng(8);
        Tensor x0 = Tensor::randn({B, m.tokens(), m.channels()}, rng, 1.f, true);
        Tensor x = tt::mul_scalar(x0, 1.5f);
        Tensor y = block(x);
        Tensor other = weighted_sum(tt::square(x), 9);
        Tensor mine = weighted_sum(y, 10);
        (other_first ? tt::add(other, mine) : tt::add(mine, other)).backward();
        return collect({y}, x0, m);
      });
    }
  }
}

TEST(MixerBlock, FusedKeepsTheCompositionsFlopLedger) {
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message() << "[" << s[0] << ", " << s[1] << ", " << s[2] << "]");
    util::Rng rng(11);
    MixerBlock mixer(s[1], s[2], rng);
    Tensor x = Tensor::randn({s[0], s[1], s[2]}, rng, 1.f, true);
    std::uint64_t fwd[2], bwd[2];
    for (int unfused = 0; unfused < 2; ++unfused) {
      tt::OpCounterSnapshot f;
      Tensor y = unfused ? unfused_mixer(mixer, x, false) : mixer.forward(x);
      fwd[unfused] = f.flops();
      tt::OpCounterSnapshot b;
      tt::sum_all(y).backward();
      bwd[unfused] = b.flops();
    }
    EXPECT_EQ(fwd[0], fwd[1]);
    EXPECT_EQ(bwd[0], bwd[1]);
  }
}

TEST(MixerBlock, OneTapeNodeAndNoneUnderNoGrad) {
  util::Rng rng(12);
  MixerBlock mixer(10, 58, rng);
  Tensor x = Tensor::randn({64, 10, 58}, rng, 1.f, true);
  const std::uint64_t n0 = tt::OpCounters::thread_tape_nodes();
  Tensor taped = mixer.forward(x);
  EXPECT_EQ(tt::OpCounters::thread_tape_nodes() - n0, 1u);
  Tensor plain;
  {
    tt::NoGradGuard no_grad;
    const std::uint64_t n1 = tt::OpCounters::thread_tape_nodes();
    plain = mixer.forward(x);
    EXPECT_EQ(tt::OpCounters::thread_tape_nodes(), n1);
  }
  EXPECT_FALSE(plain.requires_grad());
  EXPECT_TRUE(plain.node().parents.empty());
  EXPECT_FALSE(plain.node().backward_fn);
  ASSERT_EQ(plain.numel(), taped.numel());
  EXPECT_EQ(0, std::memcmp(plain.data(), taped.data(),
                           static_cast<std::size_t>(taped.numel()) * sizeof(float)));
}

TEST(TimeEncoding, LearnableMatchesCosForm) {
  util::Rng rng(8);
  LearnableTimeEncoding enc(6, rng);
  Tensor dt = Tensor::from_vector({2}, {0.f, 1.5f});
  Tensor phi = enc.forward(dt);
  EXPECT_EQ(phi.shape(), (tt::Shape{2, 6}));
  // Φ(0) = cos(b); with b initialised to zero, Φ(0) = 1.
  for (int k = 0; k < 6; ++k) EXPECT_NEAR(phi.at({0, k}), 1.f, 1e-5f);
  for (int k = 0; k < 6; ++k) {
    EXPECT_LE(phi.at({1, k}), 1.f + 1e-5f);
    EXPECT_GE(phi.at({1, k}), -1.f - 1e-5f);
  }
}

TEST(TimeEncoding, LearnableIsTrainable) {
  util::Rng rng(9);
  LearnableTimeEncoding enc(4, rng);
  EXPECT_EQ(enc.parameters().size(), 2u);
  Tensor dt = Tensor::from_vector({3}, {0.5f, 1.f, 2.f});
  Tensor loss = tt::sum_all(tt::square(enc.forward(dt)));
  loss.backward();
  bool any = false;
  for (auto& p : enc.parameters()) {
    auto g = p.grad();
    if (g.defined())
      for (float v : g.to_vector())
        if (v != 0.f) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(TimeEncoding, FixedSpansMultipleTimescales) {
  FixedTimeEncoding enc(8);
  std::vector<float> small(8), large(8);
  enc.encode(0.01f, small.data());
  enc.encode(100.f, large.data());
  // Tiny ∆t: every band still reads ~cos(0) = 1.
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(small[i], 1.f, 0.02f);
  // Large ∆t: the bands de-cohere (geometric frequency ladder, Eq. 8),
  // so the response is no longer the constant-1 vector.
  float spread = 0.f;
  for (int i = 0; i < 8; ++i) spread = std::max(spread, std::abs(large[i] - 1.f));
  EXPECT_GT(spread, 0.5f);
  // Frequencies decay monotonically: ω_0 > ω_7.
  FixedTimeEncoding probe(8);
  std::vector<float> quarter(8);
  probe.encode(1.57f, quarter.data());  // ~π/2 for ω=1
  EXPECT_LT(quarter[0], quarter[7]);    // fast band has rotated further
}

TEST(FrequencyEncoding, PrecomputedDenominatorsBitwiseMatchPowPerElement) {
  // The constructor precomputes the per-dim 10000^expo denominators; the
  // hot loop must stay bitwise-equivalent to the seed's inline
  // std::pow-per-element formulation across dims (odd ones included) and
  // a grid of appearance counts.
  for (std::int64_t dim : {2, 5, 8, 16, 100}) {
    FrequencyEncoding enc(dim);
    std::vector<float> fast(static_cast<std::size_t>(dim)),
        ref(static_cast<std::size_t>(dim));
    for (float freq : {0.f, 1.f, 2.f, 3.f, 7.f, 25.f, 1000.f, 0.5f}) {
      enc.encode(freq, fast.data());
      for (std::int64_t i = 0; i < dim; ++i) {
        // Old path, verbatim.
        const float expo =
            static_cast<float>(2 * ((i / 2) + 1)) / static_cast<float>(dim);
        const float denom = std::pow(10000.f, expo);
        ref[static_cast<std::size_t>(i)] =
            (i % 2 == 0) ? std::sin(freq / denom) : std::cos(freq / denom);
      }
      ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(),
                               static_cast<std::size_t>(dim) * sizeof(float)))
          << "dim=" << dim << " freq=" << freq;
    }
  }
}

TEST(FrequencyEncoding, DistinguishesCounts) {
  FrequencyEncoding enc(8);
  std::vector<float> f1(8), f5(8), f5b(8);
  enc.encode(1.f, f1.data());
  enc.encode(5.f, f5.data());
  enc.encode(5.f, f5b.data());
  EXPECT_EQ(f5, f5b);  // deterministic
  float diff = 0;
  for (int i = 0; i < 8; ++i) diff += std::abs(f1[i] - f5[i]);
  EXPECT_GT(diff, 0.1f);
}

TEST(AdamOptimizer, ConvergesOnQuadratic) {
  // minimise ||x - target||^2
  Tensor x = Tensor::from_vector({3}, {5.f, -3.f, 2.f}, true);
  Tensor target = Tensor::from_vector({3}, {1.f, 1.f, 1.f});
  Adam opt({x}, 0.1f);
  for (int step = 0; step < 300; ++step) {
    opt.zero_grad();
    Tensor loss = tt::sum_all(tt::square(tt::sub(x, target)));
    loss.backward();
    opt.step();
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x.data()[i], 1.f, 0.05f);
  EXPECT_EQ(opt.steps_taken(), 300);
}

TEST(AdamOptimizer, SkipsParamsWithoutGrad) {
  Tensor a = Tensor::ones({2}, true);
  Tensor b = Tensor::ones({2}, true);
  Adam opt({a, b}, 0.5f);
  Tensor loss = tt::sum_all(tt::square(a));
  loss.backward();
  opt.step();
  EXPECT_NE(a.data()[0], 1.f);
  EXPECT_FLOAT_EQ(b.data()[0], 1.f);  // untouched
}

TEST(GradClip, ScalesDownLargeGradients) {
  Tensor x = Tensor::from_vector({2}, {3.f, 4.f}, true);
  Tensor loss = tt::sum_all(tt::mul(x, x));  // grad = 2x = (6, 8), norm 10
  loss.backward();
  const float pre = clip_grad_norm({x}, 1.f);
  EXPECT_NEAR(pre, 10.f, 1e-4f);
  auto g = x.grad().to_vector();
  EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.f, 1e-4f);
}

TEST(GradClip, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::from_vector({2}, {0.01f, 0.02f}, true);
  tt::sum_all(tt::mul(x, x)).backward();
  auto before = x.grad().to_vector();
  clip_grad_norm({x}, 1.f);
  EXPECT_EQ(x.grad().to_vector(), before);
}

}  // namespace
