#include <cmath>
#include <type_traits>

#include "tensor/broadcast.h"
#include "tensor/counters.h"
#include "tensor/gelu_kernel.h"
#include "tensor/ops.h"

namespace taser::tensor {

namespace {

using detail::BroadcastPlan;
using detail::broadcast_apply;
using detail::broadcast_visit;
using detail::make_broadcast_plan;

/// Shared driver for broadcast binary ops. `fwd(a,b)` computes the value;
/// `dfa` / `dfb` compute the per-element contribution to each input's
/// gradient (accumulated through the broadcast plan, which realises the
/// sum-over-broadcast-dims reduction for free). A derivative that reads
/// the operands takes `(g, a, b)` (mul, div) and the backward keeps both
/// operands; one that takes `g` alone (add, sub) reads neither, and the
/// backward keeps only the operands that take a grad, so a constant
/// operand (a mask) is freed with its caller's last handle instead of
/// living as long as the tape.
template <typename Fwd, typename Dfa, typename Dfb>
Tensor binary_op(const Tensor& a, const Tensor& b, Fwd fwd, Dfa dfa, Dfb dfb) {
  constexpr bool kReadsOperands = !std::is_invocable_v<Dfa, float>;
  static_assert(kReadsOperands == !std::is_invocable_v<Dfb, float>,
                "both derivatives read the operands, or neither does");
  BroadcastPlan plan = make_broadcast_plan(a.shape(), b.shape());
  OpCounters::add_flops(static_cast<std::uint64_t>(plan.out_numel));
  Tensor out = make_result(plan.out_shape, {a, b});
  broadcast_apply(plan, a.data(), b.data(), out.data(), fwd);

  if (out.requires_grad()) {
    ImplPtr ia = kReadsOperands || a.requires_grad() ? a.impl() : nullptr;
    ImplPtr ib = kReadsOperands || b.requires_grad() ? b.impl() : nullptr;
    out.node().backward_fn = [plan, ia, ib, dfa, dfb](TensorImpl& self) {
      const bool need_a = ia && ia->requires_grad;
      const bool need_b = ib && ib->requires_grad;
      if (need_a) ia->ensure_grad();
      if (need_b) ib->ensure_grad();
      const float* g = self.grad.data();
      float* ga = need_a ? ia->grad.data() : nullptr;
      float* gb = need_b ? ib->grad.data() : nullptr;
      if constexpr (kReadsOperands) {
        const float* av = ia->data.data();
        const float* bv = ib->data.data();
        broadcast_visit(plan, [&](std::int64_t i, std::int64_t oa, std::int64_t ob) {
          if (need_a) ga[oa] += dfa(g[i], av[oa], bv[ob]);
          if (need_b) gb[ob] += dfb(g[i], av[oa], bv[ob]);
        });
      } else {
        broadcast_visit(plan, [&](std::int64_t i, std::int64_t oa, std::int64_t ob) {
          if (need_a) ga[oa] += dfa(g[i]);
          if (need_b) gb[ob] += dfb(g[i]);
        });
      }
    };
  }
  return out;
}

template <typename Fwd, typename Dfdy>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfdy dfdy) {
  OpCounters::add_flops(static_cast<std::uint64_t>(a.numel()));
  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) ov[i] = fwd(av[i]);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, dfdy](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* x = ia->data.data();
      const float* y = self.data.data();
      float* gi = ia->grad.data();
      const std::int64_t n2 = self.numel();
      for (std::int64_t i = 0; i < n2; ++i) gi[i] += g[i] * dfdy(x[i], y[i]);
    };
  }
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x + y; }, [](float g) { return g; },
      [](float g) { return g; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x - y; }, [](float g) { return g; },
      [](float g) { return -g; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x * y; },
      [](float g, float, float y) { return g * y; },
      [](float g, float x, float) { return g * x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x / y; },
      [](float g, float, float y) { return g / y; },
      [](float g, float x, float y) { return -g * x / (y * y); });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.f); }

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0 ? x : 0.f; },
      [](float x, float) { return x > 0 ? 1.f : 0.f; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary_op(
      a, [negative_slope](float x) { return x > 0 ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0 ? 1.f : negative_slope; });
}

Tensor gelu(const Tensor& a) {
  // The array kernels of the fused GEMM epilogue and the fused linear
  // backward (linear_gelu): the paths are bit-identical by construction.
  OpCounters::add_flops(static_cast<std::uint64_t>(a.numel()));
  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  kernels::for_chunks(a.numel(), [&](std::int64_t lo, std::int64_t hi) {
    kernels::gelu(av + lo, ov + lo, hi - lo);
  });

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* x = ia->data.data();
      float* gi = ia->grad.data();
      kernels::for_chunks(self.numel(), [&](std::int64_t lo, std::int64_t hi) {
        float gx[kernels::kChunk];
        kernels::gelu_grad(g + lo, x + lo, gx, hi - lo);
        for (std::int64_t i = lo; i < hi; ++i) gi[i] += gx[i - lo];
      });
    };
  }
  return out;
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a,
      [](float x) {
        return x >= 0 ? 1.f / (1.f + std::exp(-x))
                      : std::exp(x) / (1.f + std::exp(x));
      },
      [](float, float y) { return y * (1.f - y); });
}

Tensor tanh_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.f - y * y; });
}

Tensor exp_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Tensor log_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x < 1e-12f ? 1e-12f : x); },
      [](float x, float) { return 1.f / (x < 1e-12f ? 1e-12f : x); });
}

Tensor cos_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); });
}

Tensor sin_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sin(x); },
      [](float x, float) { return std::cos(x); });
}

Tensor sqrt_t(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / (y > 1e-12f ? y : 1e-12f); });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.f * x; });
}

Tensor dropout(const Tensor& a, float p, bool training, util::Rng& rng) {
  TASER_CHECK_MSG(p >= 0.f && p < 1.f, "dropout p=" << p);
  if (!training || p == 0.f) return a;
  const float scale = 1.f / (1.f - p);
  auto mask = std::make_shared<std::vector<float>>(static_cast<std::size_t>(a.numel()));
  for (auto& m : *mask) m = rng.next_float() < p ? 0.f : scale;

  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) ov[i] = av[i] * (*mask)[static_cast<std::size_t>(i)];

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, mask](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      const std::int64_t n2 = self.numel();
      for (std::int64_t i = 0; i < n2; ++i)
        gi[i] += g[i] * (*mask)[static_cast<std::size_t>(i)];
    };
  }
  return out;
}

}  // namespace taser::tensor
