#include "nn/mixer.h"

#include <omp.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "tensor/counters.h"
#include "tensor/gelu_kernel.h"
#include "tensor/gemm_kernels.h"
#include "tensor/layer_norm_kernel.h"
#include "util/check.h"

namespace taser::nn {

namespace {

namespace gemm = tensor::gemm;
namespace kernels = tensor::kernels;
using gemm::row_major;
using gemm::transposed;
using tensor::ImplPtr;
using tensor::OpCounters;
using tensor::TensorImpl;

/// A float array that is not zero-filled: the node writes every buffer in
/// full before it reads it. Under TASER_DEBUG_CHECKS it starts as NaN, so
/// a read before a write fails the bit-identity suites.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::int64_t n) : data_(new float[static_cast<std::size_t>(n)]), size_(n) {
#ifdef TASER_DEBUG_CHECKS
    std::fill_n(data_.get(), n, std::numeric_limits<float>::quiet_NaN());
#endif
  }
  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::int64_t size() const { return size_; }

 private:
  std::unique_ptr<float[]> data_;
  std::int64_t size_ = 0;
};

/// A GEMM that overwrites C instead of accumulating into it.
constexpr gemm::Epilogue kOverwrite{.beta_zero = true};

/// The node's parents after x, in module order.
enum Param : std::size_t {
  kLn1Gamma, kLn1Beta, kTok1W, kTok1B, kTok2W, kTok2B,
  kLn2Gamma, kLn2Beta, kCh1W, kCh1B, kCh2W, kCh2B, kNumParams
};
using Params = std::array<ImplPtr, kNumParams>;

/// B blocks of T tokens by C channels; Ht and Hc are the token- and
/// channel-MLP hidden widths.
struct Dims {
  std::int64_t B, T, C, Ht, Hc;
  std::int64_t rows() const { return B * T; }  ///< channel-MLP rows
  std::int64_t cols() const { return B * C; }  ///< token-MLP rows
  std::int64_t numel() const { return B * T * C; }
};

/// What the backward reads besides x and the output's grad.
struct Saved {
  Buffer stats1, stats2;  ///< [B*T, 2] (mean, rstd) of ln_token(x), ln_channel(x1)
  Buffer u1;              ///< [B, C, Ht] token-MLP fc1 pre-activation
  Buffer x1;              ///< [B, T, C] residual midpoint
  Buffer u2;              ///< [B*T, Hc] channel-MLP fc1 pre-activation
};

std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

/// Runs fn(b) for each of `blocks` blocks of `per` elements, split across
/// the team when large. Every element is written by exactly one block, so
/// the split never changes a bit.
template <typename Fn>
void for_blocks(std::int64_t blocks, std::int64_t per, Fn fn) {
  const bool par = !omp_in_parallel() && blocks > 1 && blocks * per > (1 << 14);
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t b = 0; b < blocks; ++b) fn(b);
}

/// h = gelu(u): the GEMM epilogue's activation, recomputed.
void gelu_from(const Buffer& u, Buffer& h) {
  kernels::for_chunks(u.size(), [&](std::int64_t lo, std::int64_t hi) {
    kernels::gelu(u.data() + lo, h.data() + lo, hi - lo);
  });
}

/// g ⊙= gelu'(u) in place: the fused linear_gelu backward's first step.
void gelu_grad_inplace(Buffer& g, const Buffer& u) {
  kernels::for_chunks(g.size(), [&](std::int64_t lo, std::int64_t hi) {
    kernels::gelu_grad(g.data() + lo, u.data() + lo, g.data() + lo, hi - lo);
  });
}

/// A parent's grad buffer (allocated on first use), or null when it
/// needs none.
float* grad_of(TensorImpl& t) {
  if (!t.requires_grad) return nullptr;
  t.ensure_grad();
  return t.grad.data();
}

/// The composition's backward, node by node in its reverse topological
/// order (out, c, h2, ln2, x1, pt, t, h1, ln1), with each node's GEMM
/// calls and operand views. Every interior node requires grad (the
/// parameters do), so every interior grad is computed; x and a parameter
/// receive theirs when they require it. Signed zeros aside (every grad
/// below ends in a sum that starts at +0), a node's grad buffer equals the
/// grad handed to it, so `g` stands in for c's and pt's grads, and x1's
/// starts as a copy of it.
void mixer_backward(const float* g, TensorImpl& x, const Params& p, const Saved& s,
                    const Dims& d) {
  const std::int64_t rows = d.rows(), cols = d.cols(), n = d.numel();
  const std::int64_t T = d.T, C = d.C, Ht = d.Ht, Hc = d.Hc;
  const auto w = [&p](Param k) { return p[k]->data.data(); };

  // c = h2·W4 + b4. `h` holds h2 for dW4, then dL/dh2, then dL/du2.
  Buffer gln(n);  // dL/d ln_channel(x1)
  {
    Buffer h(rows * Hc);
    if (float* gw = grad_of(*p[kCh2W])) {
      gelu_from(s.u2, h);
      OpCounters::add_flops(u64(2 * Hc * rows * C));
      gemm::gemm_acc(transposed(h.data(), Hc), row_major(g, C), gw, Hc, rows, C);
    }
    OpCounters::add_flops(u64(2 * rows * C * Hc));
    gemm::gemm_acc(row_major(g, C), transposed(w(kCh2W), C), h.data(), rows, C, Hc, kOverwrite);
    if (float* gb = grad_of(*p[kCh2B])) gemm::bias_grad_acc(g, gb, rows, C);

    // h2 = gelu(u2), u2 = ln2·W3 + b3.
    gelu_grad_inplace(h, s.u2);
    OpCounters::add_flops(u64(2 * rows * Hc * C));
    gemm::gemm_acc(row_major(h.data(), Hc), transposed(w(kCh1W), Hc), gln.data(), rows, Hc, C,
                   kOverwrite);
    if (float* gw = grad_of(*p[kCh1W])) {
      Buffer ln(n);
      kernels::layer_norm_apply(s.x1.data(), s.stats2.data(), w(kLn2Gamma), w(kLn2Beta),
                                ln.data(), rows, C);
      OpCounters::add_flops(u64(2 * C * rows * Hc));
      gemm::gemm_acc(transposed(ln.data(), C), row_major(h.data(), Hc), gw, C, rows, Hc);
    }
    if (float* gb = grad_of(*p[kCh1B])) gemm::bias_grad_acc(h.data(), gb, rows, Hc);
  }

  // ln2 = ln_channel(x1): γ2/β2 grads and x1's second share.
  Buffer gx1(n);
  kernels::for_chunks(n, [&](std::int64_t lo, std::int64_t hi) {
    std::copy(g + lo, g + hi, gx1.data() + lo);
  });
  kernels::layer_norm_grad(gln.data(), s.x1.data(), w(kLn2Gamma), s.stats2.data(), gx1.data(),
                           grad_of(*p[kLn2Gamma]), grad_of(*p[kLn2Beta]), rows, C);

  // x1 = x + pt: x takes its first share, pt = permute_021(t) all of it.
  if (float* gx = grad_of(x))
    kernels::for_chunks(n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) gx[i] += gx1.data()[i];
    });
  Buffer gt(n);  // dL/dt, [B, C, T]
  for_blocks(d.B, T * C, [&](std::int64_t b) {
    const float* src = gx1.data() + b * T * C;
    float* dst = gt.data() + b * C * T;
    for (std::int64_t i = 0; i < T; ++i)
      for (std::int64_t j = 0; j < C; ++j) dst[j * T + i] = src[i * C + j];
  });
  gx1 = Buffer();

  // t = h1·W2 + b2 over the [B*C, Ht] rows of h1. `h` holds h1 for dW2,
  // then dL/dh1, then dL/du1.
  Buffer h(cols * Ht);
  if (float* gw = grad_of(*p[kTok2W])) {
    gelu_from(s.u1, h);
    OpCounters::add_flops(u64(2 * Ht * cols * T));
    gemm::gemm_acc(transposed(h.data(), Ht), row_major(gt.data(), T), gw, Ht, cols, T);
  }
  OpCounters::add_flops(u64(2 * cols * T * Ht));
  gemm::gemm_acc(row_major(gt.data(), T), transposed(w(kTok2W), T), h.data(), cols, T, Ht,
                 kOverwrite);
  if (float* gb = grad_of(*p[kTok2B])) gemm::bias_grad_acc(gt.data(), gb, cols, T);
  gt = Buffer();

  // h1 = gelu(u1), u1_b = ln1_bᵀ·W1 + b1 per block b. Blocks are
  // disjoint, so the per-block GEMMs split across the team (each stays
  // serial: no nesting): dL/d ln1_b = W1 · g_bᵀ lands in its own rows of
  // `gln`, and block b's share of dW1 in its own partial, which are then
  // folded into dW1 in block order.
  gelu_grad_inplace(h, s.u1);
  OpCounters::add_flops(u64(2 * d.B * T * Ht * C));
  const float* w1 = w(kTok1W);
  const bool par = !omp_in_parallel() && d.B > 1 && 2 * T * Ht * C > 1024;
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t b = 0; b < d.B; ++b)
    gemm::gemm_acc(row_major(w1, Ht), transposed(h.data() + b * C * Ht, Ht),
                   gln.data() + b * T * C, T, Ht, C, kOverwrite);
  if (float* gw = grad_of(*p[kTok1W])) {
    Buffer ln(n);
    kernels::layer_norm_apply(x.data.data(), s.stats1.data(), w(kLn1Gamma), w(kLn1Beta),
                              ln.data(), rows, C);
    OpCounters::add_flops(u64(2 * d.B * T * C * Ht));
    const std::int64_t wn = T * Ht;
    Buffer part(d.B * wn);
#pragma omp parallel for schedule(static) if (par)
    for (std::int64_t b = 0; b < d.B; ++b)
      gemm::gemm_acc(row_major(ln.data() + b * T * C, C), row_major(h.data() + b * C * Ht, Ht),
                     part.data() + b * wn, T, C, Ht, kOverwrite);
    for (std::int64_t b = 0; b < d.B; ++b)
      for (std::int64_t e = 0; e < wn; ++e) gw[e] += part.data()[b * wn + e];
  }
  if (float* gb = grad_of(*p[kTok1B])) gemm::bias_grad_acc(h.data(), gb, cols, Ht);

  // ln1 = ln_token(x): γ1/β1 grads and x's second share.
  kernels::layer_norm_grad(gln.data(), x.data.data(), w(kLn1Gamma), s.stats1.data(),
                           grad_of(x), grad_of(*p[kLn1Gamma]), grad_of(*p[kLn1Beta]), rows, C);
}

}  // namespace

Tensor MixerBlock::forward(const Tensor& x) const {
  TASER_CHECK_MSG(x.dim() == 3 && x.size(1) == tokens_ && x.size(2) == channels_,
                  "MixerBlock expects [B," << tokens_ << "," << channels_ << "], got "
                                           << tensor::shape_str(x.shape()));
  const Linear& tok1 = token_mlp_.fc1();
  const Linear& tok2 = token_mlp_.fc2();
  const Linear& ch1 = channel_mlp_.fc1();
  const Linear& ch2 = channel_mlp_.fc2();
  const Dims d{x.size(0), tokens_, channels_, tok1.out_features(), ch1.out_features()};
  const std::int64_t rows = d.rows(), cols = d.cols(), n = d.numel();
  const std::int64_t T = d.T, C = d.C, Ht = d.Ht, Hc = d.Hc;

  const std::array<Tensor, kNumParams> p = {
      ln_token_.gamma(), ln_token_.beta(),   tok1.weight(), tok1.bias(),
      tok2.weight(),     tok2.bias(),        ln_channel_.gamma(), ln_channel_.beta(),
      ch1.weight(),      ch1.bias(),         ch2.weight(),  ch2.bias()};
  std::vector<Tensor> inputs{x};
  inputs.insert(inputs.end(), p.begin(), p.end());
  Tensor out = tensor::make_result({d.B, T, C}, std::move(inputs));
  const bool grad = out.requires_grad();
  // The composition's ledger: token fc1 (+GELU), token fc2, the first
  // residual add, channel fc1 (+GELU), channel fc2, the second add.
  OpCounters::add_flops(u64(2 * cols * T * Ht + cols * Ht) + u64(2 * cols * Ht * T) + u64(n) +
                        u64(2 * rows * C * Hc + rows * Hc) + u64(2 * rows * Hc * C) + u64(n));

  Saved s;
  if (grad) {
    s.stats1 = Buffer(2 * rows);
    s.stats2 = Buffer(2 * rows);
    s.u1 = Buffer(cols * Ht);
    s.u2 = Buffer(rows * Hc);
  }
  s.x1 = Buffer(n);
  // One [B, T, C] scratch serves ln_token(x), then t, then ln_channel(x1),
  // then c: each is dead before the next is written.
  Buffer y(n);
  {
    // Token mixing. fc1 reads the [B, C, T] view of ln_token(x) straight
    // from the GEMM packing (A_b = ln1_bᵀ: rs = 1, cs = C), so no
    // transpose is materialized on the way in.
    kernels::layer_norm(x.data(), p[kLn1Gamma].data(), p[kLn1Beta].data(), y.data(),
                        grad ? s.stats1.data() : nullptr, rows, C, ln_token_.eps());
    Buffer h(cols * Ht);
    gemm::Epilogue ep;
    ep.bias = p[kTok1B].data();
    ep.gelu = true;
    ep.beta_zero = true;
    ep.preact = grad ? s.u1.data() : nullptr;
    gemm::gemm_batched_acc({y.data(), 1, C}, T * C, d.B, row_major(p[kTok1W].data(), Ht),
                           h.data(), C * Ht, C, T, Ht, ep);
    gemm::Epilogue ep2;
    ep2.bias = p[kTok2B].data();
    ep2.beta_zero = true;
    gemm::gemm_acc(row_major(h.data(), Ht), row_major(p[kTok2W].data(), T), y.data(), cols,
                   Ht, T, ep2);
    // x1 = x + permute_021(t), t = y as [B, C, T].
    for_blocks(d.B, T * C, [&](std::int64_t b) {
      const float* xb = x.data() + b * T * C;
      const float* tb = y.data() + b * C * T;
      float* x1b = s.x1.data() + b * T * C;
      for (std::int64_t i = 0; i < T; ++i)
        for (std::int64_t j = 0; j < C; ++j) x1b[i * C + j] = xb[i * C + j] + tb[j * T + i];
    });
  }
  {
    // Channel mixing.
    kernels::layer_norm(s.x1.data(), p[kLn2Gamma].data(), p[kLn2Beta].data(), y.data(),
                        grad ? s.stats2.data() : nullptr, rows, C, ln_channel_.eps());
    Buffer h(rows * Hc);
    gemm::Epilogue ep;
    ep.bias = p[kCh1B].data();
    ep.gelu = true;
    ep.beta_zero = true;
    ep.preact = grad ? s.u2.data() : nullptr;
    gemm::gemm_acc(row_major(y.data(), C), row_major(p[kCh1W].data(), Hc), h.data(), rows, C,
                   Hc, ep);
    gemm::Epilogue ep2;
    ep2.bias = p[kCh2B].data();
    ep2.beta_zero = true;
    gemm::gemm_acc(row_major(h.data(), Hc), row_major(p[kCh2W].data(), C), y.data(), rows, Hc,
                   C, ep2);
    float* ov = out.data();
    kernels::for_chunks(n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t k = lo; k < hi; ++k) ov[k] = s.x1.data()[k] + y.data()[k];
    });
  }

  if (grad) {
    Params ip;
    for (std::size_t k = 0; k < kNumParams; ++k) ip[k] = p[k].impl();
    auto saved = std::make_shared<const Saved>(std::move(s));
    out.node().backward_fn = [ix = x.impl(), ip, saved, d](TensorImpl& self) {
      mixer_backward(self.grad.data(), *ix, ip, *saved, d);
    };
  }
  return out;
}

}  // namespace taser::nn
