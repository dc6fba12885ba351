#include <omp.h>

#include <memory>
#include <vector>

#include "tensor/counters.h"
#include "tensor/gelu_kernel.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"

namespace taser::tensor {

namespace {

using gemm::row_major;
using gemm::transposed;

// FLOP accounting happens here, at op granularity, on the thread that
// issues the op (before any OpenMP fan-out inside the backend) — the
// ledger is the dense 2·m·k·n count regardless of zero-skips, exactly as
// with the previous kernels. Fused ops count the same flops their
// unfused decomposition did, so the ledger is invariant under fusion.

/// g_u = g ⊙ gelu'(u) into a fresh buffer: the fused equivalent of the
/// gelu node's backward, one streaming pass instead of a tape node.
std::unique_ptr<float[]> gelu_grad_buffer(const float* g, const float* u,
                                          std::int64_t total) {
  std::unique_ptr<float[]> gu(new float[static_cast<std::size_t>(total)]);
  float* out = gu.get();
  kernels::for_chunks(total, [&](std::int64_t lo, std::int64_t hi) {
    kernels::gelu_grad(g + lo, u + lo, out + lo, hi - lo);
  });
  return gu;
}

/// Shared forward/backward for linear and linear_gelu: one gemm with the
/// bias (and optionally GELU) folded into the epilogue, one autograd
/// node. The fused backward needs the pre-activation u = x·w + b, saved
/// from the epilogue only when grad is required.
Tensor linear_impl(const Tensor& x, const Tensor& w, const Tensor& b,
                   bool fuse_gelu) {
  TASER_CHECK_MSG(w.dim() == 2, "linear weight must be 2-d");
  const std::int64_t in = w.size(0), outdim = w.size(1);
  TASER_CHECK_MSG(x.size(-1) == in, "linear: x " << shape_str(x.shape()) << " vs w "
                                                 << shape_str(w.shape()));
  if (b.defined()) TASER_CHECK(b.dim() == 1 && b.size(0) == outdim);

  Shape out_shape = x.shape();
  out_shape.back() = outdim;
  const std::int64_t rows = x.numel() / in;

  std::vector<Tensor> inputs = {x, w};
  if (b.defined()) inputs.push_back(b);
  Tensor out = make_result(std::move(out_shape), inputs);

  gemm::Epilogue ep;
  ep.bias = b.defined() ? b.data() : nullptr;
  ep.gelu = fuse_gelu;
  ep.beta_zero = true;  // `out` is fresh zeros from make_result
  std::shared_ptr<float[]> preact;  // uninitialized — the epilogue fills it
  if (fuse_gelu && out.requires_grad()) {
    preact = std::shared_ptr<float[]>(new float[static_cast<std::size_t>(rows * outdim)]);
    ep.preact = preact.get();
  }
  OpCounters::add_flops(static_cast<std::uint64_t>(2 * rows * in * outdim) +
                        (fuse_gelu ? static_cast<std::uint64_t>(rows * outdim) : 0));
  gemm::gemm_acc(row_major(x.data(), in), row_major(w.data(), outdim), out.data(),
                 rows, in, outdim, ep);

  if (out.requires_grad()) {
    ImplPtr ix = x.impl(), iw = w.impl();
    ImplPtr ibias = b.defined() ? b.impl() : nullptr;
    out.node().backward_fn = [ix, iw, ibias, preact, rows, in, outdim,
                              fuse_gelu](TensorImpl& self) {
      const float* g = self.grad.data();
      std::unique_ptr<float[]> gu_buf;
      if (fuse_gelu) {
        gu_buf = gelu_grad_buffer(g, preact.get(), rows * outdim);
        g = gu_buf.get();
      }
      if (ix->requires_grad) {
        ix->ensure_grad();
        // dX = g · Wᵀ : [rows,out] x [out,in]
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * rows * outdim * in));
        gemm::gemm_acc(row_major(g, outdim), transposed(iw->data.data(), outdim),
                       ix->grad.data(), rows, outdim, in);
      }
      if (iw->requires_grad) {
        iw->ensure_grad();
        // dW = Xᵀ · g : [in,rows] x [rows,out]
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * in * rows * outdim));
        gemm::gemm_acc(transposed(ix->data.data(), in), row_major(g, outdim),
                       iw->grad.data(), in, rows, outdim);
      }
      if (ibias && ibias->requires_grad) {
        ibias->ensure_grad();
        gemm::bias_grad_acc(g, ibias->grad.data(), rows, outdim);
      }
    };
  }
  return out;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  TASER_CHECK_MSG(a.dim() == 2 && b.dim() == 2,
                  "matmul expects 2-d, got " << shape_str(a.shape()) << " x "
                                             << shape_str(b.shape()));
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  TASER_CHECK_MSG(b.size(0) == k, "matmul inner dims: " << shape_str(a.shape())
                                                        << " x " << shape_str(b.shape()));
  Tensor out = make_result({m, n}, {a, b});
  OpCounters::add_flops(static_cast<std::uint64_t>(2 * m * k * n));
  gemm::Epilogue fresh;
  fresh.beta_zero = true;  // `out` is fresh zeros
  gemm::gemm_acc(row_major(a.data(), k), row_major(b.data(), n), out.data(), m, k, n,
                 fresh);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl(), ib = b.impl();
    out.node().backward_fn = [ia, ib, m, k, n](TensorImpl& self) {
      const float* g = self.grad.data();
      if (ia->requires_grad) {
        ia->ensure_grad();
        // dA = g · Bᵀ : [m,n] x [n,k]
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * m * n * k));
        gemm::gemm_acc(row_major(g, n), transposed(ib->data.data(), n),
                       ia->grad.data(), m, n, k);
      }
      if (ib->requires_grad) {
        ib->ensure_grad();
        // dB = Aᵀ · g : [k,m] x [m,n]
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * k * m * n));
        gemm::gemm_acc(transposed(ia->data.data(), k), row_major(g, n),
                       ib->grad.data(), k, m, n);
      }
    };
  }
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  TASER_CHECK_MSG(a.dim() == 3 && b.dim() == 3,
                  "bmm expects 3-d, got " << shape_str(a.shape()) << " x "
                                          << shape_str(b.shape()));
  const std::int64_t B = a.size(0), m = a.size(1), k = a.size(2), n = b.size(2);
  TASER_CHECK(b.size(0) == B && b.size(1) == k);
  Tensor out = make_result({B, m, n}, {a, b});
  OpCounters::add_flops(static_cast<std::uint64_t>(2 * B * m * k * n));
  // Parallel over batches; the inner kernels detect the enclosing region
  // (omp_in_parallel) and never open a nested one.
  gemm::Epilogue fresh;
  fresh.beta_zero = true;  // `out` is fresh zeros
  const bool par = !omp_in_parallel() && B > 1 && m * k * n > 1024;
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t i = 0; i < B; ++i)
    gemm::gemm_acc(row_major(a.data() + i * m * k, k), row_major(b.data() + i * k * n, n),
                   out.data() + i * m * n, m, k, n, fresh);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl(), ib = b.impl();
    out.node().backward_fn = [ia, ib, B, m, k, n](TensorImpl& self) {
      const float* g = self.grad.data();
      if (ia->requires_grad) {
        ia->ensure_grad();
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * B * m * n * k));
      }
      if (ib->requires_grad) {
        ib->ensure_grad();
        OpCounters::add_flops(static_cast<std::uint64_t>(2 * B * k * m * n));
      }
      for (std::int64_t i = 0; i < B; ++i) {
        if (ia->requires_grad)
          gemm::gemm_acc(row_major(g + i * m * n, n),
                         transposed(ib->data.data() + i * k * n, n),
                         ia->grad.data() + i * m * k, m, n, k);
        if (ib->requires_grad)
          gemm::gemm_acc(transposed(ia->data.data() + i * m * k, k),
                         row_major(g + i * m * n, n), ib->grad.data() + i * k * n,
                         k, m, n);
      }
    };
  }
  return out;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  return linear_impl(x, w, b, /*fuse_gelu=*/false);
}

Tensor linear_gelu(const Tensor& x, const Tensor& w, const Tensor& b) {
  return linear_impl(x, w, b, /*fuse_gelu=*/true);
}

}  // namespace taser::tensor
