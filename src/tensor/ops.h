#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace taser::tensor {

// All ops are pure: they allocate a fresh output node and, when any input
// requires grad, record a backward closure. Binary elementwise ops follow
// NumPy broadcasting (right-aligned, size-1 dims stretch).

// ---- elementwise binary ----------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- scalar ----------------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary -----------------------------------------------------
Tensor neg(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float negative_slope = 0.2f);
Tensor gelu(const Tensor& a);  ///< tanh approximation
Tensor sigmoid(const Tensor& a);
Tensor tanh_t(const Tensor& a);
Tensor exp_t(const Tensor& a);
Tensor log_t(const Tensor& a);  ///< clamped at 1e-12 for stability
Tensor cos_t(const Tensor& a);
Tensor sin_t(const Tensor& a);
Tensor sqrt_t(const Tensor& a);
Tensor square(const Tensor& a);

// ---- linear algebra --------------------------------------------------------
/// [m,k] x [k,n] -> [m,n]
Tensor matmul(const Tensor& a, const Tensor& b);
/// [B,m,k] x [B,k,n] -> [B,m,n]
Tensor bmm(const Tensor& a, const Tensor& b);
/// x:[..., in] , w:[in, out], b:[out] or undefined -> [..., out].
/// Fused y = x·w + b; the hot path of every layer.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);
/// gelu(x·w + b) as ONE autograd node: bias and tanh-GELU run in the GEMM
/// epilogue while the output tile is hot, and the backward folds the
/// GELU derivative into the gradient stream before the two grad GEMMs.
/// Numerically identical to gelu(linear(x, w, b)) bit for bit.
Tensor linear_gelu(const Tensor& x, const Tensor& w, const Tensor& b);

// ---- reductions ------------------------------------------------------------
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);
Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim = false);
Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim = false);

// ---- row-wise nonlinearities -------------------------------------------------
Tensor softmax_lastdim(const Tensor& a);
Tensor log_softmax_lastdim(const Tensor& a);
/// x:[..., d], gamma/beta:[d]
Tensor layer_norm_lastdim(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                          float eps = 1e-5f);

// ---- shape -----------------------------------------------------------------
Tensor reshape(const Tensor& a, Shape new_shape);
Tensor transpose2d(const Tensor& a);
/// [B,m,n] -> [B,n,m] (the permutation used by token-mixing MLPs).
Tensor permute_021(const Tensor& a);
Tensor concat_lastdim(const std::vector<Tensor>& parts);
Tensor slice_lastdim(const Tensor& a, std::int64_t start, std::int64_t len);
/// Gather rows along dim 0: out[i] = a[idx[i]]. Backward scatter-adds.
Tensor index_select0(const Tensor& a, const std::vector<std::int64_t>& idx);
/// Concatenate along dim 0 (shapes must match beyond dim 0).
Tensor concat_dim0(const std::vector<Tensor>& parts);

// ---- regularisation / loss ---------------------------------------------------
Tensor dropout(const Tensor& a, float p, bool training, util::Rng& rng);
/// Numerically-stable mean binary-cross-entropy on logits. `targets` must
/// not require grad.
Tensor bce_with_logits_mean(const Tensor& logits, const Tensor& targets);

}  // namespace taser::tensor
