#pragma once

#include <cstdint>

namespace taser::tensor::kernels {

// The one layer normalisation over the last dimension, as three row
// kernels: y = (x - mean) * rstd * gamma + beta per row of width d, with
// the row statistics (mean, rstd) stored as stats[2r], stats[2r + 1].
// tensor::layer_norm_lastdim and the fused MixerBlock node (nn/mixer.cpp)
// both run through them, so the fused node's output, the layer norm it
// recomputes in its backward and its gradients equal the unfused op's bit
// for bit. The TU builds with -ffp-contract=off: the forward and the
// recompute round the same way whatever ISA the build selects.
//
// Each kernel splits its rows across the OpenMP team (serially when
// called inside a parallel region). A row's result does not depend on
// which thread computes it, and layer_norm_grad sums the γ/β grads by
// column chunk, each column over the rows in ascending order, so every
// output has the same bits at any team size.

/// Normalises `rows` rows of x into y. `stats` may be null (no-grad).
void layer_norm(const float* x, const float* gamma, const float* beta, float* y,
                float* stats, std::int64_t rows, std::int64_t d, float eps);

/// Recomputes layer_norm's y from x and its saved stats, bit for bit.
void layer_norm_apply(const float* x, const float* stats, const float* gamma,
                      const float* beta, float* y, std::int64_t rows, std::int64_t d);

/// Backward of layer_norm given dL/dy `g`: ggamma[i] += Σ_r g·xhat and
/// gbeta[i] += Σ_r g, rows ascending, and gx += dL/dx. Any of the three
/// outputs may be null (that input needs no gradient).
void layer_norm_grad(const float* g, const float* x, const float* gamma,
                     const float* stats, float* gx, float* ggamma, float* gbeta,
                     std::int64_t rows, std::int64_t d);

}  // namespace taser::tensor::kernels
