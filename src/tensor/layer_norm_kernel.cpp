#include "tensor/layer_norm_kernel.h"

#include <omp.h>

#include <algorithm>
#include <cmath>

namespace taser::tensor::kernels {

namespace {

/// rows·d above which a kernel splits its rows (or columns) across a team.
constexpr std::int64_t kParElems = 1 << 14;
/// Columns per γ/β-grad chunk: a chunk is one thread's, its rows ascending.
constexpr std::int64_t kColChunk = 16;

bool parallel(std::int64_t items, std::int64_t rows, std::int64_t d) {
  return !omp_in_parallel() && items > 1 && rows * d > kParElems;
}

inline void apply_row(const float* xr, float mean, float rstd, const float* gamma,
                      const float* beta, float* yr, std::int64_t d) {
  for (std::int64_t i = 0; i < d; ++i) yr[i] = (xr[i] - mean) * rstd * gamma[i] + beta[i];
}

}  // namespace

void layer_norm(const float* x, const float* gamma, const float* beta, float* y,
                float* stats, std::int64_t rows, std::int64_t d, float eps) {
#pragma omp parallel for schedule(static) if (parallel(rows, rows, d))
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float mean = 0.f;
    for (std::int64_t i = 0; i < d; ++i) mean += xr[i];
    mean /= static_cast<float>(d);
    float var = 0.f;
    for (std::int64_t i = 0; i < d; ++i) {
      const float c = xr[i] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float rstd = 1.f / std::sqrt(var + eps);
    if (stats) {
      stats[2 * r] = mean;
      stats[2 * r + 1] = rstd;
    }
    apply_row(xr, mean, rstd, gamma, beta, y + r * d, d);
  }
}

void layer_norm_apply(const float* x, const float* stats, const float* gamma,
                      const float* beta, float* y, std::int64_t rows, std::int64_t d) {
#pragma omp parallel for schedule(static) if (parallel(rows, rows, d))
  for (std::int64_t r = 0; r < rows; ++r)
    apply_row(x + r * d, stats[2 * r], stats[2 * r + 1], gamma, beta, y + r * d, d);
}

void layer_norm_grad(const float* g, const float* x, const float* gamma,
                     const float* stats, float* gx, float* ggamma, float* gbeta,
                     std::int64_t rows, std::int64_t d) {
  // xhat_i = (x_i - mean) * rstd. γ/β: one column chunk per thread, so
  // each column's sum runs over the rows in ascending order.
  if (ggamma || gbeta) {
    const std::int64_t chunks = (d + kColChunk - 1) / kColChunk;
#pragma omp parallel for schedule(static) if (parallel(chunks, rows, d))
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t j0 = c * kColChunk;
      const std::int64_t j1 = std::min<std::int64_t>(j0 + kColChunk, d);
      for (std::int64_t r = 0; r < rows; ++r) {
        const float mean = stats[2 * r];
        const float rstd = stats[2 * r + 1];
        const float* xr = x + r * d;
        const float* gr = g + r * d;
        for (std::int64_t i = j0; i < j1; ++i) {
          const float xhat = (xr[i] - mean) * rstd;
          if (ggamma) ggamma[i] += gr[i] * xhat;
          if (gbeta) gbeta[i] += gr[i];
        }
      }
    }
  }
  if (!gx) return;
  const float invd = 1.f / static_cast<float>(d);
#pragma omp parallel for schedule(static) if (parallel(rows, rows, d))
  for (std::int64_t r = 0; r < rows; ++r) {
    const float mean = stats[2 * r];
    const float rstd = stats[2 * r + 1];
    const float* xr = x + r * d;
    const float* gr = g + r * d;
    float sum_gy = 0.f, sum_gy_xhat = 0.f;
    for (std::int64_t i = 0; i < d; ++i) {
      const float xhat = (xr[i] - mean) * rstd;
      const float gy = gr[i] * gamma[i];
      sum_gy += gy;
      sum_gy_xhat += gy * xhat;
    }
    float* gxr = gx + r * d;
    for (std::int64_t i = 0; i < d; ++i) {
      const float xhat = (xr[i] - mean) * rstd;
      const float gy = gr[i] * gamma[i];
      gxr[i] += rstd * (gy - invd * sum_gy - xhat * invd * sum_gy_xhat);
    }
  }
}

}  // namespace taser::tensor::kernels
