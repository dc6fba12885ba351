#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>

namespace taser::tensor::kernels {

// The one tanh-approximation GELU, gelu(x) = ½·x·(1 + tanh(√(2/π)·(x +
// 0.044715·x³))), as a pair of array kernels. Every GELU in the library —
// the fused GEMM epilogue, the fused linear backward, and the standalone
// tensor::gelu op — runs through these two functions, so fused ≡ unfused
// holds by construction.
//
// Contract (tests/test_tensor_ops.cpp, GeluKernel.*):
//  - No libm call: tanh is a clamped rational approximation (the [13/6]
//    minimax fit also used by Eigen's ptanh_float), which the compiler
//    vectorizes.
//  - Lane ≡ tail: an element's result does not depend on its position in
//    the array, so a SIMD lane and the scalar tail give the same bits and
//    results are independent of thread count, chunking and tile width.
//    The TU is built with -ffp-contract=off, so the bits do not depend on
//    the ISA the build selects either.
//  - NaN in, NaN out, for both kernels.
//  - Saturation: the clamped tanh is exactly ±1 once |√(2/π)·(x +
//    0.044715·x³)| ≥ 7.9053 (|x| ≳ 4.85). Beyond that, for every finite
//    x, gelu(x) = x for x > 0 and -0 for x < 0, and gelu'(x) = 1
//    resp. 0. gelu(+inf) = +inf, gelu(-inf) = NaN (-inf·0), and
//    gelu'(±inf) = NaN: a non-finite input never gives a finite output.
//  - Max abs error against the double-precision formula on [-12, 12]:
//    about 9e-7 for gelu and 4.3e-6 for gelu'.

/// y[i] = gelu(x[i]) for i in [0, n). y may equal x (in place).
void gelu(const float* x, float* y, std::int64_t n);

/// out[i] = g[i] · gelu'(u[i]) for i in [0, n). out may equal g or u.
void gelu_grad(const float* g, const float* u, float* out, std::int64_t n);

/// Chunk size of for_chunks — also the largest range it hands to `fn`.
inline constexpr std::int64_t kChunk = 4096;

/// Runs fn(begin, end) over [0, n) in kChunk-sized ranges, split across an
/// OpenMP team when n is large and no team is active. Chunk bounds depend
/// on n only, and the kernels are lane ≡ tail, so results never depend on
/// the thread count.
template <typename Fn>
void for_chunks(std::int64_t n, Fn fn) {
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  const bool par = !omp_in_parallel() && chunks > 1 && n > (1 << 14);
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t c = 0; c < chunks; ++c)
    fn(c * kChunk, std::min<std::int64_t>(n, (c + 1) * kChunk));
}

}  // namespace taser::tensor::kernels
