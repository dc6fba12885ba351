#include "tensor/gelu_kernel.h"

#include <algorithm>

// Built with -fno-trapping-math (without it GCC will not if-convert the
// clamps, and the loops stay scalar) and -ffp-contract=off (no FMA
// contraction, so a lane, the tail and every ISA round identically); see
// CMakeLists.txt. Neither flag changes an IEEE result.

namespace taser::tensor::kernels {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
/// Input clamp of the rational tanh: the largest argument at which the
/// fit is still ≤ 1, and where it reaches exactly 1 without FMA.
constexpr float kTanhClamp = 7.90531110763549805f;
/// Clamp on x for the gelu' polynomial factor only. Beyond |x| = 8 the
/// tanh has saturated (sech² = 0), so the factor is multiplied by 0; the
/// clamp keeps it finite (x² would overflow past 1.8e19) so that 0·factor
/// stays 0 for every finite x.
constexpr float kGradXClamp = 8.f;

/// Clamp with the operand order that keeps NaN: std::max(x, lo) is
/// `x < lo ? lo : x`, which returns x when x is NaN (and so does min).
inline float clamp(float x, float lo, float hi) { return std::min(std::max(x, lo), hi); }

/// tanh(u) as a [13/6] rational fit on the clamped argument.
inline float tanh_rational(float u) {
  const float x = clamp(u, -kTanhClamp, kTanhClamp);
  const float x2 = x * x;
  float p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = x * p;
  float q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  return p / q;
}

}  // namespace

void gelu(const float* x, float* y, std::int64_t n) {
#pragma omp simd
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = tanh_rational(kGeluC * (v + kGeluA * v * v * v));
    y[i] = 0.5f * v * (1.f + t);
  }
}

void gelu_grad(const float* g, const float* u, float* out, std::int64_t n) {
#pragma omp simd
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = u[i];
    const float t = tanh_rational(kGeluC * (v + kGeluA * v * v * v));
    const float vc = clamp(v, -kGradXClamp, kGradXClamp);
    const float du = kGeluC * (1.f + 3.f * kGeluA * vc * vc);
    out[i] = g[i] * (0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * du);
  }
}

}  // namespace taser::tensor::kernels
