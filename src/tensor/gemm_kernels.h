#pragma once

#include <cstdint>

namespace taser::tensor::gemm {

// Packed, cache-blocked GEMM backend shared by every dense op
// (matmul/bmm/linear and the fused linear epilogues).
//
// Contract (see ROADMAP "GEMM kernel contract"):
//  - One register-blocked kMR x kNR micro-kernel serves all transpose
//    variants: operands are described by a strided `MatView` and
//    canonicalized into tile-major panels by the packing step, so
//    A, A^T, B, B^T and the batched permute_021 view all hit the same
//    inner loop.
//  - The summation order over k is fixed per output element (k ascending,
//    blocked by kKC) and never depends on the thread count. Results are
//    bit-identical for any OMP_NUM_THREADS — the repo's executable
//    invariant. Regime P (B packed whole) splits disjoint row panels.
//    Regime S (the packed B would exceed kPackAllBytes: the dW = Xᵀ·g
//    backward, k = rows) splits the kKC blocks of k: the team computes a
//    fold group of 16 blocks, each block's product from zero into its own
//    partial, and each element of C then adds the group's partials in
//    block order, C + acc as a serial block loop would. The partials
//    (16·m·n floats) live for one call.
//  - All-zero A chunks (kMR rows x kKC cols of the packed panel) are
//    skipped wholesale; skipping only elides exact-zero contributions, so
//    values are unchanged and the FLOP ledger stays dense. The backend
//    itself records no OpCounters — callers account at op granularity.
//  - Kernels never open a nested OpenMP region: when invoked from inside
//    an active parallel region (e.g. bmm's batch loop) they run serially
//    on the calling thread.
//  - The GELU epilogue stores u, then runs kernels::gelu
//    (tensor/gelu_kernel.h) over the stored tile row: the same array
//    kernel, in its own TU, that tensor::gelu runs. Fused ≡ unfused holds
//    by construction, whatever ISA this TU is compiled for.

/// Register tile: kMR x kNR accumulators (6x16 = 12 YMM under AVX2).
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 16;
/// k-dimension block: packed A chunks of kMR*kKC floats stay L1-resident.
inline constexpr std::int64_t kKC = 256;
/// Budget for packing B in one piece (regime P, epilogue-capable). Larger
/// packed-B sizes fall back to kKC-blocked streaming over k (regime S).
inline constexpr std::int64_t kPackAllBytes = std::int64_t(1) << 21;

/// A strided matrix operand: element (i, j) lives at data[i*rs + j*cs].
/// Covers row-major, transposed, and batch-sliced permute views alike.
struct MatView {
  const float* data;
  std::int64_t rs;
  std::int64_t cs;
};

inline MatView row_major(const float* d, std::int64_t ld) { return {d, ld, 1}; }
/// The transpose of a row-major [r, c] matrix with leading dim `ld` = c.
inline MatView transposed(const float* d, std::int64_t ld) { return {d, 1, ld}; }

/// Fused tail applied while the C tile is register/cache hot, after the
/// full k reduction: u = C[i,j] + acc[i,j] (+ bias[j]); optionally store
/// u into `preact` (needed by the fused backward), then write
/// C[i,j] = gelu(u) or u. With everything null/false this is the plain
/// accumulate C += acc.
struct Epilogue {
  const float* bias = nullptr;  ///< [n], broadcast over rows
  float* preact = nullptr;      ///< [m, n] row-major (per batch in batched)
  bool gelu = false;            ///< tanh-GELU on the stored output
  /// Overwrite C: its prior contents are never read, in any regime (they
  /// may be garbage or NaN), and the result is bit-identical to
  /// accumulating into zeros. Regime P and the direct path store acc
  /// (+bias) without reading C, a skipped all-zero row panel included;
  /// regime S and k = 0 zero C first, then accumulate.
  bool beta_zero = false;
  bool empty() const { return bias == nullptr && preact == nullptr && !gelu; }
};

/// C[m,n] (row-major, contiguous) += op(A)[m,k] · op(B)[k,n], epilogue
/// applied after the reduction. C must be initialized by the caller
/// (zeros from a fresh tensor, or running gradients to accumulate into),
/// unless ep.beta_zero says to overwrite it.
void gemm_acc(MatView A, MatView B, float* C, std::int64_t m, std::int64_t k,
              std::int64_t n, const Epilogue& ep = {});

/// Batched variant with one shared B, packed once: for each batch b,
/// C + b*c_stride += op(A_b) · op(B) where A_b = A0 shifted by
/// b*a_stride. Used by the token-mixing path, which feeds the
/// permute_021 view of [B, tokens, channels] without materializing it.
/// ep.preact, when set, is per-batch at preact + b*m*n.
void gemm_batched_acc(MatView A0, std::int64_t a_stride, std::int64_t batches,
                      MatView B, float* C, std::int64_t c_stride, std::int64_t m,
                      std::int64_t k, std::int64_t n, const Epilogue& ep = {});

/// The bias gradient of a linear layer: db[j] += Σ_i g[i,j] over a
/// row-major g:[rows, n], parallel over column chunks. Each element's
/// accumulation order is the serial one (rows ascending) no matter the
/// thread count: a chunk is owned by exactly one thread.
void bias_grad_acc(const float* g, float* db, std::int64_t rows, std::int64_t n);

}  // namespace taser::tensor::gemm
