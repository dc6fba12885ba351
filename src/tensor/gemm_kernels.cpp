#include "tensor/gemm_kernels.h"

#include <omp.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tensor/gelu_kernel.h"

namespace taser::tensor::gemm {

namespace {

/// 2·m·k·n above which a kernel is allowed to fork a thread team.
constexpr std::int64_t kParFlops = 1 << 17;

/// Regime S's fold group: the k blocks whose partial products are held
/// at once (16·m·n floats) before they are folded into C.
constexpr std::int64_t kFoldBlocks = 16;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Per-thread pack buffers, recycled across calls. Regime P's B panels are
/// packed by whichever thread drives the gemm (workers read them), regime
/// S's by the worker that owns the k block; A micro-panels are packed by
/// the worker that owns the row panel.
struct PackScratch {
  std::vector<float> b_panels;
  std::vector<float> a_panel;
  std::vector<unsigned char> a_chunk_nonzero;
};

PackScratch& tls_scratch() {
  static thread_local PackScratch s;
  return s;
}

/// Packs B rows [p0, p0+kc) into column panels of width kNR, k-major
/// inside each panel: dst[jp][p][j]. Columns beyond n are zero-padded so
/// the micro-kernel never branches on the n edge.
template <int NRv>
void pack_b(const MatView& B, std::int64_t p0, std::int64_t kc, std::int64_t n,
            float* dst) {
  const std::int64_t jpanels = ceil_div(n, NRv);
  for (std::int64_t jp = 0; jp < jpanels; ++jp) {
    const std::int64_t j0 = jp * NRv;
    const std::int64_t nr = std::min<std::int64_t>(NRv, n - j0);
    float* panel = dst + jp * kc * NRv;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = B.data + (p0 + p) * B.rs + j0 * B.cs;
      float* row = panel + p * NRv;
      for (std::int64_t j = 0; j < nr; ++j) row[j] = src[j * B.cs];
      for (std::int64_t j = nr; j < NRv; ++j) row[j] = 0.f;
    }
  }
}

/// Packs A rows [i0, i0+mr) x cols [p0, p0+kc) into one micro-panel,
/// k-major groups of kMR: dst[p][r]. Rows beyond m are zero-padded.
/// Returns true if the whole chunk is zero (masked rows, identity
/// padding) — the caller skips its micro-kernel calls wholesale.
bool pack_a_chunk(const MatView& A, std::int64_t i0, std::int64_t mr, std::int64_t p0,
                  std::int64_t kc, float* dst) {
  bool all_zero = true;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = A.data + i0 * A.rs + (p0 + p) * A.cs;
    float* grp = dst + p * kMR;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float v = src[r * A.rs];
      grp[r] = v;
      all_zero &= v == 0.f;
    }
    for (std::int64_t r = mr; r < kMR; ++r) grp[r] = 0.f;
  }
  return all_zero;
}

/// The one register-blocked micro-kernel: acc[kMR][kNR] += panel product
/// over kc packed k-steps. Every accumulator is an independent chain, so
/// vectorization never reassociates a sum — results are exact regardless
/// of SIMD width.
template <int NRv>
void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                  float acc[kMR * kNR]) {
  for (std::int64_t p = 0; p < kc; ++p, ap += kMR, bp += NRv) {
    for (int r = 0; r < kMR; ++r) {
      const float a = ap[r];
      float* accr = acc + r * kNR;
#pragma omp simd
      for (int j = 0; j < NRv; ++j) accr[j] += a * bp[j];
    }
  }
}

/// Reduction done: fold the register tile into C (+ epilogue). The four
/// flags are compile-time so every variant's store loop is branch-free
/// and vectorizes; GELU then runs over the stored tile row. BZ skips the
/// read of a freshly-zeroed C (identical value, half the C traffic).
template <bool BZ, bool BI, bool GE, bool PR>
void write_tile_impl(float* C, std::int64_t n, std::int64_t i0, std::int64_t j0,
                     std::int64_t mr, std::int64_t nr, const float acc[kMR * kNR],
                     const float* bias, float* preact) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* c_row = C + (i0 + r) * n + j0;
    const float* a_row = acc + r * kNR;
    float* p_row = PR ? preact + (i0 + r) * n + j0 : nullptr;
#pragma omp simd
    for (std::int64_t j = 0; j < nr; ++j) {
      float u = BZ ? a_row[j] : c_row[j] + a_row[j];
      if constexpr (BI) u += bias[j0 + j];
      if constexpr (PR) p_row[j] = u;
      c_row[j] = u;
    }
    if constexpr (GE) kernels::gelu(c_row, c_row, nr);
  }
}

void write_tile(float* C, std::int64_t n, std::int64_t i0, std::int64_t j0,
                std::int64_t mr, std::int64_t nr, const float acc[kMR * kNR],
                const Epilogue& ep, float* preact) {
  const int key = (ep.beta_zero ? 8 : 0) | (ep.bias ? 4 : 0) | (ep.gelu ? 2 : 0) |
                  (preact ? 1 : 0);
  switch (key) {
#define TASER_WT_CASE(K, BZ, BI, GE, PR)                                      case K:                                                                       write_tile_impl<BZ, BI, GE, PR>(C, n, i0, j0, mr, nr, acc, ep.bias,                                         preact);                                    break;
    TASER_WT_CASE(0, false, false, false, false)
    TASER_WT_CASE(1, false, false, false, true)
    TASER_WT_CASE(2, false, false, true, false)
    TASER_WT_CASE(3, false, false, true, true)
    TASER_WT_CASE(4, false, true, false, false)
    TASER_WT_CASE(5, false, true, false, true)
    TASER_WT_CASE(6, false, true, true, false)
    TASER_WT_CASE(7, false, true, true, true)
    TASER_WT_CASE(8, true, false, false, false)
    TASER_WT_CASE(9, true, false, false, true)
    TASER_WT_CASE(10, true, false, true, false)
    TASER_WT_CASE(11, true, false, true, true)
    TASER_WT_CASE(12, true, true, false, false)
    TASER_WT_CASE(13, true, true, false, true)
    TASER_WT_CASE(14, true, true, true, false)
    TASER_WT_CASE(15, true, true, true, true)
#undef TASER_WT_CASE
  }
}

/// Regime P — pack all of B once, then one pass over row panels with the
/// full k reduction held in registers; the epilogue runs while the tile
/// is hot. Handles `batches` problems sharing one B (a_stride/c_stride
/// shift A and C per batch; batch 0 with stride 0 is the plain case).
template <int NRv>
void run_packed(const MatView& A0, std::int64_t a_stride, std::int64_t batches,
                const MatView& B, float* C, std::int64_t c_stride, std::int64_t m,
                std::int64_t k, std::int64_t n, const Epilogue& ep) {
  PackScratch& scratch = tls_scratch();
  const std::int64_t jpanels = ceil_div(n, NRv);
  scratch.b_panels.resize(static_cast<std::size_t>(jpanels * k * NRv));
  float* bpack = scratch.b_panels.data();
  pack_b<NRv>(B, 0, k, n, bpack);

  const std::int64_t ipanels = ceil_div(m, kMR);
  const std::int64_t chunks = ceil_div(k, kKC);
  const std::int64_t total = batches * ipanels;
  const bool par =
      !omp_in_parallel() && total > 1 && 2 * batches * m * k * n > kParFlops;
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t t = 0; t < total; ++t) {
    const std::int64_t b = t / ipanels;
    const std::int64_t ip = t % ipanels;
    const MatView A{A0.data + b * a_stride, A0.rs, A0.cs};
    float* Cb = C + b * c_stride;
    float* preact = ep.preact ? ep.preact + b * m * n : nullptr;
    const std::int64_t i0 = ip * kMR;
    const std::int64_t mr = std::min<std::int64_t>(kMR, m - i0);

    PackScratch& local = tls_scratch();
    local.a_panel.resize(static_cast<std::size_t>(chunks * kKC * kMR));
    local.a_chunk_nonzero.resize(static_cast<std::size_t>(chunks));
    bool any_nonzero = false;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t p0 = c * kKC;
      const std::int64_t kc = std::min<std::int64_t>(kKC, k - p0);
      const bool zero =
          pack_a_chunk(A, i0, mr, p0, kc, local.a_panel.data() + c * kKC * kMR);
      local.a_chunk_nonzero[static_cast<std::size_t>(c)] = !zero;
      any_nonzero |= !zero;
    }
    // C += 0 — nothing to write, unless C's prior contents are not to be read.
    if (!any_nonzero && ep.empty() && !ep.beta_zero) continue;

    for (std::int64_t jp = 0; jp < jpanels; ++jp) {
      float acc[kMR * kNR] = {};
      const float* bpanel = bpack + jp * k * NRv;
      std::int64_t done = 0;  // packed B rows consumed so far
      for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t kc = std::min<std::int64_t>(kKC, k - c * kKC);
        if (local.a_chunk_nonzero[static_cast<std::size_t>(c)])
          micro_kernel<NRv>(kc, local.a_panel.data() + c * kKC * kMR,
                            bpanel + done * NRv, acc);
        done += kc;
      }
      const std::int64_t j0 = jp * NRv;
      write_tile(Cb, n, i0, j0, mr, std::min<std::int64_t>(NRv, n - j0), acc, ep,
                 preact);
    }
  }
}

/// Regime S — k too large to pack B whole (e.g. the dW = Xᵀ·g backward,
/// k = rows). The kKC blocks of k go in fold groups of kFoldBlocks, and
/// the team splits a group's blocks: each packs its own block of B and
/// computes that block's product from zero into its own partial. Each
/// element of C then folds the group's partials in block order with the
/// plain C + acc add of write_tile, so its sum is "k ascending, blocked by
/// kKC" at any team size. A block whose A chunk is all zero is skipped,
/// not added.
template <int NRv>
void run_streamed(const MatView& A, const MatView& B, float* C, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  const std::int64_t jpanels = ceil_div(n, NRv);
  const std::int64_t ipanels = ceil_div(m, kMR);
  const std::int64_t blocks = ceil_div(k, kKC);
  const std::int64_t group = std::min(kFoldBlocks, blocks);
  const std::int64_t mn = m * n;
  // Only computed panels are read back, and those are written in full.
  const std::unique_ptr<float[]> partial(new float[static_cast<std::size_t>(group * mn)]);
  std::vector<unsigned char> computed(static_cast<std::size_t>(group * ipanels));
  const Epilogue store{.beta_zero = true};

  for (std::int64_t g0 = 0; g0 < blocks; g0 += group) {
    const std::int64_t gb = std::min(group, blocks - g0);
    const bool par = !omp_in_parallel() && gb > 1 && 2 * m * gb * kKC * n > kParFlops;
#pragma omp parallel for schedule(static) if (par)
    for (std::int64_t c = 0; c < gb; ++c) {
      const std::int64_t p0 = (g0 + c) * kKC;
      const std::int64_t kc = std::min<std::int64_t>(kKC, k - p0);
      PackScratch& local = tls_scratch();
      local.b_panels.resize(static_cast<std::size_t>(jpanels * kKC * NRv));
      local.a_panel.resize(static_cast<std::size_t>(kKC * kMR));
      float* bpack = local.b_panels.data();
      pack_b<NRv>(B, p0, kc, n, bpack);
      float* part = partial.get() + c * mn;
      for (std::int64_t ip = 0; ip < ipanels; ++ip) {
        const std::int64_t i0 = ip * kMR;
        const std::int64_t mr = std::min<std::int64_t>(kMR, m - i0);
        const bool zero = pack_a_chunk(A, i0, mr, p0, kc, local.a_panel.data());
        computed[static_cast<std::size_t>(c * ipanels + ip)] = !zero;
        if (zero) continue;
        for (std::int64_t jp = 0; jp < jpanels; ++jp) {
          float acc[kMR * kNR] = {};
          micro_kernel<NRv>(kc, local.a_panel.data(), bpack + jp * kc * NRv, acc);
          const std::int64_t j0 = jp * NRv;
          write_tile(part, n, i0, j0, mr, std::min<std::int64_t>(NRv, n - j0), acc, store,
                     nullptr);
        }
      }
    }
    const bool fold_par = !omp_in_parallel() && m > 1 && gb * mn > (1 << 15);
#pragma omp parallel for schedule(static) if (fold_par)
    for (std::int64_t i = 0; i < m; ++i) {
      float* c_row = C + i * n;
      for (std::int64_t c = 0; c < gb; ++c) {
        if (!computed[static_cast<std::size_t>(c * ipanels + i / kMR)]) continue;
        const float* p_row = partial.get() + c * mn + i * n;
#pragma omp simd
        for (std::int64_t j = 0; j < n; ++j) c_row[j] += p_row[j];
      }
    }
  }
}

/// Very narrow outputs (n <= 4: scoring heads, single-logit layers) skip
/// packing entirely — packing would double A's memory traffic for a
/// single use. Four independent k-accumulators per output element, summed
/// in a fixed order; OpenMP splits rows only.
void run_direct(const MatView& A, const MatView& B, float* C, std::int64_t m,
                std::int64_t k, std::int64_t n, const Epilogue& ep) {
  const bool par = !omp_in_parallel() && m > 1 && 2 * m * k * n > kParFlops;
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    const float* a_row = A.data + i * A.rs;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_col = B.data + j * B.cs;
      float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
      std::int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        acc0 += a_row[p * A.cs] * b_col[p * B.rs];
        acc1 += a_row[(p + 1) * A.cs] * b_col[(p + 1) * B.rs];
        acc2 += a_row[(p + 2) * A.cs] * b_col[(p + 2) * B.rs];
        acc3 += a_row[(p + 3) * A.cs] * b_col[(p + 3) * B.rs];
      }
      float acc = (acc0 + acc1) + (acc2 + acc3);
      for (; p < k; ++p) acc += a_row[p * A.cs] * b_col[p * B.rs];
      float u = ep.beta_zero ? acc : c_row[j] + acc;
      if (ep.bias) u += ep.bias[j];
      if (ep.preact) ep.preact[i * n + j] = u;
      c_row[j] = u;
    }
    if (ep.gelu) kernels::gelu(c_row, c_row, n);
  }
}

/// Separate epilogue sweep for the (rare) streamed + epilogue combination.
void epilogue_pass(float* C, std::int64_t m, std::int64_t n, const Epilogue& ep) {
  const bool par = !omp_in_parallel() && m > 1 && m * n > (1 << 15);
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    float* p_row = ep.preact ? ep.preact + i * n : nullptr;
    for (std::int64_t j = 0; j < n; ++j) {
      float u = c_row[j];
      if (ep.bias) u += ep.bias[j];
      if (p_row) p_row[j] = u;
      c_row[j] = u;
    }
    if (ep.gelu) kernels::gelu(c_row, c_row, n);
  }
}

inline bool b_fits_packed(std::int64_t k, std::int64_t n, std::int64_t nr) {
  return ceil_div(n, nr) * nr * k * static_cast<std::int64_t>(sizeof(float)) <=
         kPackAllBytes;
}

/// Panel width by output width: narrow outputs (scoring heads, n=1..8)
/// would waste most of a 16-wide panel on zero padding, so they take a
/// 4-wide instantiation of the same micro-kernel. The choice depends on
/// the shape only — never on the thread count — so determinism holds.
inline bool use_narrow(std::int64_t n) { return n <= kNR / 2; }

}  // namespace

void gemm_acc(MatView A, MatView B, float* C, std::int64_t m, std::int64_t k,
              std::int64_t n, const Epilogue& ep) {
  if (m <= 0 || n <= 0) return;
  if (n <= 4) {
    run_direct(A, B, C, m, k, n, ep);
    return;
  }
  const std::int64_t nr = use_narrow(n) ? 4 : kNR;
  if (k > 0 && b_fits_packed(k, n, nr)) {
    if (use_narrow(n))
      run_packed<4>(A, 0, 1, B, C, 0, m, k, n, ep);
    else
      run_packed<kNR>(A, 0, 1, B, C, 0, m, k, n, ep);
    return;
  }
  // Regime S (or k = 0) accumulates into C, then sweeps the epilogue.
  if (ep.beta_zero) std::fill(C, C + m * n, 0.f);
  if (k > 0) {
    if (use_narrow(n))
      run_streamed<4>(A, B, C, m, k, n);
    else
      run_streamed<kNR>(A, B, C, m, k, n);
  }
  if (!ep.empty()) epilogue_pass(C, m, n, ep);
}

void gemm_batched_acc(MatView A0, std::int64_t a_stride, std::int64_t batches,
                      MatView B, float* C, std::int64_t c_stride, std::int64_t m,
                      std::int64_t k, std::int64_t n, const Epilogue& ep) {
  if (batches <= 0 || m <= 0 || n <= 0) return;
  if (n <= 4) {
    const bool par = !omp_in_parallel() && batches > 1 && 2 * m * k * n > 1024;
#pragma omp parallel for schedule(static) if (par)
    for (std::int64_t b = 0; b < batches; ++b) {
      Epilogue bep = ep;
      if (bep.preact) bep.preact += b * m * n;
      run_direct({A0.data + b * a_stride, A0.rs, A0.cs}, B, C + b * c_stride, m, k,
                 n, bep);
    }
    return;
  }
  const std::int64_t nr = use_narrow(n) ? 4 : kNR;
  if (k > 0 && b_fits_packed(k, n, nr)) {
    if (use_narrow(n))
      run_packed<4>(A0, a_stride, batches, B, C, c_stride, m, k, n, ep);
    else
      run_packed<kNR>(A0, a_stride, batches, B, C, c_stride, m, k, n, ep);
    return;
  }
  // Shared-B batched callers (token mixing) always have tiny k·n; keep a
  // correct fallback anyway.
  for (std::int64_t b = 0; b < batches; ++b) {
    Epilogue bep = ep;
    if (bep.preact) bep.preact += b * m * n;
    gemm_acc({A0.data + b * a_stride, A0.rs, A0.cs}, B, C + b * c_stride, m, k, n, bep);
  }
}

void bias_grad_acc(const float* g, float* db, std::int64_t rows, std::int64_t n) {
  constexpr std::int64_t kChunk = 16;
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  const bool par = !omp_in_parallel() && chunks > 1 && rows * n > (1 << 14);
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t j0 = c * kChunk;
    const std::int64_t j1 = std::min<std::int64_t>(j0 + kChunk, n);
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* g_row = g + i * n;
      for (std::int64_t j = j0; j < j1; ++j) db[j] += g_row[j];
    }
  }
}

}  // namespace taser::tensor::gemm
