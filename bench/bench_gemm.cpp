// GEMM backend micro-benchmark + correctness canary.
//
// Default mode: GFLOP/s sweep over the dense shapes the adaptive path
// actually hits at the paper-scale batch (T=2000 targets, m=32
// candidates, encoder width 96 → decoder trunk channels×4 MLP), the
// token-mixing transposes, the tiny edge-predictor head, and the big-k
// dW backward — the replica of the pre-backend 4-wide-unrolled kernels
// vs the packed cache-blocked backend, printed as a table.
//
// --smoke: cross-checks the packed backend (all transpose variants, fused
// bias/GELU epilogues, the batched permute_021 view, and the zero-chunk
// skip) against a naive double-precision reference on tiny, odd,
// tile-unaligned shapes. Exits non-zero on any mismatch — wired into
// ctest so kernel regressions surface in CI.
//
// Both modes then time the train-taser sampler trunk (GFLOP/s of its
// channel-MLP GEMMs, and GELU forward/backward in Melem/s against a
// scalar libm replica) and record every rate in the --json report. These
// rates are recorded, never gated.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "tensor/gelu_kernel.h"
#include "tensor/gemm_kernels.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace gemm = taser::tensor::gemm;
using taser::util::Rng;
using taser::util::Table;
using taser::util::WallTimer;
using i64 = std::int64_t;

namespace {

// ---- replicas of the pre-backend kernels (ops_matmul.cpp before the
// packed backend): 4-wide k-unroll, zero-skip at block granularity,
// cache-oblivious. Kept here as the benchmark baseline only. ------------------

void old_gemm_acc(const float* A, const float* B, float* C, i64 m, i64 k, i64 n) {
#pragma omp parallel for schedule(static) if (m * k * n > (1 << 16))
  for (i64 i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    const float* a_row = A + i * k;
    i64 p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = a_row[p], a1 = a_row[p + 1], a2 = a_row[p + 2], a3 = a_row[p + 3];
      if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
      const float* b0 = B + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (i64 j = 0; j < n; ++j)
        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (; p < k; ++p) {
      const float a = a_row[p];
      if (a == 0.f) continue;
      const float* b_row = B + p * n;
      for (i64 j = 0; j < n; ++j) c_row[j] += a * b_row[j];
    }
  }
}

void old_gemm_at_b_acc(const float* A, const float* B, float* C, i64 m, i64 k, i64 n) {
#pragma omp parallel for schedule(static) if (m * k * n > (1 << 16))
  for (i64 i = 0; i < m; ++i) {
    float* c_row = C + i * n;
    i64 p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = A[p * m + i], a1 = A[(p + 1) * m + i], a2 = A[(p + 2) * m + i],
                  a3 = A[(p + 3) * m + i];
      if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
      const float* b0 = B + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (i64 j = 0; j < n; ++j)
        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (; p < k; ++p) {
      const float a = A[p * m + i];
      if (a == 0.f) continue;
      const float* b_row = B + p * n;
      for (i64 j = 0; j < n; ++j) c_row[j] += a * b_row[j];
    }
  }
}

// Replica of the pre-kernel GELU: one libm tanhf call per element. Kept
// here as the benchmark baseline only.
float gelu_libm(float x) {
  const float t = std::tanh(0.7978845608028654f * (x + 0.044715f * x * x * x));
  return 0.5f * x * (1.f + t);
}

float gelu_grad_libm(float x) {
  const float c = 0.7978845608028654f;
  const float t = std::tanh(c * (x + 0.044715f * x * x * x));
  return 0.5f * (1.f + t) + 0.5f * x * (1.f - t * t) * c * (1.f + 3.f * 0.044715f * x * x);
}

void fill_uniform(std::vector<float>& v, Rng& rng, float lo = -1.f, float hi = 1.f) {
  for (auto& x : v) x = rng.next_uniform(lo, hi);
}

/// Best of 3 repetitions of `iters` calls, after one warm-up call, in
/// units per second; `fn` processes `units` per call.
template <typename Fn>
double best_rate(double units, int iters, Fn fn) {
  fn();
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    for (int it = 0; it < iters; ++it) fn();
    best = std::max(best, units * iters / t.seconds());
  }
  return best;
}

// ---- train-taser sampler trunk: recorded rates ------------------------------

/// The channel MLP of the train-taser sampler's Mixer trunk at its hop-2
/// AS call: 128 roots × 3 (src, dst, negative) × n=5 targets, m=10
/// candidates each, encoder width 16 (edge) + 16 (time) + 16 (freq) + 10
/// (identity) = 58, hidden 4 × 58.
void time_taser_trunk(Rng& rng) {
  const i64 rows = 128 * 3 * 5 * 10, c = 58, hidden = 4 * c;
  std::vector<float> x(static_cast<std::size_t>(rows * c)),
      w1(static_cast<std::size_t>(c * hidden)), b1(static_cast<std::size_t>(hidden)),
      w2(static_cast<std::size_t>(hidden * c)), u(static_cast<std::size_t>(rows * hidden)),
      h(u.size()), g(u.size()), out(u.size()), dw(w1.size()), y(x.size());
  fill_uniform(x, rng);
  fill_uniform(w1, rng, -0.3f, 0.3f);
  fill_uniform(b1, rng);
  fill_uniform(w2, rng, -0.3f, 0.3f);
  fill_uniform(g, rng);

  Table gemms({"train-taser trunk GEMM", "GFLOP/s"});
  auto gemm_row = [&](const std::string& key, const std::string& label, double flops,
                      auto fn) {
    const double gflops = best_rate(flops, 3, fn) / 1e9;
    gemms.add_row({label, Table::fmt(gflops, 2)});
    taser::bench::report_metric("gemm." + key + ".gflops", gflops);
  };
  gemm_row("taser_fc1", "fc1+bias+gelu [" + std::to_string(rows) + "x58 · 58x232]",
           2.0 * rows * c * hidden, [&] {
             gemm::Epilogue ep;
             ep.bias = b1.data();
             ep.gelu = true;
             ep.preact = u.data();
             ep.beta_zero = true;
             gemm::gemm_acc(gemm::row_major(x.data(), c), gemm::row_major(w1.data(), hidden),
                            h.data(), rows, c, hidden, ep);
           });
  gemm_row("taser_fc2", "fc2 [" + std::to_string(rows) + "x232 · 232x58]",
           2.0 * rows * hidden * c, [&] {
             gemm::Epilogue fresh;
             fresh.beta_zero = true;
             gemm::gemm_acc(gemm::row_major(h.data(), hidden), gemm::row_major(w2.data(), c),
                            y.data(), rows, hidden, c, fresh);
           });
  gemm_row("taser_fc1_dw", "fc1 dW [58x" + std::to_string(rows) + " · " +
                               std::to_string(rows) + "x232]",
           2.0 * c * rows * hidden, [&] {
             gemm::gemm_acc(gemm::transposed(x.data(), c), gemm::row_major(g.data(), hidden),
                            dw.data(), c, rows, hidden);
           });
  gemms.print();
  std::printf("\n");

  // GELU over the fc1 output on one thread, called as the library calls
  // it: the forward per kNR-wide tile row (the GEMM epilogue), the
  // backward g ⊙ gelu'(u) per kChunk range (the fused linear backward).
  const i64 n = rows * hidden;
  fill_uniform(u, rng, -4.f, 4.f);
  const double fwd_libm = best_rate(n, 3, [&] {
    for (std::size_t i = 0; i < u.size(); ++i) out[i] = gelu_libm(u[i]);
  });
  const double fwd = best_rate(n, 3, [&] {
    for (i64 j = 0; j < n; j += gemm::kNR)
      taser::tensor::kernels::gelu(u.data() + j, out.data() + j, std::min(gemm::kNR, n - j));
  });
  const double bwd_libm = best_rate(n, 3, [&] {
    for (std::size_t i = 0; i < u.size(); ++i) out[i] = g[i] * gelu_grad_libm(u[i]);
  });
  const double bwd = best_rate(n, 3, [&] {
    for (i64 lo = 0; lo < n; lo += taser::tensor::kernels::kChunk)
      taser::tensor::kernels::gelu_grad(g.data() + lo, u.data() + lo, out.data() + lo,
                                        std::min(taser::tensor::kernels::kChunk, n - lo));
  });
  Table gelu({"GELU over fc1 output (" + std::to_string(n) + " elem, 1 thread)",
              "libm Melem/s", "kernel Melem/s", "speedup"});
  gelu.add_row({"forward (epilogue)", Table::fmt(fwd_libm / 1e6, 1), Table::fmt(fwd / 1e6, 1),
                Table::fmt(fwd / fwd_libm, 2)});
  gelu.add_row({"backward g*gelu'(u)", Table::fmt(bwd_libm / 1e6, 1),
                Table::fmt(bwd / 1e6, 1), Table::fmt(bwd / bwd_libm, 2)});
  gelu.print();
  taser::bench::report_metric("gelu.fwd.melem_s", fwd / 1e6);
  taser::bench::report_metric("gelu.fwd_libm.melem_s", fwd_libm / 1e6);
  taser::bench::report_metric("gelu.bwd.melem_s", bwd / 1e6);
  taser::bench::report_metric("gelu.bwd_libm.melem_s", bwd_libm / 1e6);
}

// ---- perf sweep -------------------------------------------------------------

struct ShapeResult {
  std::string key;  ///< metric name part in the --json report
  std::string label;
  double old_gflops = 0, new_gflops = 0;
};

template <typename OldFn, typename NewFn>
ShapeResult measure(const std::string& key, const std::string& label, double flops_per_iter,
                    OldFn old_fn, NewFn new_fn) {
  ShapeResult r;
  r.key = key;
  r.label = label;
  const int iters = flops_per_iter > 1e9 ? 2 : 15;
  const int reps = 3;  // best-of-reps: shields the gate from scheduler noise
  for (int impl = 0; impl < 2; ++impl) {
    auto run = [&] {
      if (impl == 0)
        old_fn();
      else
        new_fn();
    };
    run();  // warm (packs buffers, faults pages)
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer t;
      for (int it = 0; it < iters; ++it) run();
      best = std::max(best, flops_per_iter * iters / t.seconds() / 1e9);
    }
    (impl == 0 ? r.old_gflops : r.new_gflops) = best;
  }
  return r;
}

int run_sweep() {
  std::printf("== GEMM backend: old 4-wide kernels vs packed cache-blocked ==\n");
  std::printf("(decoder-trunk shapes at T=2000, m=32, width 96; token-mix; "
              "edge head; dW big-k)\n\n");
  Rng rng(7);

  // Adaptive-path dims: T=2000 targets x m=32 candidates, encoder
  // width c=96 (dim=16 config x4 sources + identity m=32), channel MLP
  // hidden 4c, token MLP hidden tokens/2.
  const i64 T = 2000, m = 32, c = 96;
  const i64 rows = T * m, ch_hidden = 4 * c, tok_hidden = m / 2;

  std::vector<ShapeResult> results;
  std::vector<float> A, B, C, P;

  auto dense = [&](const std::string& key, const std::string& label, i64 mm, i64 kk,
                   i64 nn) {
    A.assign(static_cast<std::size_t>(mm * kk), 0.f);
    B.assign(static_cast<std::size_t>(kk * nn), 0.f);
    C.assign(static_cast<std::size_t>(mm * nn), 0.f);
    fill_uniform(A, rng);
    fill_uniform(B, rng);
    auto r = measure(
        key, label, 2.0 * mm * kk * nn,
        [&] { old_gemm_acc(A.data(), B.data(), C.data(), mm, kk, nn); },
        [&] {
          gemm::gemm_acc(gemm::row_major(A.data(), kk), gemm::row_major(B.data(), nn),
                         C.data(), mm, kk, nn);
        });
    results.push_back(r);
    return r;
  };

  auto r1 = dense("trunk_fc1", "trunk channel fc1 [" + std::to_string(rows) + "x96 · 96x384]",
                  rows, c, ch_hidden);
  auto r2 = dense("trunk_fc2", "trunk channel fc2 [" + std::to_string(rows) + "x384 · 384x96]",
                  rows, ch_hidden, c);

  // Token mixing: x [T, m, c] consumed through the permute_021 view.
  // The old path materialized the [T, c, m] transpose first; that copy is
  // part of what the strided-B path removes, so it is timed with it.
  {
    A.assign(static_cast<std::size_t>(T * m * c), 0.f);  // x
    fill_uniform(A, rng);
    B.assign(static_cast<std::size_t>(m * tok_hidden), 0.f);  // w
    fill_uniform(B, rng);
    C.assign(static_cast<std::size_t>(T * c * tok_hidden), 0.f);
    P.assign(static_cast<std::size_t>(T * c * m), 0.f);  // old path's transpose
    auto r = measure(
        "token_mix_fc1", "token-mix fc1 (permute_021 · [32x16]) x" + std::to_string(T),
        2.0 * T * c * m * tok_hidden,
        [&] {
          for (i64 b = 0; b < T; ++b) {
            const float* xb = A.data() + b * m * c;
            float* pb = P.data() + b * c * m;
            for (i64 i = 0; i < m; ++i)
              for (i64 j = 0; j < c; ++j) pb[j * m + i] = xb[i * c + j];
          }
          old_gemm_acc(P.data(), B.data(), C.data(), T * c, m, tok_hidden);
        },
        [&] {
          gemm::gemm_batched_acc({A.data(), 1, c}, m * c, T,
                                 gemm::row_major(B.data(), tok_hidden), C.data(),
                                 c * tok_hidden, c, m, tok_hidden);
        });
    results.push_back(r);
  }

  dense("edge_head", "edge head [" + std::to_string(rows) + "x96 · 96x1]", rows, c, 1);

  // dW = Xᵀ·g — the big-k backward shape (k = rows), streamed regime.
  {
    A.assign(static_cast<std::size_t>(rows * c), 0.f);  // X [rows, c]
    B.assign(static_cast<std::size_t>(rows * ch_hidden), 0.f);  // g [rows, 4c]
    C.assign(static_cast<std::size_t>(c * ch_hidden), 0.f);
    fill_uniform(A, rng);
    fill_uniform(B, rng);
    auto r = measure(
        "dw_backward",
        "dW backward [96x" + std::to_string(rows) + " · " + std::to_string(rows) + "x384]",
        2.0 * c * rows * ch_hidden,
        [&] { old_gemm_at_b_acc(A.data(), B.data(), C.data(), c, rows, ch_hidden); },
        [&] {
          gemm::gemm_acc(gemm::transposed(A.data(), c),
                         gemm::row_major(B.data(), ch_hidden), C.data(), c, rows,
                         ch_hidden);
        });
    results.push_back(r);
  }

  Table table({"shape", "old GFLOP/s", "new GFLOP/s", "speedup"});
  for (const auto& r : results) {
    table.add_row({r.label, Table::fmt(r.old_gflops, 2), Table::fmt(r.new_gflops, 2),
                   Table::fmt(r.new_gflops / r.old_gflops, 2)});
    taser::bench::report_metric("gemm." + r.key + ".gflops", r.new_gflops);
    taser::bench::report_metric("gemm." + r.key + ".old_gflops", r.old_gflops);
  }
  table.print();
  std::printf("\n");
  time_taser_trunk(rng);

  const double trunk_speedup =
      std::min(r1.new_gflops / r1.old_gflops, r2.new_gflops / r2.old_gflops);
  std::printf("\ngemm-gate: packed backend >= 2x GFLOP/s on decoder-trunk shapes — "
              "%s (min %.2fx)\n",
              trunk_speedup >= 2.0 ? "HELD" : "MISSED", trunk_speedup);
  taser::bench::report_metric("sweep.trunk_speedup", trunk_speedup);
  return trunk_speedup >= 2.0 ? 0 : 1;
}

// ---- smoke: correctness vs naive double reference ---------------------------

int g_failures = 0;

void expect_close(const char* what, const std::vector<float>& got,
                  const std::vector<double>& want, double tol = 2e-4) {
  double max_err = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(got[i]) - want[i]));
  const bool ok = max_err <= tol;
  std::printf("  %-52s %s (max err %.2e)\n", what, ok ? "PASS" : "FAIL", max_err);
  if (!ok) ++g_failures;
}

double gelu_ref(double x) {
  const double kC = 0.7978845608028654;
  return 0.5 * x * (1.0 + std::tanh(kC * (x + 0.044715 * x * x * x)));
}

void smoke_shape(i64 m, i64 k, i64 n, Rng& rng) {
  std::vector<float> A(static_cast<std::size_t>(m * k)), B(static_cast<std::size_t>(k * n)),
      bias(static_cast<std::size_t>(n));
  fill_uniform(A, rng);
  fill_uniform(B, rng);
  fill_uniform(bias, rng);
  // A zero stripe exercises the packed zero-chunk skip.
  if (m > 2)
    for (i64 p = 0; p < k; ++p) A[static_cast<std::size_t>(2 * k + p)] = 0.f;

  char label[128];

  // Plain C += A·B.
  std::vector<float> C(static_cast<std::size_t>(m * n), 0.5f);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.5);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        ref[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
            B[static_cast<std::size_t>(p * n + j)];
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::row_major(B.data(), n), C.data(),
                 m, k, n);
  std::snprintf(label, sizeof label, "A·B acc              m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, C, ref);

  // Aᵀ stored [k,m]: C += Aᵀ'·B where A' = A reinterpreted column-major.
  std::vector<float> Ct(static_cast<std::size_t>(m * n), 0.f);
  std::vector<double> reft(static_cast<std::size_t>(m * n), 0.0);
  // view: element (i,p) = A[p*m + i] (requires A sized k*m — reuse when
  // square-ish, otherwise build a fresh one).
  std::vector<float> At(static_cast<std::size_t>(k * m));
  fill_uniform(At, rng);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        reft[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(At[static_cast<std::size_t>(p * m + i)]) *
            B[static_cast<std::size_t>(p * n + j)];
  gemm::gemm_acc(gemm::transposed(At.data(), m), gemm::row_major(B.data(), n),
                 Ct.data(), m, k, n);
  std::snprintf(label, sizeof label, "Aᵀ·B acc             m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Ct, reft);

  // Bᵀ stored [n,k]: C += A·Bᵀ'.
  std::vector<float> Bt(static_cast<std::size_t>(n * k));
  fill_uniform(Bt, rng);
  std::vector<float> Cbt(static_cast<std::size_t>(m * n), 0.f);
  std::vector<double> refbt(static_cast<std::size_t>(m * n), 0.0);
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p = 0; p < k; ++p)
        refbt[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
            Bt[static_cast<std::size_t>(j * k + p)];
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::transposed(Bt.data(), k),
                 Cbt.data(), m, k, n);
  std::snprintf(label, sizeof label, "A·Bᵀ acc             m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Cbt, refbt);

  // Fused bias + GELU epilogue with saved pre-activation.
  std::vector<float> Cg(static_cast<std::size_t>(m * n), 0.f),
      preact(static_cast<std::size_t>(m * n), 0.f);
  gemm::Epilogue ep;
  ep.bias = bias.data();
  ep.gelu = true;
  ep.preact = preact.data();
  gemm::gemm_acc(gemm::row_major(A.data(), k), gemm::row_major(B.data(), n), Cg.data(),
                 m, k, n, ep);
  std::vector<double> refu(static_cast<std::size_t>(m * n)),
      refg(static_cast<std::size_t>(m * n));
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j) {
      double u = bias[static_cast<std::size_t>(j)];
      for (i64 p = 0; p < k; ++p)
        u += static_cast<double>(A[static_cast<std::size_t>(i * k + p)]) *
             B[static_cast<std::size_t>(p * n + j)];
      refu[static_cast<std::size_t>(i * n + j)] = u;
      refg[static_cast<std::size_t>(i * n + j)] = gelu_ref(u);
    }
  std::snprintf(label, sizeof label, "bias+gelu epilogue   m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, Cg, refg);
  std::snprintf(label, sizeof label, "saved pre-activation m=%lld k=%lld n=%lld",
                (long long)m, (long long)k, (long long)n);
  expect_close(label, preact, refu);
}

void smoke_batched(Rng& rng) {
  // linear over the permute_021 view: x [B,t,c], w [t,o].
  const i64 nb = 3, t = 5, c = 7, o = 3;
  std::vector<float> x(static_cast<std::size_t>(nb * t * c)),
      w(static_cast<std::size_t>(t * o));
  fill_uniform(x, rng);
  fill_uniform(w, rng);
  std::vector<float> C(static_cast<std::size_t>(nb * c * o), 0.f);
  std::vector<double> ref(static_cast<std::size_t>(nb * c * o), 0.0);
  for (i64 b = 0; b < nb; ++b)
    for (i64 i = 0; i < c; ++i)
      for (i64 j = 0; j < o; ++j)
        for (i64 p = 0; p < t; ++p)
          ref[static_cast<std::size_t>((b * c + i) * o + j)] +=
              static_cast<double>(x[static_cast<std::size_t>((b * t + p) * c + i)]) *
              w[static_cast<std::size_t>(p * o + j)];
  gemm::gemm_batched_acc({x.data(), 1, c}, t * c, nb, gemm::row_major(w.data(), o),
                         C.data(), c * o, c, t, o);
  expect_close("batched permute_021 view (shared packed B)", C, ref);
}

int run_smoke() {
  std::printf("== bench_gemm --smoke: packed backend vs naive reference ==\n");
  Rng rng(13);
  // Odd / tile-unaligned shapes around the kMR=6 / kNR=16 / kKC=256
  // boundaries, multi-chunk k, and one shape whose packed B exceeds
  // kPackAllBytes so the streamed regime (S) runs too.
  const i64 shapes[][3] = {{1, 1, 1},    {3, 5, 17},   {6, 16, 16},
                           {7, 17, 33},  {17, 33, 5},  {33, 300, 9},
                           {5, 515, 40}, {5, 3000, 200}};
  for (const auto& s : shapes) smoke_shape(s[0], s[1], s[2], rng);
  smoke_batched(rng);
  std::printf("%s\n\n", g_failures == 0 ? "smoke: ALL PASS" : "smoke: FAILURES");
  time_taser_trunk(rng);
  taser::bench::report_metric("smoke.failures", g_failures);
  taser::bench::print_shape("packed backend matches naive reference", g_failures == 0);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  int rc = smoke ? run_smoke() : run_sweep();
  rc |= taser::bench::write_json_report(argc, argv, "bench_gemm");
  return rc;
}
