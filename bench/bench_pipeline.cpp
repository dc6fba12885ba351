// Batch-construction pipeline micro-benchmark.
//
// Part 1 — builder hot path at T=200 roots, 2 hops, m=32 candidates,
// n=10 picks. "Batch construction" is the NF+FS+assembly wall time; the
// adaptive sampler's tensor forward (AS) is modeled GPU compute and
// reported separately. Also verifies the workspace arena's zero-
// allocation steady state (ISSUE 1 acceptance).
//
// Part 2 — build/train overlap: batches/sec of a producer-consumer loop
// where the consumer "trains" for a simulated device latency (the CPU is
// idle while the real system's GPU runs propagation), with the pipeline
// at depth 1 (double-buffered prefetch) vs depth 0 (inline builds),
// across train:build ratios.
//
// Part 3 — stale-θ overlap on the *adaptive* path: same producer-consumer
// shape, but every batch's construction depends on the sampler θ, which
// the consumer updates after each step. The sync path must serialise
// (update → build → train); stale-θ builds batch k+1 from a snapshot of θ
// taken at submit time and overlaps it with batch k's train latency.
//
// Part 3b — depth-K ring sweep under *bursty* builds: every 4th batch has
// a much larger root set (the variable fan-outs adaptive selection and
// NeurTW-style time-aware regimes produce) and train latencies jitter.
// A depth-1 ring re-synchronises on every slow build; deeper rings let
// construction run ahead during the fast batches and absorb the burst.
// Gate: K=2 ≥ 1.15x batches/sec over K=1 at train:build 0.5.
//
// Part 4 — the ROADMAP's "benchmark accuracy cost before enabling" gate:
// short TASER training runs (ada_batch + ada_neighbor), synchronous vs
// stale-θ, reporting end-of-training loss and validation MRR deltas.
//
// Part 5 — multi-builder ring sweep: P ∈ {1, 2, 4} builder workers over a
// depth-7 ring with modeled (sleep-hook) device-side build time, the
// regime where construction is the bottleneck. Gate: 4 builders ≥ 2x
// batches/sec over 1 at train:build ≤ 0.5.
//
// --smoke: part 5 only on a reduced dataset, best-of-3 attempts; exits
// non-zero when the multi-builder gate fails (the ctest canary).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>

#include "common.h"
#include "core/batch_pipeline.h"
#include "core/snapshot_pool.h"

using namespace taser;

namespace {

graph::TargetBatch make_roots(const graph::Dataset& data, std::int64_t from,
                              std::int64_t count) {
  graph::TargetBatch b;
  for (std::int64_t i = from; i < from + count; ++i)
    b.push(data.src[static_cast<std::size_t>(i)], data.ts[static_cast<std::size_t>(i)]);
  return b;
}

// --- Part 5: multi-builder ring sweep ---------------------------------------
// Build time is modeled with a sleep hook (the real host-side build at
// T=16 roots is negligible next to it), so builds overlap freely across
// P workers while the consumer "trains" for ratio x build_ms per batch.
// With 4 builders the build stage's throughput ceiling is 4x serial; the
// gate requires >= 2x at train:build <= 0.5 and runs at ratio 0.25 —
// at 0.5 exactly, 2.0x IS the theoretical maximum (the train stage
// becomes the binding ceiling), so any scheduling noise would flake a
// >= 2.0 gate there. The 0.5 row is reported ungated.
int run_multibuilder_sweep(const graph::Dataset& data,
                           sampling::GpuNeighborFinder& finder,
                           cache::PlainFeatureSource& features, gpusim::Device& device,
                           bool smoke) {
  std::printf("\n== Part 5: multi-builder ring sweep (modeled device-side builds) ==\n");
  const std::size_t kDepth = 7;
  const double build_ms = 4.0;
  const int hops = 2;
  graph::TargetBatch roots5 = make_roots(data, data.num_edges() / 2, 16);
  core::BuilderConfig bc;
  bc.n = 10;
  const int attempts = smoke ? 3 : 1;  // keep the best attempt: the gate
                                       // measures capability, not load noise
  const int Ps[3] = {1, 2, 4};
  std::printf("(build modeled as %.1f ms device time/batch; depth-%zu ring; "
              "%s)\n", build_ms, kDepth,
              smoke ? "best of 3 attempts" : "single attempt");
  util::Table mb({"train:build", "P=1 b/s", "P=2 b/s", "P=4 b/s", "P2/P1", "P4/P1"});
  double gate_p4_over_p1 = 0;
  for (double ratio : {0.25, 0.5}) {
    double rates[3] = {0, 0, 0};
    for (int pi = 0; pi < 3; ++pi) {
      double best = 0;
      for (int a = 0; a < attempts; ++a) {
        core::BuilderPool pool(data, finder, features, device, nullptr, bc, kDepth + 1);
        pool.begin_epoch();
        core::BatchPipeline pipeline(pool, hops, kDepth, Ps[pi]);
        pipeline.set_build_hook([&](std::uint64_t) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(build_ms));
        });
        util::Rng master(53);
        const int batches = smoke ? 32 : 48;
        int submitted = 0;
        util::WallTimer t;
        for (int it = 0; it < batches; ++it) {
          while (submitted < batches && submitted <= it + static_cast<int>(kDepth)) {
            pipeline.submit(roots5, master.split());
            ++submitted;
          }
          (void)pipeline.next();
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ratio * build_ms));
        }
        best = std::max(best, batches / t.seconds());
      }
      rates[pi] = best;
    }
    if (ratio == 0.25) gate_p4_over_p1 = rates[2] / rates[0];
    mb.add_row({util::Table::fmt(ratio, 2), util::Table::fmt(rates[0], 1),
                util::Table::fmt(rates[1], 1), util::Table::fmt(rates[2], 1),
                util::Table::fmt(rates[1] / rates[0], 2),
                util::Table::fmt(rates[2] / rates[0], 2)});
  }
  mb.print();
  std::printf("\n");
  bench::report_metric("multibuilder.p4_over_p1", gate_p4_over_p1);
  const bool gate = gate_p4_over_p1 >= 2.0;
  bench::print_shape("4 builders >= 2x batches/sec over 1 at train:build <= 0.5",
                     gate);
  return gate ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  std::printf("== Pipeline: batch construction throughput ==\n\n");

  graph::SyntheticConfig cfg = graph::wikipedia_like(
      smoke ? 0.02 : 0.06 * bench::bench_scale(), 32);
  cfg.node_feat_dim = 32;
  graph::Dataset data = generate_synthetic(cfg);
  graph::TCSR tcsr(data);
  gpusim::Device device;
  sampling::GpuNeighborFinder finder(tcsr, device);
  cache::PlainFeatureSource features(data, device);

  if (smoke) {
    int rc = run_multibuilder_sweep(data, finder, features, device, true);
    rc |= bench::write_json_report(argc, argv, "bench_pipeline");
    return rc;
  }

  const std::int64_t T = 200, m = 32, n = 10;
  const int hops = 2, warmup = 3, iters = 30;
  graph::TargetBatch roots = make_roots(data, data.num_edges() / 2, T);

  // --- Part 1: build() wall time --------------------------------------------
  util::Rng init_rng(5);
  core::EncoderConfig ec;
  ec.node_feat_dim = data.node_feat_dim;
  ec.edge_feat_dim = data.edge_feat_dim;
  ec.dim = 16;
  ec.m = m;
  core::AdaptiveSampler sampler(ec, core::DecoderKind::kLinear, 16, init_rng);
  sampler.set_training(true);

  util::Table table({"path", "batch-constr ms", "NF ms", "FS ms", "AS (modeled-GPU) ms",
                     "build ms", "arena allocs"});
  double serial_build_ms = 0;  // feeds part 2's train:build ratios

  auto measure = [&](const char* label, core::AdaptiveSampler* s, std::int64_t budget_n,
                     std::int64_t budget_m) {
    core::BuilderConfig bc;
    bc.n = budget_n;
    bc.m = budget_m;
    core::BatchBuilder builder(data, finder, features, device, s, bc);
    util::PhaseAccumulator phases;
    util::Rng rng(7);
    double total_ms = 0;
    std::uint64_t allocs_after_warmup = 0;
    bool steady = true;
    for (int it = 0; it < warmup + iters; ++it) {
      if (it == warmup) {
        phases.clear();
        allocs_after_warmup = builder.workspace_alloc_events();
      }
      util::WallTimer t;
      auto built = builder.build(roots, hops, phases, rng);
      if (it >= warmup) total_ms += t.seconds() * 1e3;
    }
    steady = builder.workspace_alloc_events() == allocs_after_warmup;
    total_ms /= iters;
    const double nf = phases.total(core::phase::kNF) / iters * 1e3;
    const double fs = phases.total(core::phase::kFS) / iters * 1e3;
    const double as = phases.total(core::phase::kAS) / iters * 1e3;
    const double constr = total_ms - as;  // NF+FS+assembly: host pipeline cost
    table.add_row({label, util::Table::fmt(constr, 3), util::Table::fmt(nf, 3),
                   util::Table::fmt(fs, 3), s ? util::Table::fmt(as, 3) : "-",
                   util::Table::fmt(total_ms, 3), steady ? "0 (steady)" : "GROWING"});
    if (!s) serial_build_ms = total_ms;
    return steady;
  };

  bool steady_ok = measure("adaptive m=32", &sampler, n, m);
  steady_ok &= measure("baseline n=10", nullptr, n, m);
  table.print();
  std::printf("\n");
  bench::print_shape("workspace arena allocates nothing in steady state", steady_ok);

  // --- Part 2: build/train overlap ------------------------------------------
  // The consumer sleeps for `ratio * serial_build_ms` per batch — the
  // modeled device-side propagation during which the real system's CPU is
  // free. Prefetch should hide build time behind it.
  std::printf("\n(train latency simulated as ratio x %.2f ms serial build time)\n",
              serial_build_ms);
  util::Table overlap({"train:build", "serial batches/s", "prefetch batches/s", "speedup"});
  bool prefetch_wins = true;
  for (double ratio : {0.5, 1.0, 2.0}) {
    const auto train_latency = std::chrono::duration<double, std::milli>(
        ratio * serial_build_ms);
    double rates[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      const bool async = mode == 1;
      core::BuilderConfig bc;
      bc.n = n;
      core::BuilderPool pool(data, finder, features, device, nullptr, bc, 2);
      pool.begin_epoch();
      core::BatchPipeline pipeline(pool, hops, /*depth=*/async ? 1 : 0, /*workers=*/1);
      util::Rng master(11);
      const int batches = 20;
      // Warm both slot arenas before timing.
      for (std::size_t k = 0; k < pool.num_slots(); ++k) {
        pipeline.submit(roots, master.split());
        (void)pipeline.next();
      }
      util::WallTimer t;
      pipeline.submit(roots, master.split());
      for (int k = 0; k < batches; ++k) {
        if (async && k + 1 < batches) pipeline.submit(roots, master.split());
        auto prep = pipeline.next();
        std::this_thread::sleep_for(train_latency);  // modeled GPU propagation
        if (!async && k + 1 < batches) pipeline.submit(roots, master.split());
      }
      rates[mode] = batches / t.seconds();
    }
    if (rates[1] <= rates[0]) prefetch_wins = false;
    overlap.add_row({util::Table::fmt(ratio, 1), util::Table::fmt(rates[0], 1),
                     util::Table::fmt(rates[1], 1),
                     util::Table::fmt(rates[1] / rates[0], 2)});
  }
  overlap.print();
  std::printf("\n");
  bench::print_shape("double-buffered prefetch raises batches/sec over serial",
                     prefetch_wins);

  // --- Part 3: stale-θ overlap on the adaptive path -------------------------
  // The consumer updates θ after every batch (as sampler co-training
  // does), so the sync pipeline must wait for the step before building
  // the next batch. Stale-θ submits batch k+1 against a frozen copy of θ
  // and overlaps its construction with batch k's train latency.
  std::printf("\n== Part 3: stale-θ prefetch, adaptive (ada_neighbor) path ==\n");
  // Smaller root set than part 1 (the sampler forward dominates wall time
  // here); its build cost is measured fresh below.
  const std::int64_t T3 = 64;
  graph::TargetBatch roots3 = make_roots(data, data.num_edges() / 2, T3);
  double stale_build_ms = 0;
  {
    core::BuilderConfig bc;
    bc.n = n;
    bc.m = m;
    core::BatchBuilder probe(data, finder, features, device, &sampler, bc);
    util::PhaseAccumulator scratch;
    util::Rng rng(23);
    sampler.set_training(true);
    probe.build(roots3, hops, scratch, rng);  // arena warm-up
    util::WallTimer t;
    for (int k = 0; k < 3; ++k) probe.build(roots3, hops, scratch, rng);
    stale_build_ms = t.seconds() / 3 * 1e3;
  }
  std::printf("(train latency simulated as ratio x %.2f ms adaptive build time at "
              "T=%lld; θ perturbed after every batch)\n", stale_build_ms,
              static_cast<long long>(T3));
  // Frozen-θ copies come from the pooled snapshot machinery the trainer
  // uses (2 slots = the depth-1 double buffer).
  core::SamplerSnapshotPool snap_pool(2, [&] {
    util::Rng snap_rng(41);
    return std::make_unique<core::AdaptiveSampler>(ec, core::DecoderKind::kLinear, 16,
                                                   snap_rng);
  });
  auto perturb_theta = [&]() {
    // Stand-in for the Adam step: nudge every live parameter, so each
    // build sees a genuinely different policy (snapshots must be re-taken
    // per batch, exactly like the trainer's stale path).
    for (auto& p : sampler.parameters()) {
      float* x = p.data();
      const std::int64_t np = p.numel();
      for (std::int64_t i = 0; i < np; ++i)
        x[i] += 1e-4f * (i % 2 == 0 ? 1.f : -1.f);
    }
  };
  util::Table stale_tbl(
      {"train:build", "sync batches/s", "stale-θ batches/s", "speedup"});
  double speedup_at_parity = 0;
  for (double ratio : {0.5, 1.0, 2.0}) {
    const auto train_latency =
        std::chrono::duration<double, std::milli>(ratio * stale_build_ms);
    double rates[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      const bool stale = mode == 1;
      core::BuilderConfig bc;
      bc.n = n;
      bc.m = m;
      core::BuilderPool pool(data, finder, features, device, &sampler, bc, 2);
      pool.begin_epoch();
      core::BatchPipeline pipeline(pool, hops, /*depth=*/stale ? 1 : 0, /*workers=*/1);
      util::Rng master(17);
      const int batches = 8;
      std::deque<core::AdaptiveSampler*> inflight;
      auto submit = [&]() {
        core::AdaptiveSampler* snapshot = nullptr;
        if (stale) {
          snapshot = snap_pool.acquire(sampler);
          snapshot->set_training(true);
        }
        inflight.push_back(snapshot);
        pipeline.submit(roots3, master.split(), snapshot);
      };
      auto consume = [&]() {
        (void)pipeline.next();
        if (inflight.front()) snap_pool.release(inflight.front());
        inflight.pop_front();
      };
      sampler.set_training(true);
      for (std::size_t k = 0; k < pool.num_slots(); ++k) {  // slot arena warm-up
        submit();
        consume();
      }
      util::WallTimer t;
      submit();
      for (int k = 0; k < batches; ++k) {
        if (stale && k + 1 < batches) submit();
        consume();
        std::this_thread::sleep_for(train_latency);  // modeled GPU propagation
        perturb_theta();
        // Sync: only after the θ update may the next batch be built.
        if (!stale && k + 1 < batches) submit();
      }
      rates[mode] = batches / t.seconds();
    }
    const double speedup = rates[1] / rates[0];
    if (ratio == 1.0) speedup_at_parity = speedup;
    stale_tbl.add_row({util::Table::fmt(ratio, 1), util::Table::fmt(rates[0], 1),
                       util::Table::fmt(rates[1], 1), util::Table::fmt(speedup, 2)});
  }
  stale_tbl.print();
  std::printf("\n");
  bench::print_shape(
      "stale-θ prefetch >= 1.3x batches/sec over sync on the adaptive path",
      speedup_at_parity >= 1.3);

  // --- Part 3b: depth-K ring sweep under bursty builds ----------------------
  // Constant-cost builds hide completely behind one train step, so depth
  // 1 is enough there (part 3). Real adaptive workloads are bursty: batch
  // composition changes the fan-out, so build times spike. Here every 4th
  // batch carries an 8x root set and train latencies jitter ±60% around
  // the ratio point; a depth-1 ring re-synchronises on each spike, while
  // K ≥ 2 keeps the worker fed through it.
  std::printf("\n== Part 3b: depth-K ring sweep (bursty adaptive builds, θ "
              "perturbed per batch) ==\n");
  {
    const std::int64_t t_small = 16, t_big = 128;   // 8x burst every 4th batch
    graph::TargetBatch roots_small = make_roots(data, data.num_edges() / 2, t_small);
    graph::TargetBatch roots_big = make_roots(data, data.num_edges() / 3, t_big);
    auto roots_of = [&](int k) -> graph::TargetBatch& {
      return k % 4 == 3 ? roots_big : roots_small;
    };
    core::BuilderConfig bc;
    bc.n = n;
    bc.m = m;
    // Probe per-shape build cost (and warm both arena shapes).
    double small_ms = 0, big_ms = 0;
    {
      core::BatchBuilder probe(data, finder, features, device, &sampler, bc);
      util::PhaseAccumulator scratch;
      util::Rng rng(29);
      sampler.set_training(true);
      probe.build(roots_small, hops, scratch, rng);
      probe.build(roots_big, hops, scratch, rng);
      util::WallTimer ts;
      for (int k = 0; k < 3; ++k) probe.build(roots_small, hops, scratch, rng);
      small_ms = ts.seconds() / 3 * 1e3;
      util::WallTimer tb;
      for (int k = 0; k < 2; ++k) probe.build(roots_big, hops, scratch, rng);
      big_ms = tb.seconds() / 2 * 1e3;
    }
    const double mean_build_ms = (3 * small_ms + big_ms) / 4;
    std::printf("(build ms: small %.2f, burst %.2f, mean %.2f; train latency = "
                "ratio x mean, jittered x{0.4, 1.6})\n", small_ms, big_ms,
                mean_build_ms);

    const int depths[] = {0, 1, 2, 4};  // 0 = fully synchronous baseline
    util::Table sweep({"train:build", "sync b/s", "K=1 b/s", "K=2 b/s", "K=4 b/s",
                       "K2/K1", "K4/K1"});
    double gate_k2_over_k1 = 0;
    for (double ratio : {0.25, 0.5, 1.0}) {
      double rates[4] = {0, 0, 0, 0};
      for (int mode = 0; mode < 4; ++mode) {
        const int K = depths[mode];
        core::BuilderPool builders(data, finder, features, device, &sampler, bc,
                                   static_cast<std::size_t>(K) + 1);
        builders.begin_epoch();
        core::BatchPipeline pipeline(builders, hops, static_cast<std::size_t>(K),
                                     /*workers=*/1);
        core::SamplerSnapshotPool pool(static_cast<std::size_t>(K) + 1, [&] {
          util::Rng snap_rng(41);
          return std::make_unique<core::AdaptiveSampler>(
              ec, core::DecoderKind::kLinear, 16, snap_rng);
        });
        util::Rng master(37);
        // Warm-up covers every (slot, shape) pair the timed batches use:
        // batch j builds on slot j mod (K+1) with shape j mod 4.
        const int warmup3b = 4 * (K + 1), batches = 24;
        std::deque<core::AdaptiveSampler*> inflight;
        int submitted = 0, consumed = 0;
        auto submit = [&]() {
          core::AdaptiveSampler* snapshot = pool.acquire(sampler);
          snapshot->set_training(true);
          inflight.push_back(snapshot);
          pipeline.submit(roots_of(submitted), master.split(), snapshot);
          ++submitted;
        };
        auto consume = [&]() {
          (void)pipeline.next();
          pool.release(inflight.front());
          inflight.pop_front();
          ++consumed;
        };
        sampler.set_training(true);
        for (int k = 0; k < warmup3b; ++k) {
          submit();
          consume();
        }
        submitted = consumed = 0;
        util::WallTimer t;
        for (int it = 0; it < batches; ++it) {
          // Trainer-shaped schedule: batch j may be submitted once step
          // j - K has completed (at K = 0, after the θ update below).
          while (submitted < batches && submitted <= it + K) submit();
          consume();
          const double jitter = it % 2 == 0 ? 0.4 : 1.6;
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              ratio * mean_build_ms * jitter));
          perturb_theta();
        }
        rates[mode] = batches / t.seconds();
      }
      if (ratio == 0.5) gate_k2_over_k1 = rates[2] / rates[1];
      sweep.add_row({util::Table::fmt(ratio, 2), util::Table::fmt(rates[0], 1),
                     util::Table::fmt(rates[1], 1), util::Table::fmt(rates[2], 1),
                     util::Table::fmt(rates[3], 1),
                     util::Table::fmt(rates[2] / rates[1], 2),
                     util::Table::fmt(rates[3] / rates[1], 2)});
    }
    sweep.print();
    std::printf("\n");
    bench::print_shape(
        "depth-2 ring >= 1.15x batches/sec over depth-1 at train:build 0.5 "
        "(bursty builds)",
        gate_k2_over_k1 >= 1.15);
  }

  // --- Part 4: stale-θ accuracy gate ----------------------------------------
  // ROADMAP: "benchmark accuracy cost before enabling". Short TASER runs
  // (ada_batch + ada_neighbor), identical seeds, sync vs stale-θ; the
  // numbers below are the gate's answer.
  std::printf("\n== Part 4: stale-θ accuracy gate (TASER config, sync vs stale-θ) ==\n");
  {
    graph::SyntheticConfig acfg;
    acfg.num_src = 60;
    acfg.num_dst = 30;
    acfg.num_edges = static_cast<std::int64_t>(2000 * bench::bench_scale());
    if (acfg.num_edges < 800) acfg.num_edges = 800;
    acfg.edge_feat_dim = 8;
    acfg.node_feat_dim = 4;
    acfg.seed = 19;
    graph::Dataset adata = generate_synthetic(acfg);

    core::TrainerConfig tc;
    tc.backbone = core::BackboneKind::kTgat;
    tc.finder = core::FinderKind::kGpu;
    tc.ada_batch = true;
    tc.ada_neighbor = true;
    tc.batch_size = 128;
    tc.n_neighbors = 4;
    tc.m_candidates = 10;
    tc.hidden_dim = 16;
    tc.time_dim = 8;
    tc.sampler_dim = 8;
    tc.decoder_hidden = 8;
    tc.max_eval_edges = 120;
    tc.seed = 3;
    const int epochs = std::max(2, static_cast<int>(4 * bench::bench_scale()));

    double final_loss[2] = {0, 0}, val_mrr[2] = {0, 0}, wall_s[2] = {0, 0};
    std::int64_t stale_builds[2] = {0, 0};
    util::Table acc({"mode", "final loss", "val MRR %", "s/epoch", "stale builds"});
    for (int mode = 0; mode < 2; ++mode) {
      core::TrainerConfig cfg = tc;
      cfg.prefetch_mode = mode == 0 ? core::PrefetchMode::kSyncOnly
                                    : core::PrefetchMode::kStaleTheta;
      core::Trainer trainer(adata, cfg);
      util::WallTimer t;
      core::EpochStats last;
      for (int e = 0; e < epochs; ++e) {
        last = trainer.train_epoch();
        stale_builds[mode] += last.stale_builds();
      }
      wall_s[mode] = t.seconds() / epochs;
      final_loss[mode] = last.mean_loss;
      val_mrr[mode] = trainer.evaluate_val_mrr();
      acc.add_row({mode == 0 ? "sync" : "stale-θ", util::Table::fmt(final_loss[mode], 4),
                   util::Table::fmt(100 * val_mrr[mode], 2),
                   util::Table::fmt(wall_s[mode], 2),
                   std::to_string(stale_builds[mode])});
    }
    acc.print();
    const double loss_delta = final_loss[1] - final_loss[0];
    const double mrr_delta = 100 * (val_mrr[1] - val_mrr[0]);
    std::printf("\nstale-θ vs sync after %d epochs: loss %+.4f (%+.1f%%), "
                "val MRR %+.2f points\n", epochs, loss_delta,
                100 * loss_delta / std::max(1e-9, final_loss[0]), mrr_delta);
    bench::print_shape("stale-θ end-of-training loss within 10% of sync",
                       std::fabs(loss_delta) <= 0.10 * final_loss[0]);
  }

  // Full runs report the multi-builder sweep too, but only --smoke turns
  // the gate into a process exit status (the ctest canary).
  (void)run_multibuilder_sweep(data, finder, features, device, false);
  return bench::write_json_report(argc, argv, "bench_pipeline");
}
