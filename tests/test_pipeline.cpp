// Batch-construction pipeline: depth-K ring prefetch vs serial
// bit-identity (depth 0 builds inline on the caller), deterministic RNG
// hand-off, the workspace arena's zero-allocation steady state,
// thread-count invariance, the stale-θ prefetch regression suite (depth 0
// ≡ sync conformance anchor, repeat-level reproducibility, step-0
// equivalence), the DepthK suite (deterministic staleness histograms),
// the multi-builder suite (P ≡ 1 for every finder; the cache's books
// count every gather), and the snapshot-pool lifetime contract
// (pinned-slot recycling is a hard error; released slots are poisoned).
#include <gtest/gtest.h>

#include <omp.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>

#include "cache/feature_source.h"
#include "core/batch_pipeline.h"
#include "core/snapshot_pool.h"
#include "core/trainer.h"
#include "graph/synthetic.h"
#include "obs/metrics.h"
#include "pipeline_test_util.h"
#include "sampling/gpu_finder.h"
#include "util/failpoint.h"

using namespace taser;
using namespace taser::core;
using testutil::OmpThreadGuard;
using testutil::PoolStack;
using testutil::Stack;
using testutil::batch_roots;
using testutil::expect_built_eq;
using testutil::expect_tensor_eq;

namespace {

graph::Dataset small_data() {
  graph::SyntheticConfig cfg;
  cfg.num_src = 60;
  cfg.num_dst = 30;
  cfg.num_edges = 2500;
  cfg.edge_feat_dim = 6;
  cfg.node_feat_dim = 4;
  cfg.seed = 17;
  return generate_synthetic(cfg);
}

void run_pipeline_vs_serial(bool adaptive) {
  graph::Dataset data = small_data();
  Stack serial(data, adaptive);
  PoolStack piped(data, adaptive, 2);

  const int kBatches = 5;
  const int kHops = 2;

  // Serial reference: per-batch forked rng, batches in order.
  util::Rng master_a(99);
  std::vector<BatchBuilder::Built> ref;
  util::PhaseAccumulator scratch;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1800 + 40 * k, 12), kHops,
                                        scratch, batch_rng));
  }

  // Depth-1 pipeline, double-buffered: identical fork order at submit time.
  util::Rng master_b(99);
  BatchPipeline pipeline(*piped.pool, kHops, /*depth=*/1, /*workers=*/1);
  EXPECT_EQ(pipeline.workers(), 1);
  pipeline.submit(batch_roots(data, 1800, 12), master_b.split());
  for (int k = 0; k < kBatches; ++k) {
    if (k + 1 < kBatches)
      pipeline.submit(batch_roots(data, 1800 + 40 * (k + 1), 12), master_b.split());
    BatchPipeline::Prepared prep = pipeline.next();
    expect_built_eq(ref[static_cast<std::size_t>(k)], prep.built);
  }
  EXPECT_EQ(pipeline.pending(), 0u);
}

TEST(Pipeline, PrefetchBitIdenticalToSerialBaseline) {
  run_pipeline_vs_serial(/*adaptive=*/false);
}

TEST(Pipeline, PrefetchBitIdenticalToSerialAdaptive) {
  run_pipeline_vs_serial(/*adaptive=*/true);
}

TEST(Pipeline, SyncModeAlsoMatchesSerial) {
  // Depth 0 is the synchronous pipeline: no worker thread, and next()
  // builds on the caller's thread — bit-identical to serial builds.
  graph::Dataset data = small_data();
  Stack serial(data, /*adaptive=*/true);
  PoolStack piped(data, /*adaptive=*/true, 1);

  const int kBatches = 3;
  util::Rng master_a(7);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 2000 + 20 * k, 10), 1, scratch,
                                        batch_rng));
  }

  util::Rng master_b(7);
  BatchPipeline pipeline(*piped.pool, 1, /*depth=*/0, /*workers=*/4);
  EXPECT_EQ(pipeline.workers(), 0);
  EXPECT_EQ(pipeline.capacity(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller_builds{0};
  pipeline.set_build_hook([&](std::uint64_t) {
    if (std::this_thread::get_id() != caller) ++off_caller_builds;
  });
  for (int k = 0; k < kBatches; ++k) {
    pipeline.submit(batch_roots(data, 2000 + 20 * k, 10), master_b.split());
    expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
  }
  EXPECT_EQ(off_caller_builds.load(), 0);
  EXPECT_EQ(pipeline.built_count(), static_cast<std::uint64_t>(kBatches));
}

TEST(Pipeline, WorkspaceZeroAllocSteadyState) {
  graph::Dataset data = small_data();
  for (bool adaptive : {false, true}) {
    Stack st(data, adaptive);
    util::PhaseAccumulator scratch;
    util::Rng rng(3);
    auto roots = batch_roots(data, 2100, 16);
    // Warm-up batch grows the arena; every later batch of the same shape
    // must not allocate inside it.
    st.builder->build(roots, 2, scratch, rng);
    const std::uint64_t after_warmup = st.builder->workspace_alloc_events();
    EXPECT_GT(after_warmup, 0u);
    for (int k = 0; k < 4; ++k) st.builder->build(roots, 2, scratch, rng);
    EXPECT_EQ(st.builder->workspace_alloc_events(), after_warmup)
        << (adaptive ? "adaptive" : "baseline") << " path allocated in steady state";
  }
}

TEST(Pipeline, TrainerPrefetchOnOffBitIdentical) {
  // A non-adaptive run at depth 0 (inline builds) ≡ the same run at the
  // default depth 1.
  graph::SyntheticConfig cfg;
  cfg.num_src = 50;
  cfg.num_dst = 25;
  cfg.num_edges = 1500;
  cfg.edge_feat_dim = 6;
  cfg.node_feat_dim = 4;
  cfg.seed = 23;
  graph::Dataset data = generate_synthetic(cfg);

  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.batch_size = 96;
  tc.n_neighbors = 4;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 4;

  TrainerConfig tc_serial = tc;
  tc_serial.prefetch_depth = 0;

  Trainer fast(data, tc);
  Trainer slow(data, tc_serial);
  for (int e = 0; e < 2; ++e) {
    const auto sf = fast.train_epoch();
    const auto ss = slow.train_epoch();
    EXPECT_EQ(sf.mean_loss, ss.mean_loss) << "epoch " << e;
    EXPECT_GT(sf.prefetched_batches, 0);
    EXPECT_EQ(ss.prefetched_batches, 0);
  }
  EXPECT_EQ(fast.evaluate_val_mrr(), slow.evaluate_val_mrr());
}

TEST(Pipeline, AdaptiveTrainerDegradesToSyncAndStaysDeterministic) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 50;
  cfg.num_dst = 25;
  cfg.num_edges = 1500;
  cfg.edge_feat_dim = 6;
  cfg.node_feat_dim = 4;
  cfg.seed = 29;
  graph::Dataset data = generate_synthetic(cfg);

  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.ada_batch = true;
  tc.ada_neighbor = true;
  tc.batch_size = 96;
  tc.n_neighbors = 3;
  tc.m_candidates = 8;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.sampler_dim = 8;
  tc.decoder_hidden = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 3;

  Trainer a(data, tc);
  Trainer b(data, tc);
  const auto sa = a.train_epoch();
  const auto sb = b.train_epoch();
  // Feedback loops force the sync path even with prefetch requested...
  EXPECT_EQ(sa.prefetched_batches, 0);
  // ...and two identically-seeded runs stay bit-identical.
  EXPECT_EQ(sa.mean_loss, sb.mean_loss);
}

// ---- thread-count invariance ----------------------------------------------

TEST(Pipeline, ThreadCountInvariantBitIdentical) {
  // ROADMAP claim made executable: every parallel per-target loop writes
  // disjoint ranges, so builds are bit-identical regardless of team size.
  // Three team sizes are compared: a 1-thread and a 4-thread serial build
  // (both forced on this thread — omp_set_num_threads only affects the
  // calling thread's ICV, so this is the genuine 1-vs-4 comparison in
  // every OMP_NUM_THREADS environment), plus the depth-K pipeline, whose
  // worker thread picks its own (env-derived, halved) team size.
  graph::Dataset data = small_data();
  for (bool adaptive : {false, true}) {
    OmpThreadGuard guard;
    Stack one(data, adaptive);
    Stack four(data, adaptive);

    const int kBatches = 3;
    util::PhaseAccumulator scratch;
    // 40 roots > the builder's T>32 parallelisation threshold.
    auto serial_builds = [&](Stack& st, int threads) {
      omp_set_num_threads(testutil::tsan_safe_threads(threads));
      util::Rng master(31);
      std::vector<BatchBuilder::Built> out;
      for (int k = 0; k < kBatches; ++k) {
        util::Rng batch_rng = master.split();
        out.push_back(st.builder->build(batch_roots(data, 1500 + 50 * k, 40), 2,
                                        scratch, batch_rng));
      }
      return out;
    };
    auto ref = serial_builds(one, 1);
    auto wide = serial_builds(four, 4);
    for (int k = 0; k < kBatches; ++k)
      expect_built_eq(ref[static_cast<std::size_t>(k)],
                      wide[static_cast<std::size_t>(k)]);

    PoolStack piped(data, adaptive, kBatches);
    util::Rng master_b(31);
    BatchPipeline pipeline(*piped.pool, 2, /*depth=*/kBatches - 1, /*workers=*/1);
    for (int k = 0; k < kBatches; ++k)
      pipeline.submit(batch_roots(data, 1500 + 50 * k, 40), master_b.split());
    for (int k = 0; k < kBatches; ++k)
      expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
  }
}

// ---- stale-θ prefetch regression suite -------------------------------------

TrainerConfig stale_suite_config() {
  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.ada_batch = true;
  tc.ada_neighbor = true;
  tc.batch_size = 96;
  tc.n_neighbors = 3;
  tc.m_candidates = 8;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.sampler_dim = 8;
  tc.decoder_hidden = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 3;
  return tc;
}

graph::Dataset stale_suite_data(std::uint64_t seed) {
  return testutil::small_trainer_data(seed);
}

TEST(StaleTheta, SnapshotBuildBitIdenticalToLiveSampler) {
  // Builder/pipeline-level staleness=0 anchor: a frozen copy of θ handed
  // through the pipeline Job must reproduce the live sampler's builds
  // bit-for-bit (no update happened in between).
  graph::Dataset data = small_data();
  const int kBatches = 3;
  Stack serial(data, /*adaptive=*/true);
  PoolStack piped(data, /*adaptive=*/true, kBatches);

  // Deliberately different init: only copy_parameters_from may make the
  // snapshot agree with the live sampler.
  util::Rng snap_init(12345);
  EncoderConfig ec;
  ec.node_feat_dim = data.node_feat_dim;
  ec.edge_feat_dim = data.edge_feat_dim;
  ec.dim = 8;
  ec.m = 9;
  AdaptiveSampler snapshot(ec, DecoderKind::kLinear, 8, snap_init);
  snapshot.copy_parameters_from(*piped.sampler);
  snapshot.set_training(true);

  util::Rng master_a(77);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1900 + 30 * k, 12), 2,
                                        scratch, batch_rng));
  }

  util::Rng master_b(77);
  BatchPipeline pipeline(*piped.pool, 2, /*depth=*/kBatches - 1, /*workers=*/1);
  for (int k = 0; k < kBatches; ++k)
    pipeline.submit(batch_roots(data, 1900 + 30 * k, 12), master_b.split(), &snapshot);
  for (int k = 0; k < kBatches; ++k)
    expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
}

TEST(StaleTheta, ZeroStalenessBitIdenticalToSync) {
  // The conformance anchor: kStaleTheta at depth 0 runs the snapshot
  // machinery (frozen-θ hand-off, deferred gradient fold-back) with
  // submission sequenced after the step — the run must be bit-identical
  // to kSyncOnly, at trainer level, across epochs.
  graph::Dataset data = stale_suite_data(29);
  TrainerConfig tc_sync = stale_suite_config();
  tc_sync.prefetch_mode = PrefetchMode::kSyncOnly;
  TrainerConfig tc_anchor = stale_suite_config();
  tc_anchor.prefetch_mode = PrefetchMode::kStaleTheta;
  tc_anchor.prefetch_depth = 0;

  Trainer sync(data, tc_sync);
  Trainer anchor(data, tc_anchor);
  for (int e = 0; e < 2; ++e) {
    const auto ss = sync.train_epoch();
    const auto sa = anchor.train_epoch();
    EXPECT_EQ(ss.mean_loss, sa.mean_loss) << "epoch " << e;
    EXPECT_EQ(sa.stale_builds(), 0);
    EXPECT_EQ(sa.prefetched_batches, 0);
    ASSERT_EQ(sa.staleness_hist.size(), 1u);
    EXPECT_EQ(sa.staleness_hist[0], sa.iterations);
  }
  ASSERT_NE(anchor.snapshot_pool(), nullptr);
  EXPECT_EQ(anchor.snapshot_pool()->acquires(),
            static_cast<std::uint64_t>(2 * tc_anchor.max_iters_per_epoch))
      << "depth 0 must still run the snapshot hand-off";
  EXPECT_EQ(sync.evaluate_val_mrr(), anchor.evaluate_val_mrr());
}

TEST(StaleTheta, ReproducibleAcrossRepeats) {
  // With the fixed staleness schedule (one step at the default depth 1),
  // two identically-seeded stale-θ runs are bit-identical — and the
  // overlap actually happens.
  graph::Dataset data = stale_suite_data(31);
  TrainerConfig tc = stale_suite_config();
  tc.prefetch_mode = PrefetchMode::kStaleTheta;

  Trainer a(data, tc);
  Trainer b(data, tc);
  for (int e = 0; e < 2; ++e) {
    const auto sa = a.train_epoch();
    const auto sb = b.train_epoch();
    EXPECT_EQ(sa.mean_loss, sb.mean_loss) << "epoch " << e;
    EXPECT_EQ(sa.stale_builds(), sb.stale_builds());
    EXPECT_GT(sa.prefetched_batches, 0) << "stale-θ run did not overlap";
    EXPECT_GT(sa.stale_builds(), 0) << "no build ever saw a stale θ";
  }
  EXPECT_EQ(a.evaluate_val_mrr(), b.evaluate_val_mrr());
  // Selector staleness accounting: both runs applied the same Eq. 11
  // update sequence (one per positive edge per batch).
  ASSERT_NE(a.selector(), nullptr);
  EXPECT_EQ(a.selector()->num_updates(), b.selector()->num_updates());
  EXPECT_EQ(a.selector()->num_updates(),
            2 * tc.max_iters_per_epoch * tc.batch_size);
}

// ---- depth-K ring conformance suite ----------------------------------------

TEST(DepthK, ReproducibleWithDeterministicHistogramAtDepth2And4) {
  // Deeper rings stay bit-reproducible across identically-seeded repeats,
  // and the staleness schedule itself is deterministic: batch j observes
  // exactly min(j, K) stale updates (one θ update lands per iteration on
  // this config), so the histogram is [1, 1, ..., iters - K].
  graph::Dataset data = stale_suite_data(43);
  for (int K : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "depth K=" << K);
    TrainerConfig tc = stale_suite_config();
    tc.prefetch_mode = PrefetchMode::kStaleTheta;
    tc.prefetch_depth = K;
    tc.max_iters_per_epoch = 6;

    Trainer a(data, tc);
    Trainer b(data, tc);
    const auto sa = a.train_epoch();
    const auto sb = b.train_epoch();
    EXPECT_EQ(sa.mean_loss, sb.mean_loss);
    EXPECT_EQ(sa.staleness_hist, sb.staleness_hist);
    EXPECT_EQ(a.evaluate_val_mrr(), b.evaluate_val_mrr());

    ASSERT_EQ(sa.staleness_hist.size(), static_cast<std::size_t>(K) + 1);
    std::int64_t total = 0;
    for (auto c : sa.staleness_hist) total += c;
    EXPECT_EQ(total, sa.iterations);
    for (int s = 0; s < K; ++s)
      EXPECT_EQ(sa.staleness_hist[static_cast<std::size_t>(s)], 1)
          << "warm-up batch " << s;
    EXPECT_EQ(sa.staleness_hist[static_cast<std::size_t>(K)], sa.iterations - K);
    EXPECT_GT(sa.prefetched_batches, 0);
  }
}

// ---- snapshot-pool lifetime contract ---------------------------------------

TEST(SnapshotPool, PinnedRecycleIsHardErrorAndReleasePoisons) {
  graph::Dataset data = small_data();
  EncoderConfig ec;
  ec.node_feat_dim = data.node_feat_dim;
  ec.edge_feat_dim = data.edge_feat_dim;
  ec.dim = 8;
  ec.m = 9;
  util::Rng live_rng(99);
  AdaptiveSampler live(ec, DecoderKind::kLinear, 8, live_rng);
  live.bump_generation();
  live.bump_generation();

  SamplerSnapshotPool pool(2, [&] {
    util::Rng snap_rng(7);
    return std::make_unique<AdaptiveSampler>(ec, DecoderKind::kLinear, 8, snap_rng);
  });
  pool.set_poison_on_release(true);  // exercise the debug aid in any build type

  AdaptiveSampler* s0 = pool.acquire(live);
  EXPECT_EQ(pool.pinned(), 1u);
  // Generation tags travel with the copy: the snapshot records which θ
  // version it froze.
  EXPECT_EQ(s0->generation(), live.generation());
  const std::vector<float> live_p0 = live.parameters()[0].to_vector();
  EXPECT_EQ(s0->parameters()[0].to_vector(), live_p0);

  AdaptiveSampler* s1 = pool.acquire(live);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(pool.pinned(), 2u);

  // All slots pinned: recycling the oldest while its batch is still in
  // flight must fail loudly, not silently tear the parameters.
  EXPECT_THROW(pool.acquire(live), std::runtime_error);

  // Release → the slot's values are dead and poisoned (NaN) so a stale
  // pointer read cannot silently see old θ...
  pool.release(s0);
  EXPECT_EQ(pool.pinned(), 1u);
  for (float v : s0->parameters()[0].to_vector()) EXPECT_TRUE(std::isnan(v));

  // ...and the next acquire reuses exactly that slot (round-robin
  // submission order), overwriting the poison with fresh live values.
  live.bump_generation();
  AdaptiveSampler* s2 = pool.acquire(live);
  EXPECT_EQ(s2, s0);
  EXPECT_EQ(s2->generation(), live.generation());
  EXPECT_EQ(s2->parameters()[0].to_vector(), live_p0);

  // Double-release and foreign pointers are contract violations too.
  pool.release(s1);
  EXPECT_THROW(pool.release(s1), std::runtime_error);
  AdaptiveSampler outsider(ec, DecoderKind::kLinear, 8, live_rng);
  EXPECT_THROW(pool.release(&outsider), std::runtime_error);
  EXPECT_EQ(pool.acquires(), 3u);
}

TEST(SnapshotPool, RingOverCapacitySubmitIsHardError) {
  // The pipeline side of the same lifetime argument: the ring refuses to
  // accept more in-flight batches than it has slots.
  graph::Dataset data = small_data();
  PoolStack st(data, /*adaptive=*/false, 2);
  util::Rng master(13);
  BatchPipeline pipeline(*st.pool, 1, /*depth=*/1, /*workers=*/1);
  EXPECT_EQ(pipeline.capacity(), 2u);
  EXPECT_EQ(pipeline.depth(), 1u);
  pipeline.submit(batch_roots(data, 2000, 6), master.split());
  pipeline.submit(batch_roots(data, 2010, 6), master.split());
  EXPECT_THROW(pipeline.submit(batch_roots(data, 2020, 6), master.split()),
               std::runtime_error);
  (void)pipeline.next();
  // Consuming frees a slot; submission may proceed again.
  pipeline.submit(batch_roots(data, 2020, 6), master.split());
  (void)pipeline.next();
  (void)pipeline.next();
  EXPECT_EQ(pipeline.pending(), 0u);
}

// ---- multi-builder conformance suite ---------------------------------------

TEST(MultiBuilder, PoolPipelineBitIdenticalToSerialAnyWorkerCount) {
  // The tentpole anchor at the raw-pipeline level: P ∈ {1, 2, 4} builder
  // workers over a depth-3 ring must reproduce the serial single-builder
  // build stream bit-for-bit, batch by batch.
  graph::Dataset data = small_data();
  const int kBatches = 8;
  const int kHops = 2;
  const int kDepth = 3;

  Stack serial(data, /*adaptive=*/false);
  util::Rng master_a(99);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1200 + 40 * k, 12), kHops,
                                        scratch, batch_rng));
  }

  for (int P : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    PoolStack piped(data, /*adaptive=*/false, kDepth + 1);
    util::Rng master_b(99);
    BatchPipeline pipeline(*piped.pool, kHops, kDepth, P);
    EXPECT_EQ(pipeline.workers(), std::min(P, kDepth + 1));
    int submitted = 0;
    for (int k = 0; k < kBatches; ++k) {
      while (submitted < kBatches && submitted <= k + kDepth) {
        pipeline.submit(batch_roots(data, 1200 + 40 * submitted, 12), master_b.split());
        ++submitted;
      }
      expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
    }
    EXPECT_EQ(pipeline.pending(), 0u);
  }
}

TEST(MultiBuilder, AdaptiveSnapshotBuildsBitIdenticalAnyWorkerCount) {
  // Adaptive builds under P workers: each in-flight batch gets its own
  // frozen-θ copy (the trainer's stale-θ hand-off), all frozen from the
  // same live θ, so every worker count must reproduce the serial live-θ
  // reference bit-for-bit.
  graph::Dataset data = small_data();
  const int kBatches = 6;
  const int kHops = 2;
  const int kDepth = 2;

  Stack serial(data, /*adaptive=*/true);
  util::Rng master_a(77);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1900 + 30 * k, 12), kHops,
                                        scratch, batch_rng));
  }

  for (int P : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    PoolStack piped(data, /*adaptive=*/true, kDepth + 1);
    // One frozen copy per ring slot, like the trainer's snapshot pool:
    // concurrent builds never share a sampler instance.
    EncoderConfig ec;
    ec.node_feat_dim = data.node_feat_dim;
    ec.edge_feat_dim = data.edge_feat_dim;
    ec.dim = 8;
    ec.m = 9;
    std::vector<std::unique_ptr<AdaptiveSampler>> frozen;
    for (int s = 0; s < kDepth + 1; ++s) {
      util::Rng snap_init(5000 + static_cast<std::uint64_t>(s));
      frozen.push_back(
          std::make_unique<AdaptiveSampler>(ec, DecoderKind::kLinear, 8, snap_init));
      frozen.back()->copy_parameters_from(*piped.sampler);
      frozen.back()->set_training(true);
    }

    util::Rng master_b(77);
    BatchPipeline pipeline(*piped.pool, kHops, kDepth, P);
    int submitted = 0;
    for (int k = 0; k < kBatches; ++k) {
      while (submitted < kBatches && submitted <= k + kDepth) {
        pipeline.submit(batch_roots(data, 1900 + 30 * submitted, 12), master_b.split(),
                        frozen[static_cast<std::size_t>(submitted) % frozen.size()].get());
        ++submitted;
      }
      expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
    }
  }
}

TEST(MultiBuilder, TrainerBitIdenticalAcrossWorkerCounts) {
  // Trainer-level P-invariance on the non-adaptive overlap path: worker
  // count is a pure throughput knob, never a numerics knob.
  graph::Dataset data = testutil::small_trainer_data(23);
  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.batch_size = 96;
  tc.n_neighbors = 4;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 4;
  tc.prefetch_depth = 3;

  Trainer ref(data, tc);  // builder_workers = 1
  std::vector<double> ref_losses;
  for (int e = 0; e < 2; ++e) ref_losses.push_back(ref.train_epoch().mean_loss);
  const double ref_mrr = ref.evaluate_val_mrr();

  for (int P : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    TrainerConfig tp = tc;
    tp.builder_workers = P;
    Trainer t(data, tp);
    for (int e = 0; e < 2; ++e) {
      const auto s = t.train_epoch();
      EXPECT_EQ(s.mean_loss, ref_losses[static_cast<std::size_t>(e)]) << "epoch " << e;
      EXPECT_GT(s.prefetched_batches, 0);
    }
    EXPECT_EQ(t.evaluate_val_mrr(), ref_mrr);
  }
}

TEST(MultiBuilder, StaleThetaTrainerBitIdenticalAcrossWorkerCounts) {
  // The hard case: P workers × depth-2 ring × staleness-2 snapshots.
  // Losses, the staleness histogram, and MRR must all be independent of P.
  graph::Dataset data = stale_suite_data(31);
  TrainerConfig tc = stale_suite_config();
  tc.prefetch_mode = PrefetchMode::kStaleTheta;
  tc.prefetch_depth = 2;
  tc.max_iters_per_epoch = 5;

  Trainer ref(data, tc);
  std::vector<EpochStats> ref_stats;
  for (int e = 0; e < 2; ++e) ref_stats.push_back(ref.train_epoch());
  const double ref_mrr = ref.evaluate_val_mrr();

  for (int P : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    TrainerConfig tp = tc;
    tp.builder_workers = P;
    Trainer t(data, tp);
    for (int e = 0; e < 2; ++e) {
      const auto s = t.train_epoch();
      EXPECT_EQ(s.mean_loss, ref_stats[static_cast<std::size_t>(e)].mean_loss)
          << "epoch " << e;
      EXPECT_EQ(s.stale_builds(), ref_stats[static_cast<std::size_t>(e)].stale_builds());
      EXPECT_EQ(s.staleness_hist, ref_stats[static_cast<std::size_t>(e)].staleness_hist);
    }
    EXPECT_EQ(t.evaluate_val_mrr(), ref_mrr);
  }
}

TEST(MultiBuilder, CachedPathStatsDeterministicAcrossWorkerCounts) {
  // The VRAM cache under P workers: hit/miss epoch history (folded in
  // consumption order) and the access counters Q (order-independent
  // atomic sums) must match the single-worker run exactly.
  graph::Dataset data = testutil::small_trainer_data(47);
  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.cache_ratio = 0.3;
  tc.batch_size = 96;
  tc.n_neighbors = 4;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 4;
  tc.prefetch_depth = 3;

  auto run = [&](int P) {
    TrainerConfig tp = tc;
    tp.builder_workers = P;
    Trainer t(data, tp);
    std::vector<double> losses;
    for (int e = 0; e < 3; ++e) losses.push_back(t.train_epoch().mean_loss);
    auto* cache = t.features().cache();
    EXPECT_NE(cache, nullptr);
    return std::make_pair(losses, cache->history());
  };
  const auto [ref_losses, ref_hist] = run(1);
  std::uint64_t total = 0;
  for (const auto& h : ref_hist) total += h.hits + h.misses;
  ASSERT_GT(total, 0u) << "cache saw no traffic — test is vacuous";
  for (int P : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    const auto [losses, hist] = run(P);
    EXPECT_EQ(losses, ref_losses);
    ASSERT_EQ(hist.size(), ref_hist.size());
    for (std::size_t e = 0; e < hist.size(); ++e) {
      EXPECT_EQ(hist[e].hits, ref_hist[e].hits) << "epoch " << e;
      EXPECT_EQ(hist[e].misses, ref_hist[e].misses) << "epoch " << e;
      EXPECT_EQ(hist[e].replaced, ref_hist[e].replaced) << "epoch " << e;
    }
  }
}

TEST(MultiBuilder, CacheBooksCountEveryGatherIncludingEvaluation) {
  // Every gather adds to the cache's books directly — slot gathers from
  // P concurrent builders and the evaluation's shared gathers alike — so
  // once the trainer is gone the exported taser.cache.* series have grown
  // by exactly the cache's history plus the epoch still open, which holds
  // the final evaluation's gathers.
  graph::Dataset data = testutil::small_trainer_data(47);
  TrainerConfig tc;
  tc.backbone = BackboneKind::kTgat;
  tc.finder = FinderKind::kGpu;
  tc.cache_ratio = 0.3;
  tc.batch_size = 96;
  tc.n_neighbors = 4;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 4;
  tc.prefetch_depth = 3;

  auto registry_count = [](const char* name) {
    for (const auto& c : obs::snapshot().counters)
      if (c.name == name) return c.value;
    return std::uint64_t{0};
  };
  for (int P : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    const std::uint64_t hits0 = registry_count("taser.cache.hits");
    const std::uint64_t misses0 = registry_count("taser.cache.misses");
    std::uint64_t hits = 0, misses = 0;
    {
      TrainerConfig tp = tc;
      tp.builder_workers = P;
      Trainer t(data, tp);
      for (int e = 0; e < 2; ++e) t.train_epoch();
      t.evaluate_val_mrr();
      const cache::GpuFeatureCache& cache = *t.features().cache();
      ASSERT_EQ(cache.history().size(), 2u);
      for (const auto& h : cache.history()) {
        hits += h.hits;
        misses += h.misses;
      }
      const cache::CacheEpochStats open = cache.current_epoch();
      EXPECT_GT(open.hits + open.misses, 0u) << "evaluation gathers missing from the books";
      hits += open.hits;
      misses += open.misses;
    }
    if (!obs::compiled_in()) continue;  // no registry to compare against
    EXPECT_EQ(registry_count("taser.cache.hits") - hits0, hits);
    EXPECT_EQ(registry_count("taser.cache.misses") - misses0, misses);
  }
}

/// P ∈ {2, 4} builder workers over a depth-3 ring must reproduce the
/// P = 1 run of `finder` bit-for-bit: losses over 2 epochs and val MRR.
void expect_finder_worker_count_invariant(FinderKind finder, BackboneKind backbone,
                                          std::uint64_t data_seed) {
  graph::Dataset data = testutil::small_trainer_data(data_seed);
  TrainerConfig tc;
  tc.backbone = backbone;
  tc.finder = finder;
  tc.batch_size = 96;
  tc.n_neighbors = 4;
  tc.hidden_dim = 12;
  tc.time_dim = 8;
  tc.max_eval_edges = 60;
  tc.seed = 5;
  tc.max_iters_per_epoch = 4;
  tc.prefetch_depth = 3;

  Trainer ref(data, tc);  // builder_workers = 1
  std::vector<double> ref_losses;
  for (int e = 0; e < 2; ++e) ref_losses.push_back(ref.train_epoch().mean_loss);
  const double ref_mrr = ref.evaluate_val_mrr();

  for (int P : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    TrainerConfig tp = tc;
    tp.builder_workers = P;
    Trainer t(data, tp);
    for (int e = 0; e < 2; ++e)
      EXPECT_EQ(t.train_epoch().mean_loss, ref_losses[static_cast<std::size_t>(e)])
          << "epoch " << e;
    EXPECT_EQ(t.evaluate_val_mrr(), ref_mrr);
  }
}

TEST(MultiBuilder, TglFinderBitIdenticalAcrossWorkerCounts) {
  // The TGL finder's per-slot replicas reposition their batch counter and
  // chronological snapshot per sequence number; P must not change results.
  expect_finder_worker_count_invariant(FinderKind::kTgl, BackboneKind::kGraphMixer, 53);
}

TEST(MultiBuilder, OrigFinderBitIdenticalAcrossWorkerCounts) {
  // The original finder's replicas reseed their sequential Rng per build
  // from (seed, epoch, seq), so it replicates like the others.
  expect_finder_worker_count_invariant(FinderKind::kOrig, BackboneKind::kTgat, 59);
}

// ---- pipeline lifecycle: teardown + error paths ----------------------------

TEST(PipelineLifecycle, BuildErrorRethrownOnceLaterBatchesServe) {
  // A faulted build surfaces exactly once, at its own next(); batches
  // after it build and serve bit-identically to the no-fault reference —
  // on workers and inline at depth 0 alike.
  graph::Dataset data = small_data();
  const int kBatches = 4;
  const int kHops = 2;

  Stack serial(data, /*adaptive=*/false);
  util::Rng master_a(41);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1400 + 30 * k, 10), kHops,
                                        scratch, batch_rng));
  }

  for (int depth : {0, 3}) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    PoolStack piped(data, /*adaptive=*/false, static_cast<std::size_t>(depth) + 1);
    util::Rng master_b(41);
    BatchPipeline pipeline(*piped.pool, kHops, static_cast<std::size_t>(depth), 2);
    pipeline.set_build_hook([](std::uint64_t seq) {
      if (seq == 1) throw std::runtime_error("injected build fault (seq 1)");
    });
    int submitted = 0;
    for (int k = 0; k < kBatches; ++k) {
      for (; submitted < kBatches && submitted <= k + depth; ++submitted)
        pipeline.submit(batch_roots(data, 1400 + 30 * submitted, 10), master_b.split());
      if (k == 1) {
        EXPECT_THROW(pipeline.next(), std::runtime_error);
      } else {
        expect_built_eq(ref[static_cast<std::size_t>(k)], pipeline.next().built);
      }
    }
    EXPECT_EQ(pipeline.pending(), 0u);
  }
}

TEST(PipelineLifecycle, TwoConsecutiveFaultedBuildsEachRethrowOnce) {
  graph::Dataset data = small_data();
  const int kBatches = 4;
  const int kHops = 2;
  const int kDepth = 3;

  Stack serial(data, /*adaptive=*/false);
  util::Rng master_a(43);
  util::PhaseAccumulator scratch;
  std::vector<BatchBuilder::Built> ref;
  for (int k = 0; k < kBatches; ++k) {
    util::Rng batch_rng = master_a.split();
    ref.push_back(serial.builder->build(batch_roots(data, 1500 + 30 * k, 10), kHops,
                                        scratch, batch_rng));
  }

  PoolStack piped(data, /*adaptive=*/false, kDepth + 1);
  util::Rng master_b(43);
  BatchPipeline pipeline(*piped.pool, kHops, kDepth, 2);
  pipeline.set_build_hook([](std::uint64_t seq) {
    if (seq == 1 || seq == 2)
      throw std::runtime_error("injected build fault (seq " + std::to_string(seq) + ")");
  });
  for (int k = 0; k < kBatches; ++k)
    pipeline.submit(batch_roots(data, 1500 + 30 * k, 10), master_b.split());

  expect_built_eq(ref[0], pipeline.next().built);
  EXPECT_THROW(pipeline.next(), std::runtime_error);
  EXPECT_THROW(pipeline.next(), std::runtime_error);
  expect_built_eq(ref[3], pipeline.next().built);
  EXPECT_EQ(pipeline.pending(), 0u);
}

TEST(PipelineLifecycle, DestructionWithStoredErrorPendingIsClean) {
  // A stored error nobody consumed must not block or corrupt teardown
  // (the ASan job additionally proves the exception_ptr does not leak).
  graph::Dataset data = small_data();
  PoolStack piped(data, /*adaptive=*/false, 3);
  util::Rng master(47);
  BatchPipeline pipeline(*piped.pool, 2, /*depth=*/2, /*workers=*/2);
  pipeline.set_build_hook([](std::uint64_t seq) {
    if (seq == 0) throw std::runtime_error("injected build fault (seq 0)");
  });
  pipeline.submit(batch_roots(data, 1600, 10), master.split());
  pipeline.submit(batch_roots(data, 1630, 10), master.split());
  while (pipeline.built_count() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Destructor runs with slot 0 holding a stored error and slot 1 a
  // never-consumed result.
}

TEST(PipelineLifecycle, StopDiscardsQueuedUnbuiltJobs) {
  // The teardown bugfix: with the ring full and one build blocked
  // in-progress, request_stop() (what the destructor issues first) must
  // discard the queued-but-unclaimed jobs — the worker exits after the
  // in-progress build instead of draining the whole ring.
  graph::Dataset data = small_data();
  PoolStack piped(data, /*adaptive=*/false, 4);

  std::atomic<int> hook_calls{0};
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  {
    // One worker: build 0 blocks in the hook; builds 1-3 stay queued.
    BatchPipeline pipeline(*piped.pool, 2, /*depth=*/3, /*workers=*/1);
    pipeline.set_build_hook([&](std::uint64_t) {
      ++hook_calls;
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return release; });
    });
    util::Rng master(51);
    for (int k = 0; k < 4; ++k)
      pipeline.submit(batch_roots(data, 1700 + 30 * k, 10), master.split());
    while (hook_calls.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(pipeline.pending(), 4u);
    EXPECT_EQ(pipeline.built_count(), 0u);
    // Deterministic ordering: stop is set BEFORE the blocked build may
    // finish, so the worker's next claim check must see it.
    pipeline.request_stop();
    {
      std::lock_guard<std::mutex> lk(m);
      release = true;
    }
    cv.notify_all();
    // Destructor joins the worker here.
  }
  EXPECT_EQ(hook_calls.load(), 1)
      << "a queued-but-unclaimed job was built after stop was requested";
}

TEST(PipelineLifecycle, SnapshotPinsReleasedOnFailedEpochUnwind) {
  // The snapshot-leak bugfix: a build that throws mid-epoch unwinds
  // train_epoch with several stale-θ snapshots pinned; the leases must
  // release every pin (after the pipeline has joined its workers), and
  // the next epoch on the same trainer must run clean.
  if (!util::failpoints::compiled_in())
    GTEST_SKIP() << "failpoints compiled out (-DTASER_FAILPOINTS=OFF)";
  graph::Dataset data = stale_suite_data(67);
  for (int P : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "P=" << P << " builder workers");
    TrainerConfig tc = stale_suite_config();
    tc.prefetch_mode = PrefetchMode::kStaleTheta;
    tc.prefetch_depth = 2;  // up to 3 snapshots pinned at once
    tc.max_iters_per_epoch = 4;
    tc.builder_workers = P;

    Trainer t(data, tc);
    ASSERT_NE(t.snapshot_pool(), nullptr);
    {
      util::failpoints::FailpointConfig fc;
      fc.first_hit = 3;  // mid-epoch, with earlier snapshots still pinned
      fc.max_fires = 1;
      util::failpoints::ScopedFailpoint fp("core.builder.build", fc);
      EXPECT_THROW(t.train_epoch(), util::failpoints::FailpointError);
    }
    EXPECT_EQ(t.snapshot_pool()->pinned(), 0u)
        << "failed epoch leaked pinned snapshots";
    const auto stats = t.train_epoch();
    EXPECT_EQ(t.snapshot_pool()->pinned(), 0u);
    EXPECT_EQ(stats.iterations, 4);
    EXPECT_TRUE(std::isfinite(stats.mean_loss))
        << "post-failure epoch read a poisoned/stale snapshot";
  }
}

TEST(StaleTheta, FirstBatchMatchesSync) {
  // At step 0 no staleness exists yet: with one iteration per epoch the
  // stale-θ run must match the synchronous path exactly (every batch is
  // a "first batch" — submitted after all prior updates).
  graph::Dataset data = stale_suite_data(37);
  TrainerConfig tc_sync = stale_suite_config();
  tc_sync.max_iters_per_epoch = 1;
  TrainerConfig tc_stale = tc_sync;
  tc_stale.prefetch_mode = PrefetchMode::kStaleTheta;

  Trainer sync(data, tc_sync);
  Trainer stale(data, tc_stale);
  for (int e = 0; e < 2; ++e) {
    const auto ss = sync.train_epoch();
    const auto st = stale.train_epoch();
    EXPECT_EQ(ss.mean_loss, st.mean_loss) << "epoch " << e;
    EXPECT_EQ(st.stale_builds(), 0);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PhaseAccumulator / ScopedPhase hot-path allocation audit (PR 10). The
// accumulator moved from map<string,double> (node allocation + string
// hashing per add) to a flat Phase-indexed array; this pins that down
// with a real operator-new count. Counting is armed per-thread so
// concurrent gtest machinery can't contaminate the window.
// ---------------------------------------------------------------------------

namespace {
thread_local bool g_count_allocs = false;
thread_local std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(PhaseAccumulator, ScopedPhaseHotPathAllocatesNothing) {
  util::PhaseAccumulator acc;
  // Warm the lazy span-name interning (allocates once per process) and
  // any timer statics before arming the counter.
  { util::ScopedPhase warm(acc, util::Phase::kNF); }
  { util::ScopedPhase warm(acc, util::Phase::kPPSim); }

  g_alloc_count = 0;
  g_count_allocs = true;
  for (int i = 0; i < 1000; ++i) {
    util::ScopedPhase nf(acc, util::Phase::kNF);
    util::ScopedPhase as(acc, util::Phase::kAS);
    acc.add(util::Phase::kFSSim, 1e-6);
    acc.add(util::Phase::kPP, 1e-6);
  }
  util::PhaseAccumulator other;
  other.add(util::Phase::kFS, 0.5);
  acc.merge(other);
  acc.clear();
  g_count_allocs = false;

  EXPECT_EQ(g_alloc_count, 0u)
      << "ScopedPhase/PhaseAccumulator allocated on the hot path";
}

}  // namespace
