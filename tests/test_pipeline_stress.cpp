// Randomized depth-K prefetch-ring stress: seeded fuzz over (ring depth
// K ∈ [0, 4] — 0 builds inline, and K is the stale-θ bound —,
// builder-worker count P, train:build timing, OpenMP team size,
// ada_batch/ada_neighbor on/off), asserting that every schedule
// completes (no deadlock), that results come back in submission order
// bit-identical to an inline reference built from the same frozen θ,
// that the snapshot pool's pin/release accounting closes, and that the
// trainer's staleness histogram stays consistent — with the P-worker run
// compared against a P=1 reference, so worker count is proven to be a
// pure throughput knob. TASER_STRESS_BUILDERS pins P (the CI matrix
// sweeps {1, 2, 4}); unset, each round draws P randomly. Runs in the
// OMP_NUM_THREADS matrix, the ASan+UBSan job, and (P=4) the TSan job;
// every expectation is exact (no tolerance, no retries), so a single
// flake fails the suite.
#include <gtest/gtest.h>

#include <omp.h>

#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "cache/feature_source.h"
#include "core/batch_pipeline.h"
#include "core/snapshot_pool.h"
#include "core/trainer.h"
#include "graph/synthetic.h"
#include "pipeline_test_util.h"
#include "sampling/gpu_finder.h"

using namespace taser;
using namespace taser::core;
using testutil::OmpThreadGuard;
using testutil::Stack;
using testutil::batch_roots;
using testutil::expect_built_eq;
using testutil::small_trainer_data;

TEST(PipelineStress, RandomizedRingScheduleMatchesInlineReference) {
  // Raw-pipeline fuzz: random ring depths (0 = inline builds), random
  // (capacity-respecting) submit/consume interleavings, bursty per-batch
  // root counts, random consumer "train" latencies, and a θ perturbation
  // after every consume — the pipelined build must stay bit-identical to
  // an inline reference built at submit time from the same frozen θ, in
  // submission order.
  graph::Dataset data = small_trainer_data(17);
  std::mt19937 fuzz(20260730);
  const int kRounds = 6;
  EncoderConfig ec;
  ec.node_feat_dim = data.node_feat_dim;
  ec.edge_feat_dim = data.edge_feat_dim;
  ec.dim = 8;
  ec.m = 9;

  for (int round = 0; round < kRounds; ++round) {
    const std::size_t depth = fuzz() % 5;                // ring depth K ∈ [0, 4]
    const bool adaptive = round == 0 || fuzz() % 4 != 0;  // mostly adaptive
    const int threads = 1 << (fuzz() % 3);               // 1, 2, or 4
    const int workers = testutil::env_builders(1 << (fuzz() % 3));  // P ∈ {1, 2, 4}
    SCOPED_TRACE(testing::Message() << "round " << round << " depth " << depth
                                    << " adaptive " << adaptive << " threads "
                                    << threads << " workers " << workers);
    OmpThreadGuard guard;
    omp_set_num_threads(testutil::tsan_safe_threads(threads));

    testutil::PoolStack piped(data, adaptive, depth + 1);
    Stack ref(data, adaptive);
    // The reference builds inline with `ref_frozen` as sampler override —
    // the same frozen-θ hand-off the pipelined run gets from its pool.
    util::Rng frozen_rng(5);
    std::unique_ptr<AdaptiveSampler> ref_frozen;
    std::unique_ptr<SamplerSnapshotPool> pool;
    if (adaptive) {
      ref_frozen = std::make_unique<AdaptiveSampler>(ec, DecoderKind::kLinear, 8,
                                                     frozen_rng);
      ref_frozen->set_training(true);
      pool = std::make_unique<SamplerSnapshotPool>(depth + 1, [&] {
        util::Rng snap_rng(11);
        return std::make_unique<AdaptiveSampler>(ec, DecoderKind::kLinear, 8, snap_rng);
      });
    }

    const int total = 12;
    BatchPipeline pipeline(*piped.pool, 2, depth, workers);
    ASSERT_EQ(pipeline.capacity(), depth + 1);
    EXPECT_EQ(pipeline.workers(),
              depth == 0 ? 0 : std::min<int>(workers, static_cast<int>(depth) + 1));
    util::Rng master_pipe(31), master_ref(31);
    util::PhaseAccumulator scratch;
    std::vector<BatchBuilder::Built> reference(total);
    std::vector<AdaptiveSampler*> snap_of(total, nullptr);
    int submitted = 0, consumed = 0;

    auto perturb_theta = [&]() {
      if (!adaptive) return;
      for (auto& p : piped.sampler->parameters()) {
        float* x = p.data();
        for (std::int64_t i = 0; i < p.numel(); ++i)
          x[i] += 1e-3f * (i % 2 == 0 ? 1.f : -1.f);
      }
      piped.sampler->bump_generation();
      // Mirror into the reference stack's live sampler so both sides
      // freeze identical θ at every submit point.
      ref.sampler->copy_parameters_from(*piped.sampler);
    };

    while (consumed < total) {
      const bool can_submit =
          submitted < total && pipeline.pending() < pipeline.capacity();
      const bool do_submit = can_submit && (pipeline.pending() == 0 || fuzz() % 3 != 0);
      if (do_submit) {
        // Bursty batch sizes: every 4th batch is ~6x the small ones.
        const std::int64_t roots = submitted % 4 == 3 ? 48 : 8 + fuzz() % 8;
        const std::int64_t from = 1200 + 20 * submitted;
        util::Rng rng_ref = master_ref.split();
        if (adaptive) {
          ref_frozen->copy_parameters_from(*ref.sampler);
          AdaptiveSampler* snap = pool->acquire(*piped.sampler);
          snap->set_training(true);
          EXPECT_EQ(snap->generation(), piped.sampler->generation());
          snap_of[submitted] = snap;
        }
        reference[static_cast<std::size_t>(submitted)] = ref.builder->build(
            batch_roots(data, from, roots), 2, scratch, rng_ref,
            adaptive ? ref_frozen.get() : nullptr);
        pipeline.submit(batch_roots(data, from, roots), master_pipe.split(),
                        snap_of[static_cast<std::size_t>(submitted)]);
        ++submitted;
      } else {
        BatchPipeline::Prepared prep = pipeline.next();
        expect_built_eq(reference[static_cast<std::size_t>(consumed)], prep.built);
        if (auto* snap = snap_of[static_cast<std::size_t>(consumed)])
          pool->release(snap);
        ++consumed;
        // Simulated train latency (keeps worker/consumer phases sliding
        // against each other), then a θ update — exactly what the stale
        // contract must tolerate.
        std::this_thread::sleep_for(std::chrono::microseconds(fuzz() % 400));
        perturb_theta();
      }
    }
    EXPECT_EQ(pipeline.pending(), 0u);
    if (pool) {
      EXPECT_EQ(pool->pinned(), 0u);
      EXPECT_EQ(pool->acquires(), static_cast<std::uint64_t>(total));
    }
  }
}

TEST(PipelineStress, RandomizedTrainerConfigsReproducibleAndHistogramConsistent) {
  // Trainer-level fuzz: random (depth, builder workers, adaptive
  // switches, OpenMP team size) draws; each config runs at P workers AND
  // at the P=1 reference with identical seeds and must agree bit-for-bit,
  // with a staleness histogram that sums to the iteration count and never
  // exceeds the depth (the staleness bound).
  graph::Dataset data = small_trainer_data(29);
  std::mt19937 fuzz(987654321);
  const int kConfigs = 6;

  for (int c = 0; c < kConfigs; ++c) {
    const int depth = static_cast<int>(fuzz() % 5);  // K ∈ [0, 4]
    const bool ada_batch = fuzz() % 2 == 0;
    const bool ada_neighbor = c == 0 || fuzz() % 4 != 0;  // mostly on
    const int threads = 1 << (fuzz() % 3);
    const int workers = testutil::env_builders(1 + static_cast<int>(fuzz() % 4));
    SCOPED_TRACE(testing::Message() << "config " << c << ": depth " << depth
                                    << " ada_batch " << ada_batch << " ada_neighbor "
                                    << ada_neighbor << " threads " << threads
                                    << " workers " << workers);
    OmpThreadGuard guard;
    omp_set_num_threads(testutil::tsan_safe_threads(threads));

    TrainerConfig tc;
    tc.backbone = BackboneKind::kTgat;
    tc.finder = FinderKind::kGpu;
    tc.prefetch_mode = PrefetchMode::kStaleTheta;
    tc.prefetch_depth = depth;
    tc.ada_batch = ada_batch;
    tc.ada_neighbor = ada_neighbor;
    tc.batch_size = 96;
    tc.n_neighbors = 3;
    tc.m_candidates = 8;
    tc.hidden_dim = 12;
    tc.time_dim = 8;
    tc.sampler_dim = 8;
    tc.decoder_hidden = 8;
    tc.max_eval_edges = 60;
    tc.seed = 5;
    tc.max_iters_per_epoch = 3 + static_cast<std::int64_t>(fuzz() % 3);
    tc.builder_workers = workers;
    ASSERT_NO_THROW(tc.validate());

    // b is the single-worker reference: the P-worker run must agree with
    // it bit-for-bit, not merely with a same-P repeat.
    TrainerConfig tc_ref = tc;
    tc_ref.builder_workers = 1;
    Trainer a(data, tc);
    Trainer b(data, tc_ref);
    const auto sa = a.train_epoch();
    const auto sb = b.train_epoch();
    EXPECT_EQ(sa.mean_loss, sb.mean_loss);
    EXPECT_EQ(sa.stale_builds(), sb.stale_builds());
    EXPECT_EQ(sa.staleness_hist, sb.staleness_hist);
    EXPECT_EQ(a.evaluate_val_mrr(), b.evaluate_val_mrr());

    const bool adaptive = ada_batch || ada_neighbor;
    ASSERT_EQ(sa.staleness_hist.size(),
              static_cast<std::size_t>(adaptive ? depth : 0) + 1);
    std::int64_t total = 0;
    for (std::size_t s = 0; s < sa.staleness_hist.size(); ++s) {
      EXPECT_GE(sa.staleness_hist[s], 0);
      total += sa.staleness_hist[s];
    }
    EXPECT_EQ(total, sa.iterations) << "histogram must account for every batch";
    if (depth == 0 || !ada_neighbor) EXPECT_EQ(sa.stale_builds(), 0);
  }
}
