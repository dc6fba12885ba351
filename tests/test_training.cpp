// End-to-end training integration: both backbones learn on noisy
// synthetic CTDGs, all four Table-I variants run, the sample loss trains
// the sampler, runtime phases are populated and booked, the cache warms
// up inside the trainer, and the TGL finder rejects TASER's shuffled
// batches.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "obs/metrics.h"

using namespace taser;
using namespace taser::core;

namespace {

graph::Dataset small_data(std::uint64_t seed = 21) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 150;
  cfg.num_dst = 64;
  cfg.num_edges = 3000;
  cfg.edge_feat_dim = 8;
  cfg.node_feat_dim = 0;
  cfg.num_archetypes = 8;
  cfg.relocation_prob = 0.5;
  cfg.noise_edge_prob = 0.15;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

TrainerConfig small_config(BackboneKind backbone) {
  TrainerConfig cfg;
  cfg.backbone = backbone;
  cfg.finder = FinderKind::kGpu;
  cfg.batch_size = 128;
  cfg.n_neighbors = 5;
  cfg.m_candidates = 10;
  cfg.hidden_dim = 16;
  cfg.time_dim = 16;
  cfg.sampler_dim = 8;
  cfg.decoder_hidden = 8;
  cfg.lr = 5e-3f;
  cfg.sampler_lr = 1e-2f;
  cfg.max_eval_edges = 120;
  cfg.seed = 33;
  return cfg;
}

TEST(Training, GraphMixerBaselineLearns) {
  auto data = small_data();
  Trainer trainer(data, small_config(BackboneKind::kGraphMixer));
  auto first = trainer.train_epoch();
  EpochStats last{};
  for (int e = 0; e < 3; ++e) last = trainer.train_epoch();
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_LT(last.mean_loss, 0.67);  // below the ln2 coin-flip plateau
  const double mrr = trainer.evaluate_test_mrr();
  EXPECT_GT(mrr, 0.15);  // well above the ~0.09 random-ranker MRR@50
  EXPECT_LE(mrr, 1.0);
}

TEST(Training, TgatBaselineLearns) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kTgat);
  cfg.batch_size = 96;
  Trainer trainer(data, cfg);
  auto first = trainer.train_epoch();
  EpochStats last{};
  for (int e = 0; e < 2; ++e) last = trainer.train_epoch();
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_GT(trainer.evaluate_test_mrr(), 0.12);
}

TEST(Training, AllFourVariantsRunAndEvaluate) {
  auto data = small_data();
  for (bool ada_batch : {false, true})
    for (bool ada_neighbor : {false, true}) {
      SCOPED_TRACE(testing::Message() << "ada_batch=" << ada_batch
                                      << " ada_neighbor=" << ada_neighbor);
      auto cfg = small_config(BackboneKind::kGraphMixer);
      cfg.ada_batch = ada_batch;
      cfg.ada_neighbor = ada_neighbor;
      cfg.decoder = DecoderKind::kLinear;
      Trainer trainer(data, cfg);
      auto stats = trainer.train_epoch();
      EXPECT_GT(stats.iterations, 0);
      EXPECT_TRUE(std::isfinite(stats.mean_loss));
      const double mrr = trainer.evaluate_test_mrr();
      EXPECT_GT(mrr, 0.0);
      EXPECT_LE(mrr, 1.0);
    }
}

TEST(Training, SampleLossActuallyTrainsSampler) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.ada_neighbor = true;
  cfg.decoder = DecoderKind::kLinear;
  Trainer trainer(data, cfg);
  ASSERT_NE(trainer.sampler(), nullptr);
  auto params = trainer.sampler()->parameters();
  ASSERT_FALSE(params.empty());
  const std::vector<float> before = params[0].to_vector();
  trainer.train_epoch();
  const std::vector<float> after = params[0].to_vector();
  double delta = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    delta += std::abs(before[i] - after[i]);
  EXPECT_GT(delta, 0.0) << "sampler parameters never updated";
}

TEST(Training, TgatSampleLossTrainsSamplerThroughAttention) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kTgat);
  cfg.ada_neighbor = true;
  cfg.batch_size = 64;
  Trainer trainer(data, cfg);
  auto params = trainer.sampler()->parameters();
  const std::vector<float> before = params[0].to_vector();
  trainer.train_epoch();
  double delta = 0;
  const std::vector<float> after = params[0].to_vector();
  for (std::size_t i = 0; i < before.size(); ++i)
    delta += std::abs(before[i] - after[i]);
  EXPECT_GT(delta, 0.0);
}

TEST(Training, EpochStatsPhasesPopulated) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.ada_neighbor = true;
  Trainer trainer(data, cfg);
  auto stats = trainer.train_epoch();
  EXPECT_GT(stats.nf(), 0.0);           // GPU finder kernels (modeled)
  EXPECT_EQ(stats.nf_wall, 0.0);        // simulation wall time excluded
  EXPECT_GT(stats.as_wall, 0.0);        // sampler host wall present
  EXPECT_GT(stats.as(), 0.0);           // modeled sampler compute present
  EXPECT_GT(stats.fs(), 0.0);
  EXPECT_GT(stats.pp_wall, 0.0);
  EXPECT_GT(stats.pp(), 0.0);
  EXPECT_NEAR(stats.total(), stats.nf() + stats.as() + stats.fs() + stats.pp(), 1e-12);
  EXPECT_GT(stats.wall_total(), 0.0);
}

TEST(Training, BooksAreTheEpochStats) {
  // One set of training books: every EpochStats phase field has its own
  // series in the trainer's scope (wall and modeled time never share
  // one), and the exported registry series grow by exactly those values;
  // the build series grow by one batch per iteration.
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.ada_neighbor = true;
  cfg.prefetch_mode = PrefetchMode::kStaleTheta;
  cfg.prefetch_depth = 2;
  cfg.max_iters_per_epoch = 5;
  const obs::MetricsSnapshot before = obs::snapshot();
  Trainer trainer(data, cfg);
  constexpr int kEpochs = 3;
  double phase_ms[8] = {};
  std::uint64_t iterations = 0, stale_builds = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const EpochStats s = trainer.train_epoch();
    const double fields[8] = {s.nf_wall, s.nf_sim, s.as_wall, s.as_sim,
                              s.fs_wall, s.fs_sim, s.pp_wall, s.pp_sim};
    for (int h = 0; h < 8; ++h) phase_ms[h] += fields[h] * 1e3;
    iterations += static_cast<std::uint64_t>(s.iterations);
    stale_builds += static_cast<std::uint64_t>(s.stale_builds());
  }
  ASSERT_GT(stale_builds, 0u) << "no stale build: the stale_builds series is untested";

  const obs::Scope& books = trainer.books();
  EXPECT_EQ(books.count(Trainer::kEpochs), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(books.count(Trainer::kIterations), iterations);
  EXPECT_EQ(books.count(Trainer::kStaleBuilds), stale_builds);
  for (std::size_t h = Trainer::kNfWallMs; h <= Trainer::kPpSimMs; ++h) {
    SCOPED_TRACE(testing::Message() << "histogram slot " << h);
    EXPECT_EQ(books.histogram(h).count, static_cast<std::uint64_t>(kEpochs));
    EXPECT_DOUBLE_EQ(books.histogram(h).sum, phase_ms[h]);
  }

  if (!obs::compiled_in()) return;  // no registry to compare against
  const obs::MetricsSnapshot after = obs::snapshot();
  auto counter_delta = [&](const std::string& name) {
    std::uint64_t d = 0;
    for (const auto& c : after.counters) d += c.name == name ? c.value : 0;
    for (const auto& c : before.counters) d -= c.name == name ? c.value : 0;
    return d;
  };
  auto histogram_delta = [&](const std::string& name) {
    obs::LocalHistogram d;
    for (const auto& h : after.histograms)
      if (h.name == name) d = h.hist;
    for (const auto& h : before.histograms)
      if (h.name == name) {
        d.count -= h.hist.count;
        d.sum -= h.hist.sum;
      }
    return d;
  };
  EXPECT_EQ(counter_delta("taser.train.epochs"), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(counter_delta("taser.train.iterations"), iterations);
  EXPECT_EQ(counter_delta("taser.train.stale_builds"), stale_builds);
  // The builder pool's books: one build per training iteration.
  EXPECT_EQ(counter_delta("taser.build.batches"), iterations);
  EXPECT_EQ(histogram_delta("taser.build.build_ms").count, iterations);
  const char* names[8] = {"nf.wall", "nf.sim", "as.wall", "as.sim",
                          "fs.wall", "fs.sim", "pp.wall", "pp.sim"};
  for (int h = 0; h < 8; ++h) {
    SCOPED_TRACE(names[h]);
    const obs::LocalHistogram d =
        histogram_delta(std::string("taser.train.") + names[h] + "_ms");
    EXPECT_EQ(d.count, static_cast<std::uint64_t>(kEpochs));
    EXPECT_NEAR(d.sum, phase_ms[h], 1e-9 * (1.0 + phase_ms[h]));
  }
}

TEST(Training, AdaptiveBatchSelectorShiftsScores) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.ada_batch = true;
  Trainer trainer(data, cfg);
  ASSERT_NE(trainer.selector(), nullptr);
  for (int e = 0; e < 2; ++e) trainer.train_epoch();
  // After updates, scores are no longer the uniform 1.0 initialisation.
  double min_s = 1e9, max_s = -1e9;
  for (std::int64_t e = 0; e < trainer.selector()->num_edges(); ++e) {
    min_s = std::min(min_s, trainer.selector()->score(e));
    max_s = std::max(max_s, trainer.selector()->score(e));
  }
  EXPECT_LT(min_s, max_s);
  EXPECT_GE(min_s, trainer.selector()->gamma() - 1e-6);
  EXPECT_LE(max_s, 1.0 + trainer.selector()->gamma() + 1e-6);
}

TEST(Training, TglFinderWorksChronologicallyButRejectsAdaptiveBatches) {
  auto data = small_data();
  // Chronological baseline on the TGL finder: fine.
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.finder = FinderKind::kTgl;
  Trainer ok(data, cfg);
  EXPECT_NO_THROW(ok.train_epoch());

  // TASER's shuffled mini-batches on the TGL finder: the pointer-array
  // restriction fires (this is the paper's motivation for the GPU finder).
  cfg.ada_batch = true;
  Trainer bad(data, cfg);
  EXPECT_THROW(
      {
        for (int e = 0; e < 3; ++e) bad.train_epoch();
      },
      std::runtime_error);
}

TEST(Training, CacheWarmsUpInsideTrainer) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.cache_ratio = 0.2;
  Trainer trainer(data, cfg);
  auto* cache = trainer.features().cache();
  ASSERT_NE(cache, nullptr);
  for (int e = 0; e < 3; ++e) trainer.train_epoch();
  const auto& hist = cache->history();
  ASSERT_EQ(hist.size(), 3u);
  // Most-recent-policy access patterns are highly skewed; after the first
  // replacement the hit rate must rise above the random-content epoch.
  EXPECT_GT(hist[2].hit_rate(), hist[0].hit_rate());
}

TEST(Training, OrigFinderSupportsFullTaser) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  cfg.finder = FinderKind::kOrig;
  cfg.ada_batch = true;
  cfg.ada_neighbor = true;
  cfg.decoder = DecoderKind::kLinear;
  Trainer trainer(data, cfg);
  EXPECT_NO_THROW(trainer.train_epoch());  // sequential finder, any order
}

TEST(Training, ConfigValidateRejectsOutOfRangeSettings) {
  TrainerConfig cfg;  // defaults must stay valid
  EXPECT_NO_THROW(cfg.validate());

  // Depth 0 is the synchronous pipeline, in either mode.
  cfg.prefetch_depth = 0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.prefetch_mode = PrefetchMode::kStaleTheta;
  EXPECT_NO_THROW(cfg.validate());
  cfg.prefetch_depth = 4;
  EXPECT_NO_THROW(cfg.validate());

  // Each bad value would otherwise reach the trainer: a negative ring
  // depth, no builder, a zero batch (train_epoch divides the training set
  // by it), a negative count that zeroes evaluate_mrr's 2 + K chunk
  // divisor, an evaluation cap below 1 (evaluate_mrr would rank no edge
  // and report MRR 0.0), a zero layer width, and a clip norm that is not
  // positive. Every one must throw at validate() and at Trainer
  // construction.
  auto data = small_data();
  const std::vector<std::function<void(TrainerConfig&)>> bad_settings = {
      [](TrainerConfig& c) { c.prefetch_depth = -1; },
      [](TrainerConfig& c) { c.builder_workers = 0; },
      [](TrainerConfig& c) { c.batch_size = 0; },
      [](TrainerConfig& c) { c.batch_size = -3; },
      [](TrainerConfig& c) { c.eval_negatives = 0; },
      [](TrainerConfig& c) { c.eval_negatives = -2; },
      [](TrainerConfig& c) { c.max_eval_edges = 0; },
      [](TrainerConfig& c) { c.max_eval_edges = -1; },
      // Zero widths reach the models and the sampler: they crashed in
      // the first forward (SIGSEGV, SIGFPE), and a zero grad_clip only
      // threw after a whole forward and backward.
      [](TrainerConfig& c) { c.hidden_dim = 0; },
      [](TrainerConfig& c) { c.time_dim = 0; },
      [](TrainerConfig& c) { c.sampler_dim = 0; },
      [](TrainerConfig& c) { c.decoder_hidden = 0; },
      [](TrainerConfig& c) { c.grad_clip = 0.f; },
      [](TrainerConfig& c) { c.grad_clip = std::nanf(""); },
  };
  for (std::size_t i = 0; i < bad_settings.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "bad setting " << i);
    TrainerConfig bad = small_config(BackboneKind::kGraphMixer);
    bad_settings[i](bad);
    EXPECT_THROW(bad.validate(), std::runtime_error);
    EXPECT_THROW(Trainer trainer(data, bad), std::runtime_error);
  }
}

TEST(Training, DeterministicGivenSeed) {
  auto data = small_data();
  auto cfg = small_config(BackboneKind::kGraphMixer);
  Trainer a(data, cfg), b(data, cfg);
  const auto sa = a.train_epoch();
  const auto sb = b.train_epoch();
  EXPECT_DOUBLE_EQ(sa.mean_loss, sb.mean_loss);
}

TEST(Training, FeaturelessNodesAndEdgesStillTrain) {
  graph::SyntheticConfig gcfg;
  gcfg.num_src = 100;
  gcfg.num_dst = 50;
  gcfg.num_edges = 1500;
  gcfg.edge_feat_dim = 0;  // pure structure+time
  gcfg.node_feat_dim = 0;
  auto data = generate_synthetic(gcfg);
  auto cfg = small_config(BackboneKind::kGraphMixer);
  Trainer trainer(data, cfg);
  auto stats = trainer.train_epoch();
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

}  // namespace
