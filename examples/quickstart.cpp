// Quickstart: generate a Wikipedia-like noisy dynamic graph, train the
// GraphMixer backbone with full TASER (adaptive mini-batch selection +
// adaptive neighbor sampling, GPU neighbor finder, 20% VRAM feature
// cache), and report test MRR plus the per-epoch runtime breakdown.
//
//   ./example_quickstart [epochs]
#include <cstdio>
#include <cstdlib>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "util/table.h"

using namespace taser;

int main(int argc, char** argv) {
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 8;

  // 1. Data: a scaled-down Table-II preset with the paper's two noise
  //    structures planted (deprecated links + skewed neighborhoods).
  graph::SyntheticConfig data_cfg = graph::wikipedia_like(/*scale=*/0.03,
                                                          /*feat_dim_override=*/32);
  graph::Dataset data = generate_synthetic(data_cfg);
  std::printf("dataset %s: %lld nodes, %lld edges (train/val/test %lld/%lld/%lld)\n",
              data.name.c_str(), static_cast<long long>(data.num_nodes),
              static_cast<long long>(data.num_edges()),
              static_cast<long long>(data.num_train()),
              static_cast<long long>(data.num_val()),
              static_cast<long long>(data.num_test()));

  // 2. Trainer: full TASER on the GraphMixer backbone.
  core::TrainerConfig cfg;
  cfg.backbone = core::BackboneKind::kGraphMixer;
  cfg.finder = core::FinderKind::kGpu;   // arbitrary batch order, simulated device
  cfg.cache_ratio = 0.2;                 // Algorithm 3 feature cache
  cfg.ada_batch = true;                  // §III-A
  cfg.ada_neighbor = true;               // §III-B
  cfg.decoder = core::DecoderKind::kLinear;
  cfg.batch_size = 128;
  cfg.n_neighbors = 5;
  cfg.m_candidates = 15;
  cfg.hidden_dim = 32;
  cfg.time_dim = 16;
  cfg.sampler_dim = 16;
  cfg.decoder_hidden = 16;
  cfg.lr = 5e-3f;
  cfg.sampler_lr = 5e-3f;
  cfg.max_eval_edges = 200;
  core::Trainer trainer(data, cfg);

  // 3. Train and watch the loss fall and the cache warm up. The NF/AS/
  //    FS/PP columns are modeled device-pipeline seconds (this host has
  //    no GPU: a roofline model prices the simulated kernels and
  //    transfers); "wall(s)" beside them is the measured host cost.
  util::Table table({"epoch", "loss", "val MRR", "NF(s)", "AS(s)", "FS(s)", "PP(s)",
                     "wall(s)", "cache hit%"});
  for (int e = 0; e < epochs; ++e) {
    const core::EpochStats s = trainer.train_epoch();
    const auto* cache = trainer.features().cache();
    const double hit = cache && !cache->history().empty()
                           ? cache->history().back().hit_rate() * 100.0
                           : 0.0;
    table.add_row({std::to_string(e), util::Table::fmt(s.mean_loss, 4),
                   util::Table::fmt(trainer.evaluate_val_mrr(), 4),
                   util::Table::fmt(s.nf(), 4), util::Table::fmt(s.as(), 4),
                   util::Table::fmt(s.fs(), 4), util::Table::fmt(s.pp(), 4),
                   util::Table::fmt(s.wall_total(), 1), util::Table::fmt(hit, 1)});
  }
  table.print();

  // 4. Final test MRR (49 sampled negatives, DistTGL protocol).
  std::printf("\ntest MRR: %.4f  (random ranker ≈ 0.09)\n", trainer.evaluate_test_mrr());
  std::printf("simulated device time consumed: %.3f s\n",
              trainer.device().elapsed().seconds);
  return 0;
}
