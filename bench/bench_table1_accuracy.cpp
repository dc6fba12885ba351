// Table I — accuracy (MRR %) of Baseline / +Ada.Mini-Batch /
// +Ada.Neighbor / TASER for both backbones on the five datasets.
//
// Reduced configuration (bench::reduced_trainer_config): ~2.5-4k-edge
// synthetic stand-ins, hidden 32, n=5, m=10, single seed, 8 (TGAT) / 12
// (GraphMixer) epochs — the paper uses full datasets, hidden 100, n=10,
// m=25, 5 seeds, 200 epochs.
// The claim under test is the *ordering*: each adaptive component helps,
// and TASER (both) is at or near the top.
#include <cmath>
#include <cstdio>

#include "common.h"

using namespace taser;

int main() {
  const int mixer_epochs = static_cast<int>(12 * bench::bench_scale());
  const int tgat_epochs = static_cast<int>(8 * bench::bench_scale());
  std::printf("== Table I: MRR (%%) of TASER and variants (reduced config, "
              "%d/%d epochs, 1 seed) ==\n\n", tgat_epochs, mixer_epochs);

  struct Variant {
    const char* name;
    bool ada_batch, ada_neighbor, stale_theta;
  };
  const Variant variants[] = {{"Baseline", false, false, false},
                              {"w/ Ada. Mini-Batch", true, false, false},
                              {"w/ Ada. Neighbor", false, true, false},
                              {"TASER", true, true, false},
                              {"TASER (stale-θ K=2)", true, true, true}};

  int taser_wins = 0, cells = 0;
  double improvement_sum = 0, stale_delta_sum = 0;

  for (auto backbone : {core::BackboneKind::kTgat, core::BackboneKind::kGraphMixer}) {
    std::printf("--- backbone: %s ---\n", core::to_string(backbone));
    util::Table table({"variant", "wikipedia", "reddit", "flights", "movielens", "gdelt"});
    std::vector<std::vector<double>> mrr(5);
    auto presets = bench::training_presets();
    // The 2-hop TGAT fan-out is ~6x the GraphMixer cost per edge; its
    // column uses 0.6x-edge datasets to fit the bench budget.
    if (backbone == core::BackboneKind::kTgat)
      for (auto& p : presets)
        p.num_edges = static_cast<std::int64_t>(static_cast<double>(p.num_edges) * 0.6);
    for (auto& v : {0, 1, 2, 3, 4}) {
      std::vector<std::string> row = {variants[v].name};
      for (auto& preset : presets) {
        graph::Dataset data = generate_synthetic(preset);
        auto cfg = bench::reduced_trainer_config(backbone);
        cfg.ada_batch = variants[v].ada_batch;
        cfg.ada_neighbor = variants[v].ada_neighbor;
        // The stale-θ variant answers the ROADMAP's accuracy-cost gate at
        // ring depth K=2: same TASER config, builds overlapped against a
        // θ snapshot up to two updates stale (staleness auto-resolves to
        // the depth).
        if (variants[v].stale_theta) {
          cfg.prefetch_mode = core::PrefetchMode::kStaleTheta;
          cfg.prefetch_depth = 2;
        }
        int epochs = mixer_epochs;
        if (backbone == core::BackboneKind::kTgat) {
          cfg.batch_size = 96;
          epochs = tgat_epochs;
        }
        const double m = bench::train_and_eval(data, cfg, epochs);
        mrr[static_cast<std::size_t>(v)].push_back(m);
        row.push_back(util::Table::fmt(100 * m, 2));
      }
      table.add_row(std::move(row));
    }
    // Improvement row (TASER - Baseline), as in the paper, plus the
    // stale-θ accuracy delta (stale TASER - sync TASER).
    std::vector<std::string> impr = {"(Improvement)"};
    std::vector<std::string> stale_row = {"(stale-θ Δ)"};
    for (std::size_t d = 0; d < mrr[0].size(); ++d) {
      const double delta = 100 * (mrr[3][d] - mrr[0][d]);
      impr.push_back((delta >= 0 ? "+" : "") + util::Table::fmt(delta, 2));
      improvement_sum += delta;
      ++cells;
      const double best_single = std::max(mrr[1][d], mrr[2][d]);
      if (mrr[3][d] >= std::max(mrr[0][d], best_single) - 0.02) ++taser_wins;
      const double stale_delta = 100 * (mrr[4][d] - mrr[3][d]);
      stale_row.push_back((stale_delta >= 0 ? "+" : "") + util::Table::fmt(stale_delta, 2));
      stale_delta_sum += stale_delta;
    }
    table.add_row(std::move(impr));
    table.add_row(std::move(stale_row));
    table.print();
    std::printf("\n");
  }

  std::printf("mean TASER improvement over baseline: %+.2f MRR points "
              "(paper: +2.3 on real data)\n", improvement_sum / cells);
  std::printf("mean stale-θ (K=2) prefetch cost vs sync TASER: %+.2f MRR points "
              "(the ROADMAP accuracy gate, measured)\n\n", stale_delta_sum / cells);
  bench::print_shape("TASER >= baseline and >= each single variant (±2pp) on most cells",
                     taser_wins >= cells * 7 / 10);
  bench::print_shape("TASER improves on baseline on average", improvement_sum > 0);
  bench::print_shape("stale-θ (K=2) TASER within 3 MRR points of sync TASER on average",
                     std::abs(stale_delta_sum / cells) <= 3.0);
  return 0;
}
