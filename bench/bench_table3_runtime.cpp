// Table III — per-epoch runtime breakdown (NF / AS / FS / PP) of full
// TASER training as the system optimisations are enabled one by one:
//   Baseline   : original sequential finder + uncached RAM slicing
//   +GPU NF    : TASER's simulated-GPU block-centric finder
//   +10/20/30% : dynamic GPU feature cache on top
//
// CPU-side phases are measured wall time; device-side work (finder
// kernels, PCIe transfers, VRAM gathers) is modeled time from the
// SIMT simulator's roofline model — columns report the sum.
//
// Paper claims: baseline is dominated by NF+FS; GPU NF removes NF; the
// cache removes most of FS; TGAT gains far more than GraphMixer.
#include <cstdio>

#include "common.h"

using namespace taser;

namespace {

struct RowResult {
  core::EpochStats stats;
  double total() const { return stats.total(); }
};

RowResult run_row(const graph::Dataset& data, core::BackboneKind backbone,
                  core::FinderKind finder, double cache_ratio) {
  auto cfg = bench::reduced_trainer_config(backbone);
  cfg.ada_batch = true;
  cfg.ada_neighbor = true;
  cfg.finder = finder;
  cfg.cache_ratio = cache_ratio;
  cfg.max_iters_per_epoch = 3;
  if (backbone == core::BackboneKind::kTgat) cfg.batch_size = 64;
  core::Trainer trainer(data, cfg);
  RowResult r;
  // Cache rows need one warm-up epoch so the top-k replacement has run.
  if (cache_ratio > 0) trainer.train_epoch();
  r.stats = trainer.train_epoch();  // measured epoch
  return r;
}

}  // namespace

int main() {
  std::printf("== Table III: per-epoch runtime breakdown, TASER training "
              "(capped epochs; wall+modeled seconds) ==\n\n");

  bool nf_vanishes = true, fs_shrinks = true;
  double tgat_speedup_sum = 0, mixer_speedup_sum = 0;
  int datasets_counted = 0;

  auto presets = bench::runtime_presets();
  // Paper's Table III covers wikipedia, reddit, movielens, gdelt.
  for (std::size_t d : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    graph::Dataset data = generate_synthetic(presets[d]);
    if (data.edge_feat_dim == 0) continue;
    std::printf("--- %s ---\n", data.name.c_str());
    for (auto backbone : {core::BackboneKind::kTgat, core::BackboneKind::kGraphMixer}) {
      struct RowSpec {
        const char* name;
        core::FinderKind finder;
        double cache;
      };
      const RowSpec rows[] = {{"Baseline", core::FinderKind::kOrig, 0.0},
                              {"+GPU NF", core::FinderKind::kGpu, 0.0},
                              {"+10% Cache", core::FinderKind::kGpu, 0.1},
                              {"+20% Cache", core::FinderKind::kGpu, 0.2},
                              {"+30% Cache", core::FinderKind::kGpu, 0.3}};
      util::Table table({"config", "NF (%)", "AS", "FS (%)", "PP", "Total", "Impr."});
      double baseline_total = 0, base_nf = 0, base_fs = 0, final_total = 0, final_fs = 0,
             final_nf = 0;
      for (const auto& row : rows) {
        const auto r = run_row(data, backbone, row.finder, row.cache);
        const double total = r.total();
        if (row.cache == 0.0 && row.finder == core::FinderKind::kOrig) {
          baseline_total = total;
          base_nf = r.stats.nf();
          base_fs = r.stats.fs();
        }
        final_total = total;
        final_fs = r.stats.fs();
        final_nf = r.stats.nf();
        auto pct = [&](double x) { return util::Table::fmt(100 * x / total, 0) + "%"; };
        table.add_row({row.name,
                       util::Table::fmt(r.stats.nf(), 3) + " (" + pct(r.stats.nf()) + ")",
                       util::Table::fmt(r.stats.as(), 3),
                       util::Table::fmt(r.stats.fs(), 3) + " (" + pct(r.stats.fs()) + ")",
                       util::Table::fmt(r.stats.pp(), 3), util::Table::fmt(total, 3),
                       util::Table::fmt(baseline_total / total, 2) + "x"});
      }
      std::printf("%s:\n", core::to_string(backbone));
      table.print();
      std::printf("\n");
      if (final_nf > base_nf * 0.2) nf_vanishes = false;
      if (final_fs > base_fs) fs_shrinks = false;
      const double speedup = baseline_total / final_total;
      (backbone == core::BackboneKind::kTgat ? tgat_speedup_sum : mixer_speedup_sum) +=
          speedup;
    }
    ++datasets_counted;
  }

  std::printf("mean total speedup with GPU NF + 30%% cache: TGAT %.2fx, GraphMixer "
              "%.2fx (paper: 8.68x and 1.77x)\n\n",
              tgat_speedup_sum / datasets_counted, mixer_speedup_sum / datasets_counted);
  bench::print_shape("GPU finder removes the NF bottleneck (>5x NF reduction)",
                     nf_vanishes);
  bench::print_shape("feature cache shrinks FS", fs_shrinks);
  bench::print_shape("TGAT speedup exceeds GraphMixer speedup",
                     tgat_speedup_sum > mixer_speedup_sum);
  return 0;
}
