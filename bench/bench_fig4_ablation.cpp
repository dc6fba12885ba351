// Fig. 4 — neighbor-budget ablation: test MRR of full TASER on the
// Wikipedia-like dataset over the paper's (m, n) grid, for both
// backbones. m = finder candidate budget, n = adaptively selected
// supporting neighbors; only the n <= m triangle is defined.
//
// Paper claims: MRR improves with m at fixed n (more candidates let the
// sampler find more pivotal neighbors) and with n at fixed m.
#include <cstdio>

#include "common.h"

using namespace taser;

int main() {
  const int epochs = static_cast<int>(6 * bench::bench_scale());
  std::printf("== Fig. 4: TASER test MRR over (m, n), wikipedia-like, %d epochs ==\n\n",
              epochs);

  const std::vector<std::int64_t> ms = {10, 15, 20, 25};
  graph::Dataset data = generate_synthetic(bench::training_presets()[0]);

  bool m_monotone = true, n_monotone = true;
  for (auto backbone : {core::BackboneKind::kTgat, core::BackboneKind::kGraphMixer}) {
    // The 2-hop TGAT grid is quadratic in n; its sweep keeps the paper\'s m
    // axis but restricts n to {5, 10} (paper: 5-20).
    const std::vector<std::int64_t> ns =
        backbone == core::BackboneKind::kTgat ? std::vector<std::int64_t>{5, 10}
                                              : std::vector<std::int64_t>{5, 10, 15, 20};
    util::Table table({"", "m=10", "m=15", "m=20", "m=25"});
    std::vector<std::vector<double>> grid(ns.size(),
                                          std::vector<double>(ms.size(), -1.0));
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      std::vector<std::string> row = {"n=" + std::to_string(ns[ni])};
      for (std::size_t mi = 0; mi < ms.size(); ++mi) {
        if (ns[ni] > ms[mi]) {
          row.push_back("-");
          continue;
        }
        auto cfg = bench::reduced_trainer_config(backbone);
        cfg.ada_batch = true;
        cfg.ada_neighbor = true;
        cfg.n_neighbors = ns[ni];
        cfg.m_candidates = ms[mi];
        cfg.batch_size = backbone == core::BackboneKind::kTgat ? 64 : 128;
        // TASER uses adaptive (random) mini-batch selection, so capping
        // iterations subsamples the stream without chronological bias.
        if (backbone == core::BackboneKind::kTgat) cfg.max_iters_per_epoch = 10;
        const double mrr = bench::train_and_eval(data, cfg, epochs);
        grid[ni][mi] = mrr;
        row.push_back(util::Table::fmt(mrr, 4));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s:\n", core::to_string(backbone));
    table.print();
    std::printf("\n");

    // Shape checks with a small tolerance (single short run per cell).
    for (std::size_t ni = 0; ni < ns.size(); ++ni)
      for (std::size_t mi = 0; mi + 1 < ms.size(); ++mi)
        if (grid[ni][mi] >= 0 && grid[ni][mi + 1] >= 0 &&
            grid[ni][mi + 1] < grid[ni][mi] - 0.05)
          m_monotone = false;
    for (std::size_t mi = 0; mi < ms.size(); ++mi)
      for (std::size_t ni = 0; ni + 1 < ns.size(); ++ni)
        if (grid[ni][mi] >= 0 && grid[ni + 1][mi] >= 0 &&
            grid[ni + 1][mi] < grid[ni][mi] - 0.05)
          n_monotone = false;
  }

  bench::print_shape("MRR non-decreasing in m at fixed n (±5pp noise band)", m_monotone);
  bench::print_shape("MRR non-decreasing in n at fixed m (±5pp noise band)", n_monotone);
  return 0;
}
