// Table II — dataset statistics. Generates the five synthetic stand-ins
// at bench scale and prints their statistics in the paper's layout, plus
// the noise-structure ground truth (fractions of deprecated / noise
// events) that the real datasets cannot expose.
#include <cstdio>

#include "common.h"
#include "graph/stats.h"

using namespace taser;

int main() {
  std::printf("== Table II: dataset statistics (synthetic stand-ins, scale=%.2f) ==\n\n",
              bench::bench_scale());
  util::Table table({"dataset", "|V|", "|E|", "|dv|", "|de|", "train/val/test",
                     "max deg", "repeat%", "deprecated%", "noise%"});
  bool bipartite_seen = false;
  for (auto& cfg : bench::training_presets()) {
    graph::SyntheticMeta meta;
    graph::Dataset data = generate_synthetic(cfg, &meta);
    graph::DatasetStats s = graph::compute_stats(data);
    std::int64_t dep = 0, noise = 0;
    for (auto k : meta.edge_kind) {
      dep += k == graph::SyntheticMeta::kDeprecated;
      noise += k == graph::SyntheticMeta::kNoise;
    }
    const double e = static_cast<double>(data.num_edges());
    table.add_row({s.name, std::to_string(s.num_nodes), std::to_string(s.num_edges),
                   s.node_feat_dim ? std::to_string(s.node_feat_dim) : "-",
                   s.edge_feat_dim ? std::to_string(s.edge_feat_dim) : "-",
                   std::to_string(s.num_train) + "/" + std::to_string(s.num_val) + "/" +
                       std::to_string(s.num_test),
                   util::Table::fmt(s.max_degree, 0),
                   util::Table::fmt(100 * s.repeat_edge_frac, 1),
                   util::Table::fmt(100 * dep / e, 1),
                   util::Table::fmt(100 * noise / e, 1)});
    bipartite_seen |= data.dst_begin > 0;
  }
  table.print();
  std::printf("\n(feature dims reduced to 16 for the training benches; paper dims "
              "172/100/266/413+130; edges scaled to ~2.5-4k per dataset)\n");
  bench::print_shape(
      "five datasets with bipartite+unipartite mix, heavy repeats and planted noise",
      bipartite_seen);
  return 0;
}
