#pragma once

#include "graph/dataset.h"
#include "util/rng.h"

namespace taser::graph {

/// Configuration of the synthetic CTDG generator.
///
/// The generator plants exactly the two noise structures the paper
/// identifies in real dynamic graphs (§I):
///
///  1. **Deprecated links** — every source node follows a latent
///     "archetype" (interest group). A fraction of nodes *relocate*: at a
///     random time their archetype is redrawn. Interactions recorded
///     before the relocation point at destinations of the old archetype
///     and mislead any aggregator that treats all history equally.
///  2. **Skewed neighborhoods** — destination choice is bursty: with
///     probability `repeat_prob` a node re-interacts with a previous
///     partner (frequency reinforcement), producing the heavy-tailed,
///     repeat-heavy neighbor distributions of real interaction graphs.
///
/// Additionally, `noise_edge_prob` of events pick a uniformly random
/// destination — the "inferior interactions" that hurt models when used
/// as positive training samples (§III-A).
struct SyntheticConfig {
  std::string name = "synthetic";
  std::int64_t num_src = 1000;
  std::int64_t num_dst = 1000;  ///< 0 = unipartite (every node is both roles)
  std::int64_t num_edges = 50000;
  std::int64_t node_feat_dim = 0;
  std::int64_t edge_feat_dim = 32;

  int num_archetypes = 16;  ///< latent interest groups == destination clusters
  int latent_dim = 8;

  double zipf_activity = 1.05;   ///< source-activity skew
  double repeat_prob = 0.45;     ///< burst/repeat interactions
  double relocation_prob = 0.5;  ///< fraction of sources that relocate once
  double noise_edge_prob = 0.15; ///< purely random destinations
  double feat_noise = 0.4;       ///< stddev of additive feature noise
  double horizon = 1e6;          ///< timestamp range [0, horizon)
  std::uint64_t seed = 42;
};

/// Per-edge ground truth kept alongside the dataset. Tests and the cache /
/// sampler diagnostics use it; models never see it.
struct SyntheticMeta {
  enum EdgeKind : std::uint8_t { kFresh = 0, kRepeat = 1, kNoise = 2, kDeprecated = 3 };
  std::vector<std::uint8_t> edge_kind;   ///< per edge
  std::vector<Time> relocation_time;     ///< per node; inf when never relocates
  std::vector<int> archetype_before;     ///< per node
  std::vector<int> archetype_after;      ///< per node
};

/// Generates a dataset (chronologically sorted, validated, 60/20/20
/// split applied). When `meta` is non-null, fills the ground truth.
Dataset generate_synthetic(const SyntheticConfig& config, SyntheticMeta* meta = nullptr);

/// Paper dataset presets (Table II), uniformly scaled by `scale` in node
/// and edge counts so that training benches fit the host budget.
/// `feat_dim_override` > 0 replaces the paper's feature dims (the
/// reduced-configuration benches use 16 or 64; bench/common.h).
SyntheticConfig wikipedia_like(double scale = 1.0, std::int64_t feat_dim_override = 0);
SyntheticConfig reddit_like(double scale = 1.0, std::int64_t feat_dim_override = 0);
SyntheticConfig flights_like(double scale = 1.0, std::int64_t feat_dim_override = 0);
SyntheticConfig movielens_like(double scale = 1.0, std::int64_t feat_dim_override = 0);
SyntheticConfig gdelt_like(double scale = 1.0, std::int64_t feat_dim_override = 0);

/// All five presets in paper order.
std::vector<SyntheticConfig> all_paper_presets(double scale,
                                               std::int64_t feat_dim_override = 0);

}  // namespace taser::graph
