#include "core/batch_builder.h"

#include <omp.h>

#include <algorithm>

#include "util/check.h"
#include "util/failpoint.h"

namespace taser::core {

namespace {

/// RAII: accumulates wall time under `wall`, the device ledger delta
/// under `sim`, and emits a matching trace span (util::ScopedPhase is the
/// wall-only form). Phase ids are a fixed enum — no string keys or map
/// nodes on the build hot path.
class PhaseScope {
 public:
  PhaseScope(util::PhaseAccumulator& acc, gpusim::Device& dev, util::Phase wall,
             util::Phase sim)
      : acc_(acc), dev_(dev), wall_(wall), sim_(sim), sim0_(dev.elapsed().seconds),
        span_(util::phase_span_name(wall)) {}
  ~PhaseScope() {
    acc_.add(wall_, timer_.seconds());
    acc_.add(sim_, dev_.elapsed().seconds - sim0_);
  }

 private:
  util::PhaseAccumulator& acc_;
  gpusim::Device& dev_;
  util::Phase wall_;
  util::Phase sim_;
  double sim0_;
  obs::TraceSpan span_;
  util::WallTimer timer_;
};

inline std::uint32_t hash_node(graph::NodeId v) {
  return static_cast<std::uint32_t>(v) * 2654435761u;
}

}  // namespace

BatchBuilder::BatchBuilder(const graph::Dataset& data, sampling::NeighborFinder& finder,
                           cache::FeatureSource& features, gpusim::Device& device,
                           AdaptiveSampler* sampler, BuilderConfig config)
    : data_(data),
      finder_(finder),
      features_(features),
      device_(device),
      sampler_(sampler),
      config_(config) {
  TASER_CHECK(config_.n > 0);
  if (sampler_) {
    TASER_CHECK_MSG(config_.m >= config_.n,
                    "candidate budget m=" << config_.m << " < n=" << config_.n);
  }
}

void BatchBuilder::sort_by_recency(sampling::SampledNeighbors& s) {
  const std::int64_t T = s.num_targets;
  ws_.prepare_threads(omp_get_max_threads());
#pragma omp parallel if (T > 32)
  {
    auto& sc = ws_.tls(omp_get_thread_num());
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < T; ++i) {
      const std::int64_t c = s.count[static_cast<std::size_t>(i)];
      if (c <= 1) continue;
      const std::int64_t base = i * s.budget;
      ws_.ensure(sc.sort_keys, static_cast<std::size_t>(c));
      for (std::int64_t j = 0; j < c; ++j)
        sc.sort_keys[static_cast<std::size_t>(j)] = {
            s.ts[static_cast<std::size_t>(base + j)], static_cast<std::int32_t>(j)};
      // (ts desc, original slot asc) — a total order, so plain sort gives
      // exactly what the serial stable_sort produced, with no internal
      // temporary-buffer allocation.
      std::sort(sc.sort_keys.begin(), sc.sort_keys.begin() + c,
                [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first : a.second < b.second;
                });
      ws_.ensure(sc.perm_nbr, static_cast<std::size_t>(c));
      ws_.ensure(sc.perm_ts, static_cast<std::size_t>(c));
      ws_.ensure(sc.perm_eid, static_cast<std::size_t>(c));
      for (std::int64_t j = 0; j < c; ++j) {
        const auto src =
            static_cast<std::size_t>(base + sc.sort_keys[static_cast<std::size_t>(j)].second);
        sc.perm_nbr[static_cast<std::size_t>(j)] = s.nbr[src];
        sc.perm_ts[static_cast<std::size_t>(j)] = s.ts[src];
        sc.perm_eid[static_cast<std::size_t>(j)] = s.eid[src];
      }
      std::copy_n(sc.perm_nbr.begin(), c, s.nbr.begin() + base);
      std::copy_n(sc.perm_ts.begin(), c, s.ts.begin() + base);
      std::copy_n(sc.perm_eid.begin(), c, s.eid.begin() + base);
    }
  }
}

void BatchBuilder::fill_candidate_set(const graph::TargetBatch& frontier,
                                      util::PhaseAccumulator& phases) {
  CandidateSet& cands = ws_.cands;
  const sampling::SampledNeighbors& raw = cands.raw;
  cands.targets = raw.num_targets;
  cands.m = raw.budget;
  cands.node_dim = data_.node_feat_dim;
  cands.edge_dim = data_.edge_feat_dim;
  const std::int64_t T = cands.targets;
  const std::int64_t m = cands.m;

  // Batch-generation cost: feature slicing for the candidate neighborhood
  // (edge rows dominate; node rows are VRAM-resident per the paper's
  // setting) plus the encoder-side auxiliary signals.
  PhaseScope fs(phases, device_, phase::kFS, phase::kFSSim);
  if (data_.edge_feat_dim > 0) {
    ws_.ensure(cands.edge_feats, static_cast<std::size_t>(T * m * data_.edge_feat_dim));
    features_.gather_edges(raw.eid, cands.edge_feats.data());
  }
  if (data_.node_feat_dim > 0) {
    ws_.ensure(cands.node_feats, static_cast<std::size_t>(T * m * data_.node_feat_dim));
    features_.gather_nodes(raw.nbr, cands.node_feats.data());
    ws_.ensure(cands.target_feats, static_cast<std::size_t>(T * data_.node_feat_dim));
    features_.gather_nodes(frontier.nodes, cands.target_feats.data());
  }

  ws_.ensure(cands.delta_t, static_cast<std::size_t>(T * m));
  ws_.ensure(cands.mask, static_cast<std::size_t>(T * m));
  ws_.ensure(cands.freq, static_cast<std::size_t>(T * m));
  ws_.ensure(cands.identity, static_cast<std::size_t>(T * m * m));

  // Expected-O(m) per target: group candidate slots by neighbor id with a
  // small open-addressing map, then freq(u_j) is the group size (Eq. 12)
  // and the identity pattern IE (Eq. 13) is written per group chain. The
  // seed's O(m²) all-pairs scan compared every slot against every other.
  std::size_t cap = 16;
  while (cap < static_cast<std::size_t>(2 * m)) cap <<= 1;
  ws_.prepare_threads(omp_get_max_threads());
#pragma omp parallel if (T > 32)
  {
    auto& sc = ws_.tls(omp_get_thread_num());
    ws_.ensure(sc.map_key, cap);
    ws_.ensure(sc.map_val, cap);
    ws_.ensure(sc.map_stamp, cap);
    ws_.ensure(sc.group_of, static_cast<std::size_t>(m));
    ws_.ensure(sc.group_cnt, static_cast<std::size_t>(m));
    ws_.ensure(sc.group_head, static_cast<std::size_t>(m));
    ws_.ensure(sc.slot_next, static_cast<std::size_t>(m));
    ws_.ensure(sc.identity_row, static_cast<std::size_t>(m));
    std::fill(sc.identity_row.begin(), sc.identity_row.end(), 0.f);

#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < T; ++i) {
      const std::int64_t base = i * m;
      // Clear this target's output rows (buffers are recycled across
      // batches, so stale values must not leak into padding slots).
      std::fill_n(cands.delta_t.begin() + base, m, 0.f);
      std::fill_n(cands.mask.begin() + base, m, 0.f);
      std::fill_n(cands.freq.begin() + base, m, 0.f);

      const std::int64_t c = raw.count[static_cast<std::size_t>(i)];
      // Padding rows of the identity block must be all-zero; rows j < c
      // are fully written below (pattern memcpy or zero + diagonal).
      std::fill_n(cands.identity.begin() + (base + c) * m, (m - c) * m, 0.f);
      if (c <= 0) continue;
      const graph::Time t0 = frontier.times[static_cast<std::size_t>(i)];

      if (++sc.stamp == 0) {  // stamp wrapped: hard-reset the map versions
        std::fill(sc.map_stamp.begin(), sc.map_stamp.end(), 0u);
        sc.stamp = 1;
      }
      std::int32_t num_groups = 0;
      for (std::int64_t j = 0; j < c; ++j) {
        const graph::NodeId u = raw.nbr[static_cast<std::size_t>(base + j)];
        std::size_t h = hash_node(u) & (cap - 1);
        while (sc.map_stamp[h] == sc.stamp && sc.map_key[h] != u) h = (h + 1) & (cap - 1);
        std::int32_t g;
        if (sc.map_stamp[h] != sc.stamp) {
          sc.map_stamp[h] = sc.stamp;
          sc.map_key[h] = u;
          g = num_groups++;
          sc.map_val[h] = g;
          sc.group_cnt[static_cast<std::size_t>(g)] = 0;
          sc.group_head[static_cast<std::size_t>(g)] = -1;
        } else {
          g = sc.map_val[h];
        }
        sc.group_of[static_cast<std::size_t>(j)] = g;
        sc.slot_next[static_cast<std::size_t>(j)] = sc.group_head[static_cast<std::size_t>(g)];
        sc.group_head[static_cast<std::size_t>(g)] = static_cast<std::int32_t>(j);
        ++sc.group_cnt[static_cast<std::size_t>(g)];
      }

      for (std::int64_t j = 0; j < c; ++j) {
        const auto s = static_cast<std::size_t>(base + j);
        cands.mask[s] = 1.f;
        cands.delta_t[s] = static_cast<float>((t0 - raw.ts[s]) / config_.time_scale);
        cands.freq[s] = static_cast<float>(
            sc.group_cnt[static_cast<std::size_t>(sc.group_of[static_cast<std::size_t>(j)])]);
      }

      // Identity rows: all members of a group share one row pattern, so
      // build it once and memcpy it to each member — sequential stores
      // instead of the scattered per-pair writes of a chain walk.
      for (std::int32_t g = 0; g < num_groups; ++g) {
        const std::int32_t cnt = sc.group_cnt[static_cast<std::size_t>(g)];
        const std::int32_t head = sc.group_head[static_cast<std::size_t>(g)];
        if (cnt == 1) {
          float* row = cands.identity.data() + (base + head) * m;
          std::fill_n(row, m, 0.f);
          row[head] = 1.f;
          continue;
        }
        for (std::int32_t k = head; k >= 0; k = sc.slot_next[static_cast<std::size_t>(k)])
          sc.identity_row[static_cast<std::size_t>(k)] = 1.f;
        for (std::int32_t j = head; j >= 0; j = sc.slot_next[static_cast<std::size_t>(j)])
          std::copy_n(sc.identity_row.begin(), m,
                      cands.identity.begin() + (base + j) * m);
        for (std::int32_t k = head; k >= 0; k = sc.slot_next[static_cast<std::size_t>(k)])
          sc.identity_row[static_cast<std::size_t>(k)] = 0.f;
      }
    }
  }
}

models::HopInputs BatchBuilder::hop_inputs_from(const CandidateSet& cands,
                                                const sampling::SampledNeighbors& chosen,
                                                const std::vector<std::int64_t>* slots) const {
  const std::int64_t T = chosen.num_targets;
  const std::int64_t n = chosen.budget;
  const std::int64_t m = cands.m;
  const std::int64_t dv = cands.node_dim;
  const std::int64_t de = cands.edge_dim;

  models::HopInputs hop;
  hop.targets = T;
  hop.width = n;

  // These buffers move into the returned tensors, transferring ownership
  // to the autograd graph — the one allocation per hop the arena cannot
  // recycle.
  std::vector<float> nf(dv > 0 ? static_cast<std::size_t>(T * n * dv) : 0, 0.f);
  std::vector<float> ef(de > 0 ? static_cast<std::size_t>(T * n * de) : 0, 0.f);
  std::vector<float> dt(static_cast<std::size_t>(T * n), 0.f);
  std::vector<float> mask(static_cast<std::size_t>(T * n), 0.f);

#pragma omp parallel for schedule(static) if (T > 32)
  for (std::int64_t i = 0; i < T; ++i) {
    const std::int64_t c = chosen.count[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < c; ++j) {
      const auto dst = static_cast<std::size_t>(i * n + j);
      // Slot in the candidate arrays this pick came from: identity when
      // the finder's output is used directly (baseline).
      const std::int64_t slot = slots ? (*slots)[dst] : j;
      const auto src = static_cast<std::size_t>(i * m + slot);
      mask[dst] = 1.f;
      dt[dst] = cands.delta_t[src];
      if (dv > 0)
        std::copy_n(cands.node_feats.begin() + static_cast<std::ptrdiff_t>(src) * dv, dv,
                    nf.begin() + static_cast<std::ptrdiff_t>(dst) * dv);
      if (de > 0)
        std::copy_n(cands.edge_feats.begin() + static_cast<std::ptrdiff_t>(src) * de, de,
                    ef.begin() + static_cast<std::ptrdiff_t>(dst) * de);
    }
  }

  if (dv > 0) hop.nbr_node_feats = Tensor::from_vector({T, n, dv}, std::move(nf));
  if (de > 0) hop.edge_feats = Tensor::from_vector({T, n, de}, std::move(ef));
  hop.delta_t = Tensor::from_vector({T, n}, std::move(dt));
  hop.mask = Tensor::from_vector({T, n}, std::move(mask));
  return hop;
}

BatchBuilder::Built BatchBuilder::build(const graph::TargetBatch& roots, int num_hops,
                                        util::PhaseAccumulator& phases, util::Rng& rng,
                                        AdaptiveSampler* sampler_override) {
  TASER_CHECK(num_hops >= 1);
  TASER_CHECK_MSG(sampler_override == nullptr || sampler_ != nullptr,
                  "sampler override on a non-adaptive builder");
  // Fault-injection site for the pipeline/trainer exception-path suites
  // (a failing build mid-epoch must unwind without leaking snapshot pins
  // or blocking pipeline teardown).
  TASER_FAILPOINT("core.builder.build");
  AdaptiveSampler* sampler = sampler_override ? sampler_override : sampler_;
  Built built;
  built.inputs.num_roots = static_cast<std::int64_t>(roots.size());

  graph::Time batch_time = 0;
  for (graph::Time t : roots.times) batch_time = std::max(batch_time, t);
  finder_.begin_batch(batch_time);

  if (data_.node_feat_dim > 0) {
    PhaseScope fs(phases, device_, phase::kFS, phase::kFSSim);
    std::vector<float> rf(static_cast<std::size_t>(built.inputs.num_roots *
                                                   data_.node_feat_dim));
    features_.gather_nodes(roots.nodes, rf.data());
    built.inputs.root_feats = Tensor::from_vector(
        {built.inputs.num_roots, data_.node_feat_dim}, std::move(rf));
  }

  graph::TargetBatch& frontier = ws_.frontier;
  ws_.ensure(frontier.nodes, roots.nodes.size());
  ws_.ensure(frontier.times, roots.times.size());
  std::copy(roots.nodes.begin(), roots.nodes.end(), frontier.nodes.begin());
  std::copy(roots.times.begin(), roots.times.end(), frontier.times.begin());

  for (int hop = 0; hop < num_hops; ++hop) {
    const std::int64_t budget = sampler_ ? config_.m : config_.n;

    CandidateSet& cands = ws_.cands;
    {
      PhaseScope nf(phases, device_, phase::kNF, phase::kNFSim);
      finder_.sample_into(frontier, budget, config_.policy, cands.raw);
      sort_by_recency(cands.raw);
      // CPU finders must ship the sampled indices to the device.
      if (finder_.name() != "taser-gpu") device_.account_h2d(cands.raw.payload_bytes());
    }

    fill_candidate_set(frontier, phases);

    const sampling::SampledNeighbors* next_src = nullptr;
    models::HopInputs hop_inputs;
    if (sampler) {
      util::ScopedPhase as(phases, phase::kAS);
      SelectionResult sel = sampler->select(cands, config_.n, rng);
      hop_inputs = hop_inputs_from(cands, sel.selected, &sel.selected_slot);
      built.selections.push_back(std::move(sel));
      // Next frontier comes from the *selected* supporting neighbors.
      next_src = &built.selections.back().selected;
    } else {
      hop_inputs = hop_inputs_from(cands, cands.raw, nullptr);
      next_src = &cands.raw;
    }
    built.inputs.hops.push_back(std::move(hop_inputs));

    // Assemble the next hop's frontier (one entry per slot, padding
    // included, exactly like the serial path).
    graph::TargetBatch& next = ws_.next_frontier;
    const std::int64_t T = next_src->num_targets;
    ws_.ensure(next.nodes, static_cast<std::size_t>(T * config_.n));
    ws_.ensure(next.times, static_cast<std::size_t>(T * config_.n));
    for (std::int64_t i = 0; i < T; ++i)
      for (std::int64_t j = 0; j < config_.n; ++j) {
        const auto s = static_cast<std::size_t>(next_src->slot(i, j));
        next.nodes[static_cast<std::size_t>(i * config_.n + j)] = next_src->nbr[s];
        next.times[static_cast<std::size_t>(i * config_.n + j)] = next_src->ts[s];
      }
    std::swap(ws_.frontier, ws_.next_frontier);
  }
  return built;
}

}  // namespace taser::core
