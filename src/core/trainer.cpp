#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "core/batch_pipeline.h"
#include "eval/metrics.h"
#include "tensor/counters.h"
#include "tensor/ops.h"

namespace taser::core {

namespace tt = taser::tensor;

const char* to_string(BackboneKind kind) {
  return kind == BackboneKind::kTgat ? "TGAT" : "GraphMixer";
}

const char* to_string(FinderKind kind) {
  switch (kind) {
    case FinderKind::kOrig:
      return "orig-cpu";
    case FinderKind::kTgl:
      return "tgl-cpu";
    case FinderKind::kGpu:
      return "taser-gpu";
  }
  return "?";
}

void TrainerConfig::validate() const {
  TASER_CHECK_MSG(prefetch_depth >= 0,
                  "prefetch_depth must be >= 0 (got " << prefetch_depth << ")");
  TASER_CHECK_MSG(builder_workers >= 1,
                  "builder_workers must be >= 1 (got " << builder_workers << ")");
  TASER_CHECK_MSG(batch_size >= 1, "batch_size must be >= 1 (got " << batch_size << ")");
  TASER_CHECK_MSG(eval_negatives >= 1,
                  "eval_negatives must be >= 1 (got " << eval_negatives << ")");
  TASER_CHECK_MSG(max_eval_edges >= 1,
                  "max_eval_edges must be >= 1 (got " << max_eval_edges << ")");
  TASER_CHECK_MSG(hidden_dim >= 1, "hidden_dim must be >= 1 (got " << hidden_dim << ")");
  TASER_CHECK_MSG(time_dim >= 1, "time_dim must be >= 1 (got " << time_dim << ")");
  TASER_CHECK_MSG(sampler_dim >= 1, "sampler_dim must be >= 1 (got " << sampler_dim << ")");
  TASER_CHECK_MSG(decoder_hidden >= 1,
                  "decoder_hidden must be >= 1 (got " << decoder_hidden << ")");
  // False for NaN too.
  TASER_CHECK_MSG(grad_clip > 0.f, "grad_clip must be > 0 (got " << grad_clip << ")");
}

Trainer::Trainer(const graph::Dataset& data, TrainerConfig config)
    : data_(data), config_(config), tcsr_(data),
      rng_(config.seed) {
  TASER_CHECK(data_.num_train() > 0);
  config_.validate();
  dst_begin_ = data_.dst_end > data_.dst_begin ? data_.dst_begin : 0;
  dst_end_ = data_.dst_end > data_.dst_begin ? data_.dst_end
                                             : static_cast<graph::NodeId>(data_.num_nodes);

  // Backbone-default static policy (§IV-A): TGAT uniform, GraphMixer
  // most-recent.
  if (!config_.policy_overridden && config_.backbone == BackboneKind::kGraphMixer)
    config_.policy = sampling::FinderPolicy::kMostRecent;

  switch (config_.finder) {
    case FinderKind::kOrig:
      finder_ = std::make_unique<sampling::OrigNeighborFinder>(tcsr_, config_.seed,
                                                               &device_);
      break;
    case FinderKind::kTgl:
      finder_ = std::make_unique<sampling::TglNeighborFinder>(tcsr_, config_.seed);
      break;
    case FinderKind::kGpu:
      finder_ = std::make_unique<sampling::GpuNeighborFinder>(tcsr_, device_);
      break;
  }

  if (config_.cache_ratio > 0.0 && data_.edge_feat_dim > 0) {
    features_ = std::make_unique<cache::CachedFeatureSource>(data_, device_,
                                                             config_.cache_ratio);
  } else {
    features_ = std::make_unique<cache::PlainFeatureSource>(data_, device_);
  }

  util::Rng init_rng(config_.seed ^ 0xabcdef12345ULL);
  models::ModelConfig mc;
  mc.node_feat_dim = data_.node_feat_dim;
  mc.edge_feat_dim = data_.edge_feat_dim;
  mc.hidden_dim = config_.hidden_dim;
  mc.time_dim = config_.time_dim;
  mc.num_neighbors = config_.n_neighbors;
  mc.dropout = config_.dropout;
  if (config_.backbone == BackboneKind::kTgat) {
    model_ = std::make_unique<models::TgatModel>(mc, init_rng);
  } else {
    model_ = std::make_unique<models::GraphMixerModel>(mc, init_rng);
  }
  predictor_ = std::make_unique<models::EdgePredictor>(config_.hidden_dim, init_rng);

  if (config_.ada_neighbor) {
    EncoderConfig ec;
    ec.node_feat_dim = data_.node_feat_dim;
    ec.edge_feat_dim = data_.edge_feat_dim;
    ec.dim = config_.sampler_dim;
    ec.m = config_.m_candidates;
    ec.use_freq = config_.encoder_use_freq;
    ec.use_identity = config_.encoder_use_identity;
    sampler_ = std::make_unique<AdaptiveSampler>(ec, config_.decoder,
                                                 config_.decoder_hidden, init_rng);
    auto sampler_params = sampler_->parameters();
    opt_sampler_ = std::make_unique<nn::Adam>(sampler_params, config_.sampler_lr);
    if (config_.prefetch_mode == PrefetchMode::kStaleTheta) {
      // K+1 pooled snapshot instances — the most that can be pinned at
      // once. Init values are irrelevant: every acquire overwrites them
      // with the live θ.
      const auto slots = static_cast<std::size_t>(config_.prefetch_depth) + 1;
      snapshot_pool_ = std::make_unique<SamplerSnapshotPool>(slots, [&] {
        util::Rng snap_rng(config_.seed ^ 0x57a1e7ULL);
        return std::make_unique<AdaptiveSampler>(ec, config_.decoder,
                                                 config_.decoder_hidden, snap_rng);
      });
    }
  }
  if (config_.ada_batch) {
    selector_ = std::make_unique<MiniBatchSelector>(data_.num_train(), config_.gamma,
                                                    config_.seed ^ 0x5151ULL);
  }

  BuilderConfig bc;
  bc.n = config_.n_neighbors;
  bc.m = config_.m_candidates;
  bc.policy = config_.policy;
  // Normalise ∆t so a typical per-node inter-event gap is ~1: the
  // time-encoding frequency banks are centred around unit timescales.
  // Shared with the serving session, which must match it bit-for-bit.
  bc.time_scale = data_.mean_inter_event_gap();
  builder_ = std::make_unique<BatchBuilder>(data_, *finder_, *features_, device_,
                                            sampler_.get(), bc);
  // Per-ring-slot build contexts for the training pipeline: one slot per
  // in-flight batch (depth + 1). Training builds route through the pool
  // at every lookahead — inline builds rotate through the same slot
  // contexts as worker builds, so both are bit-identical by construction.
  pool_ = std::make_unique<BuilderPool>(
      data_, *finder_, *features_, device_, sampler_.get(), bc,
      static_cast<std::size_t>(config_.prefetch_depth) + 1);

  auto params = model_->parameters();
  auto pp = predictor_->parameters();
  params.insert(params.end(), pp.begin(), pp.end());
  opt_model_ = std::make_unique<nn::Adam>(params, config_.lr);
}

graph::TargetBatch Trainer::make_roots(const std::vector<std::int64_t>& edge_ids) {
  graph::TargetBatch roots;
  const auto B = edge_ids.size();
  roots.nodes.reserve(3 * B);
  roots.times.reserve(3 * B);
  for (auto e : edge_ids) roots.push(data_.src[e], data_.ts[e]);
  for (auto e : edge_ids) roots.push(data_.dst[e], data_.ts[e]);
  for (auto e : edge_ids) {
    const auto span = static_cast<std::uint64_t>(dst_end_ - dst_begin_);
    roots.push(dst_begin_ + static_cast<graph::NodeId>(rng_.next_below(span)),
               data_.ts[e]);
  }
  return roots;
}

Tensor Trainer::embed(const graph::TargetBatch& roots, util::PhaseAccumulator& phases) {
  auto built = builder_->build(roots, model_->num_hops(), phases, rng_);
  util::ScopedPhase pp(phases, phase::kPP);
  return model_->compute_embeddings(built.inputs);
}

EpochStats Trainer::train_epoch() {
  model_->set_training(true);
  predictor_->set_training(true);
  if (sampler_) sampler_->set_training(true);
  finder_->begin_epoch();
  // Sync every slot context to the shared ledgers before the first build
  // (slot finders capture their per-epoch bases here).
  pool_->begin_epoch();

  util::PhaseAccumulator phases;
  const std::int64_t train = data_.num_train();
  const std::int64_t B = std::min<std::int64_t>(config_.batch_size, train);
  std::int64_t iters = (train + B - 1) / B;
  if (config_.max_iters_per_epoch > 0)
    iters = std::min(iters, config_.max_iters_per_epoch);
  double loss_sum = 0;

  // Prefetch requires a queued batch's construction to be independent of
  // the steps it overlaps: the adaptive selector re-weights the next
  // batch from this batch's logits, and the adaptive sampler's θ update
  // changes the very policy the next build samples from. kSyncOnly
  // therefore builds adaptive runs synchronously (lookahead 0).
  // kStaleTheta instead overlaps them by snapshotting θ (and sampling
  // the selector) at submit time: the trainer runs up to K submissions
  // ahead of the last completed step, so a build observes parameters at
  // most K updates old; the sample-loss gradient each batch produces
  // lands on its snapshot and is folded back into the live θ in
  // consumption (= submission) order before the optimizer step
  // (stale-gradient descent) — that fold-back order is the whole
  // determinism argument at depth K. K=0 submits each batch after the
  // previous step — same machinery, zero staleness, bit-identical to
  // sync. The lookahead is also the pipeline's ring depth: at 0 it
  // builds inline on this thread.
  const bool adaptive_feedback = selector_ != nullptr || sampler_ != nullptr;
  const bool stale =
      config_.prefetch_mode == PrefetchMode::kStaleTheta && adaptive_feedback;
  const int lookahead =
      adaptive_feedback && !stale ? 0 : config_.prefetch_depth;
  // Per-batch metadata travelling alongside the pipeline's ring, in the
  // same submission order (one struct so the entries cannot
  // desynchronize).
  struct PendingBatch {
    std::vector<std::int64_t> edge_ids;
    SnapshotLease lease;               ///< pins the frozen θ this batch builds from
    std::int64_t theta_at_submit = 0;  ///< θ updates applied at submit time
  };
  // Declared BEFORE the pipeline so the pipeline destructs FIRST on any
  // exit path: workers join (in-progress builds finish, queued jobs are
  // discarded) before the leases below release — and, in debug builds,
  // NaN-poison — the snapshots those builds may still be reading.
  std::deque<PendingBatch> pending;
  BatchPipeline pipeline(*pool_, model_->num_hops(), static_cast<std::size_t>(lookahead),
                         config_.builder_workers);
  std::int64_t prefetched = 0;
  std::int64_t theta_updates = 0;
  std::vector<std::int64_t> staleness_hist(
      static_cast<std::size_t>(stale ? lookahead : 0) + 1, 0);

  // Submission draws from rng_ (root negatives, then the per-batch fork)
  // in batch order at every lookahead — the deterministic RNG hand-off
  // that keeps prefetching and inline runs bit-identical. Stale mode
  // additionally freezes θ here, into the next round-robin slot of the
  // snapshot pool (a batch's snapshot stays pinned by its in-flight
  // autograd graph until its gradients are folded back at consumption).
  auto submit_iter = [&](std::int64_t it) {
    std::vector<std::int64_t> edge_ids;
    if (selector_) {
      edge_ids = selector_->sample_batch(B);
    } else {
      const std::int64_t lo = it * B;
      const std::int64_t hi = std::min<std::int64_t>(lo + B, train);
      edge_ids.resize(static_cast<std::size_t>(hi - lo));
      for (std::int64_t k = lo; k < hi; ++k)
        edge_ids[static_cast<std::size_t>(k - lo)] = k;
    }
    SnapshotLease lease;
    if (stale && sampler_) {
      lease = SnapshotLease(*snapshot_pool_, *sampler_);
      lease.get()->set_training(sampler_->training());
    }
    // Sequence the two rng_ draws explicitly: negatives first, then the
    // per-batch fork (as arguments their order would be compiler-defined,
    // breaking cross-toolchain reproducibility).
    graph::TargetBatch roots = make_roots(edge_ids);
    pipeline.submit(std::move(roots), rng_.split(), lease.get());
    pending.push_back(PendingBatch{std::move(edge_ids), std::move(lease), theta_updates});
  };

  std::int64_t next_submit = 0;
  for (std::int64_t it = 0; it < iters; ++it) {
    // Top up the ring before consuming batch `it`: batch j may be
    // submitted once step j - lookahead has completed, i.e. j ≤ it +
    // lookahead here. With lookahead 0 this submits exactly batch `it`,
    // sequenced after step it-1 — the synchronous order.
    while (next_submit < iters && next_submit <= it + lookahead)
      submit_iter(next_submit++);

    BatchPipeline::Prepared prep = pipeline.next();
    if (lookahead > 0 && it > 0) ++prefetched;
    PendingBatch batch = std::move(pending.front());
    pending.pop_front();
    const std::vector<std::int64_t>& edge_ids = batch.edge_ids;
    AdaptiveSampler* used_snapshot = batch.lease.get();
    // Observed staleness of this build: θ updates applied between its
    // submission and now, bounded by `lookahead` iterations.
    const auto observed = static_cast<std::size_t>(theta_updates - batch.theta_at_submit);
    TASER_CHECK(observed < staleness_hist.size());
    ++staleness_hist[observed];
    const auto b = static_cast<std::int64_t>(edge_ids.size());

    // The batch's inputs and selections (the sampler's autograd graph)
    // die with this loop body.
    auto built = std::move(prep.built);
    phases.merge(prep.phases);

    util::WallTimer pp_timer;
    // Thread-local snapshot: in stale-θ mode a prefetch worker issues
    // the next batch's sampler forward concurrently, and its flops must
    // not bleed into this batch's propagation accounting (the build
    // prices them into prep.phases itself).
    tensor::ThreadOpCounterSnapshot pp_snap;
    Tensor h = model_->compute_embeddings(built.inputs);
    std::vector<std::int64_t> src_idx(static_cast<std::size_t>(b)),
        dst_idx(static_cast<std::size_t>(b)), neg_idx(static_cast<std::size_t>(b));
    for (std::int64_t i = 0; i < b; ++i) {
      src_idx[static_cast<std::size_t>(i)] = i;
      dst_idx[static_cast<std::size_t>(i)] = b + i;
      neg_idx[static_cast<std::size_t>(i)] = 2 * b + i;
    }
    Tensor h_src = tt::index_select0(h, src_idx);
    Tensor h_dst = tt::index_select0(h, dst_idx);
    Tensor h_neg = tt::index_select0(h, neg_idx);
    Tensor pos_logits = predictor_->forward(h_src, h_dst);
    Tensor neg_logits = predictor_->forward(h_src, h_neg);

    Tensor logits = tt::concat_dim0({tt::reshape(pos_logits, {b, 1}),
                                     tt::reshape(neg_logits, {b, 1})});
    std::vector<float> targets(static_cast<std::size_t>(2 * b), 0.f);
    std::fill(targets.begin(), targets.begin() + b, 1.f);
    Tensor loss = tt::bce_with_logits_mean(
        tt::reshape(logits, {2 * b}),
        Tensor::from_vector({2 * b}, std::move(targets)));
    loss_sum += loss.item();

    loss.backward();
    {
      auto params = model_->parameters();
      auto pp_params = predictor_->parameters();
      params.insert(params.end(), pp_params.begin(), pp_params.end());
      nn::clip_grad_norm(params, config_.grad_clip);
    }
    opt_model_->step();
    phases.add(phase::kPP, pp_timer.seconds());
    phases.add(phase::kPPSim,
               device_.model().nn_time(pp_snap.flops(), pp_snap.launches()).seconds);

    // --- importance-score update (Eq. 11) -------------------------------
    if (selector_) {
      const float* pl = pos_logits.data();
      for (std::int64_t i = 0; i < b; ++i)
        selector_->update(edge_ids[static_cast<std::size_t>(i)], pl[i]);
    }

    // --- sampler co-training (Eq. 25/26) --------------------------------
    if (sampler_) {
      util::ScopedPhase as(phases, phase::kAS);
      tensor::ThreadOpCounterSnapshot loss_snap;  // see pp_snap
      Tensor sample_loss =
          build_sample_loss(model_->records(), built.selections, config_.sample_loss);
      if (sample_loss.defined()) {
        sample_loss.backward();
        // Stale mode: backward() just left ∇θ on the frozen snapshot this
        // batch was built from (its selections' autograd graph roots
        // there). Fold it into the live parameters — gradient computed at
        // θ_{k-s}, applied at θ_k — before clipping and stepping. Batches
        // are consumed in submission order, so fold-backs land in
        // submission order too: the live-θ update sequence is a pure
        // function of the seed, independent of worker timing.
        if (used_snapshot) sampler_->absorb_gradients_from(*used_snapshot);
        auto sp = sampler_->parameters();
        nn::clip_grad_norm(sp, config_.grad_clip);
        opt_sampler_->step();
        opt_sampler_->zero_grad();
        ++theta_updates;
        sampler_->bump_generation();
      }
      phases.add(phase::kASSim,
                 device_.model().nn_time(loss_snap.flops(), loss_snap.launches()).seconds);
    }
    // The records hold the model's graph; the step is done with it.
    model_->clear_records();
    // The batch's backward is done; nothing can touch its frozen θ again,
    // so its pool slot may be recycled (and, in debug builds, poisoned).
    // This is the success-path release point; the lease destructor is the
    // exception-unwind safety net (a failed build must not leak its pin
    // into the next epoch).
    batch.lease.reset();
    opt_model_->zero_grad();
  }

  features_->end_epoch();

  EpochStats stats;
  stats.nf_wall = phases.total(phase::kNF);
  stats.nf_sim = phases.total(phase::kNFSim);
  stats.as_wall = phases.total(phase::kAS);
  stats.as_sim = phases.total(phase::kASSim);
  stats.fs_wall = phases.total(phase::kFS);
  stats.fs_sim = phases.total(phase::kFSSim);
  stats.pp_wall = phases.total(phase::kPP);
  stats.pp_sim = phases.total(phase::kPPSim);
  // The GPU finder's wall time is the cost of *simulating* the kernels,
  // not of the pipeline; only its modeled time counts.
  if (config_.finder == FinderKind::kGpu) stats.nf_wall = 0;
  stats.iterations = iters;
  stats.prefetched_batches = prefetched;
  stats.staleness_hist = std::move(staleness_hist);
  stats.mean_loss = iters > 0 ? loss_sum / static_cast<double>(iters) : 0;
  books_.add(kEpochs);
  books_.add(kIterations, static_cast<std::uint64_t>(stats.iterations));
  books_.add(kStaleBuilds, static_cast<std::uint64_t>(stats.stale_builds()));
  const double phase_s[] = {stats.nf_wall, stats.nf_sim, stats.as_wall, stats.as_sim,
                            stats.fs_wall, stats.fs_sim, stats.pp_wall, stats.pp_sim};
  for (std::size_t h = kNfWallMs; h <= kPpSimMs; ++h) books_.observe(h, phase_s[h] * 1e3);
  mean_loss_.set(stats.mean_loss);
  return stats;
}

double Trainer::evaluate_mrr(std::int64_t first_edge, std::int64_t last_edge) {
  TASER_CHECK(first_edge >= 0 && last_edge <= data_.num_edges() && first_edge < last_edge);
  // Evaluation backpropagates nothing: no forward below records a tape.
  tensor::NoGradGuard no_grad;
  model_->set_training(false);
  predictor_->set_training(false);
  if (sampler_) sampler_->set_training(false);
  finder_->begin_epoch();

  // Evenly strided subsample of at most max_eval_edges.
  std::vector<std::int64_t> eval_edges;
  const std::int64_t span = last_edge - first_edge;
  const std::int64_t count = std::min<std::int64_t>(span, config_.max_eval_edges);
  for (std::int64_t k = 0; k < count; ++k)
    eval_edges.push_back(first_edge + k * span / count);

  const int K = config_.eval_negatives;
  // Chunk so each embedding batch stays modest: E*(2+K) roots.
  const std::int64_t chunk = std::max<std::int64_t>(1, 600 / (2 + K));
  util::PhaseAccumulator scratch;
  double mrr_sum = 0;

  for (std::size_t lo = 0; lo < eval_edges.size(); lo += static_cast<std::size_t>(chunk)) {
    const std::size_t hi = std::min(eval_edges.size(), lo + static_cast<std::size_t>(chunk));
    const auto E = static_cast<std::int64_t>(hi - lo);
    graph::TargetBatch roots;
    for (std::size_t k = lo; k < hi; ++k)
      roots.push(data_.src[eval_edges[k]], data_.ts[eval_edges[k]]);
    for (std::size_t k = lo; k < hi; ++k)
      roots.push(data_.dst[eval_edges[k]], data_.ts[eval_edges[k]]);
    for (std::size_t k = lo; k < hi; ++k) {
      for (int j = 0; j < K; ++j) {
        const auto spanN = static_cast<std::uint64_t>(dst_end_ - dst_begin_);
        roots.push(dst_begin_ + static_cast<graph::NodeId>(rng_.next_below(spanN)),
                   data_.ts[eval_edges[k]]);
      }
    }
    Tensor h = embed(roots, scratch);

    // Pair up: pos (src_i, dst_i); negs (src_i, neg_ik).
    std::vector<std::int64_t> a_idx, b_idx;
    for (std::int64_t i = 0; i < E; ++i) {
      a_idx.push_back(i);
      b_idx.push_back(E + i);
    }
    for (std::int64_t i = 0; i < E; ++i)
      for (int j = 0; j < K; ++j) {
        a_idx.push_back(i);
        b_idx.push_back(2 * E + i * K + j);
      }
    Tensor ha = tt::index_select0(h, a_idx);
    Tensor hb = tt::index_select0(h, b_idx);
    Tensor logits = predictor_->forward(ha, hb);
    const float* lg = logits.data();
    for (std::int64_t i = 0; i < E; ++i)
      mrr_sum += eval::reciprocal_rank(
          lg[i], std::span<const float>(lg + E + i * K, static_cast<std::size_t>(K)));
  }

  model_->set_training(true);
  predictor_->set_training(true);
  if (sampler_) sampler_->set_training(true);
  return mrr_sum / static_cast<double>(eval_edges.size());
}

}  // namespace taser::core
