#include "serve/inference_session.h"

#include <cmath>

#include "tensor/counters.h"
#include "tensor/ops.h"

namespace taser::serve {

namespace tt = taser::tensor;

namespace {
// Salts splitting one request stream key into the src- and dst-root
// sampling streams (util::mix_stream_key).
constexpr std::uint64_t kSrcRootSalt = 0x5a11c0de5u;
constexpr std::uint64_t kDstRootSalt = 0xd5a17ea15u;

/// Non-adaptive: the finder samples n directly. The log's base never
/// changes, so neither does the ∆t normalisation derived from it,
/// whenever the session is built.
core::BuilderConfig builder_config(const SessionConfig& config, const graph::Dataset& base) {
  core::BuilderConfig bc;
  bc.n = config.n_neighbors;
  bc.m = config.n_neighbors;
  bc.policy = config.policy;
  bc.time_scale = config.time_scale > 0 ? config.time_scale : base.mean_inter_event_gap();
  return bc;
}
}  // namespace

// Edge rows come from the manager's one log, which both replicas bind —
// EdgeIds are dense and global regardless of shard count, so feature
// lookups are untouched by sharding. The builder reads only dims from the
// base.
InferenceSession::InferenceSession(GraphEpochManager& graphs, SessionConfig config)
    : graphs_(graphs),
      config_(config),
      features_(graphs.log(), device_),
      builder_(graphs.log().base(), finder_, features_, device_, /*sampler=*/nullptr,
               builder_config(config, graphs.log().base())),
      rng_(config.seed) {
  const graph::Dataset& data = graphs.log().base();
  util::Rng init_rng(config_.seed ^ 0xabcdef12345ULL);
  models::ModelConfig mc;
  mc.node_feat_dim = data.node_feat_dim;
  mc.edge_feat_dim = data.edge_feat_dim;
  mc.hidden_dim = config_.hidden_dim;
  mc.time_dim = config_.time_dim;
  mc.num_neighbors = config_.n_neighbors;
  if (config_.backbone == core::BackboneKind::kTgat) {
    model_ = std::make_unique<models::TgatModel>(mc, init_rng);
  } else {
    model_ = std::make_unique<models::GraphMixerModel>(mc, init_rng);
  }
  predictor_ = std::make_unique<models::EdgePredictor>(config_.hidden_dim, init_rng);
  model_->set_training(false);
  predictor_->set_training(false);
}

void InferenceSession::load_checkpoint(const std::string& path) {
  load_servable(*model_, *predictor_, path);
}

void InferenceSession::install_checkpoint(const nn::ParameterBundle& staged) {
  install_servable(*model_, *predictor_, staged);
}

void InferenceSession::score_links(const std::vector<LinkQuery>& queries,
                                   const std::uint64_t* stream_keys,
                                   std::vector<float>& out) {
  TASER_CHECK_MSG(!queries.empty(), "score_links on an empty micro-batch");
  TASER_CHECK_MSG(stream_keys != nullptr,
                  "score_links without stream keys — every query samples from "
                  "its own keyed stream");
  const auto B = static_cast<std::int64_t>(queries.size());
  const std::int64_t nodes = graphs_.num_nodes();
  for (const LinkQuery& q : queries) {
    TASER_CHECK_MSG(q.src >= 0 && q.src < nodes && q.dst >= 0 && q.dst < nodes,
                    "link query (" << q.src << ", " << q.dst
                                   << "): node id out of range [0, " << nodes << ")");
    TASER_CHECK_MSG(std::isfinite(q.t),
                    "link query (" << q.src << ", " << q.dst << ") at t=" << q.t
                                   << ": query time must be finite");
  }

  // Pin the current epoch for the whole request: builder + forward see
  // one immutable view, fenced by the publish-time version.
  GraphEpochManager::ReadGuard epoch = graphs_.acquire();
  last_epoch_ = epoch.epoch();

  // The whole request is a no-grad region; the tape-node delta check at
  // the end turns the "no autograd graph at serving time" contract into
  // an executable invariant (PR 4 style).
  const std::uint64_t tape0 = tt::OpCounters::thread_tape_nodes();
  tt::NoGradGuard no_grad;

  roots_.clear();
  for (const LinkQuery& q : queries) roots_.push(q.src, q.t);
  for (const LinkQuery& q : queries) roots_.push(q.dst, q.t);

  root_keys_.resize(static_cast<std::size_t>(2 * B));
  for (std::int64_t i = 0; i < B; ++i) {
    const std::uint64_t key = stream_keys[static_cast<std::size_t>(i)];
    root_keys_[static_cast<std::size_t>(i)] = util::mix_stream_key(key, kSrcRootSalt);
    root_keys_[static_cast<std::size_t>(B + i)] = util::mix_stream_key(key, kDstRootSalt);
  }
  finder_.arm(epoch.graph(), epoch.graph_version(), root_keys_);

  auto built = builder_.build(roots_, model_->num_hops(), phases_, rng_);
  util::ScopedPhase pp(phases_, core::phase::kPP);
  tensor::Tensor h = model_->compute_embeddings(built.inputs);

  src_idx_.resize(queries.size());
  dst_idx_.resize(queries.size());
  for (std::int64_t i = 0; i < B; ++i) {
    src_idx_[static_cast<std::size_t>(i)] = i;
    dst_idx_[static_cast<std::size_t>(i)] = B + i;
  }
  tensor::Tensor h_src = tt::index_select0(h, src_idx_);
  tensor::Tensor h_dst = tt::index_select0(h, dst_idx_);
  tensor::Tensor logits = predictor_->forward(h_src, h_dst);

  out.resize(queries.size());
  const float* lg = logits.data();
  std::copy_n(lg, B, out.begin());
  ++forwards_;

  TASER_CHECK_MSG(tt::OpCounters::thread_tape_nodes() == tape0,
                  "inference forward allocated autograd tape nodes — the "
                  "no-grad serving contract is broken");
}

}  // namespace taser::serve
