#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "sampling/dynamic_finder.h"
#include "serve/checkpoint.h"
#include "serve/epoch_manager.h"

namespace taser::serve {

/// One link-prediction query: how likely is an interaction (src, dst) at
/// time t, given every event strictly earlier than t currently in the
/// graph. `t` must be finite.
struct LinkQuery {
  graph::NodeId src = 0;
  graph::NodeId dst = 0;
  graph::Time t = 0;
  /// Per-query completion deadline in milliseconds from submit(), the
  /// ServingEngine's shedding knob: 0 inherits EngineConfig::
  /// default_deadline_ms, negative disables the deadline even when a
  /// default is configured. A request whose deadline passes while it
  /// waits in a shard queue is shed at dequeue time (its future fails
  /// with DeadlineExceededError); a deadline past what steady_clock can
  /// represent (+inf included) never passes. Ignored by direct
  /// InferenceSession calls — sessions score synchronously, nothing
  /// queues.
  double deadline_ms = 0;
};

/// Model-side serving configuration. The architecture fields must match
/// the training run that produced the checkpoint (load_checkpoint's
/// strict name/shape matching enforces it); `time_scale` must match the
/// trainer's ∆t normalisation — 0 derives it from the base dataset of the
/// manager's event log (EventLog::base(), which streamed events never
/// change) with the same Dataset::mean_inter_event_gap() formula the
/// Trainer uses.
struct SessionConfig {
  core::BackboneKind backbone = core::BackboneKind::kGraphMixer;
  std::int64_t n_neighbors = 10;
  std::int64_t hidden_dim = 100;
  std::int64_t time_dim = 100;
  /// Static finder policy; serving defaults to the recency-biased
  /// most-recent sampling (GraphMixer's training default). Stochastic
  /// policies (uniform / inverse-timespan) draw from per-query keyed
  /// streams, so they are batching-independent too.
  sampling::FinderPolicy policy = sampling::FinderPolicy::kMostRecent;
  double time_scale = 0;  ///< 0 = the log base's mean_inter_event_gap()
  std::uint64_t seed = 11;
  gpusim::DeviceSpec device_spec = gpusim::rtx6000ada();
};

/// No-grad inference over a streaming graph: loads a train→serve
/// checkpoint (serve::save_servable), samples temporal neighborhoods from
/// the merged view of a GraphEpochManager's published epoch through a
/// workspace-backed BatchBuilder (the training hot path, reused —
/// steady-state serving is zero-allocation in the builder arena once
/// batch shapes stabilise, asserted via workspace_alloc_events()), and
/// runs backbone + predictor forward under NoGradGuard.
///
/// The session keeps one sampling pipeline per replica of the manager,
/// and every score_links pins the current epoch for its duration, hands
/// the publish-time version to the finder as the read-side fence, and
/// scores against that immutable view. N sessions on N threads serve
/// concurrently against the same manager while the ingest thread builds
/// the next epoch.
///
/// No-grad contract (hard assert, not a convention): every score_links
/// call checks that the tensor runtime allocated *zero* tape nodes while
/// it ran — the forward is a pure function evaluation, holds no
/// references to its inputs, and is bitwise-equal to the training-path
/// forward at the same parameters and inputs (test_serve pins both).
///
/// Threading: a session is single-threaded like the builders it wraps —
/// at most one score_links at a time. That is the *only* sequencing
/// requirement: graph mutations are the epoch manager's problem, and
/// concurrent sessions never share mutable state (each owns its model
/// replica, builders, workspaces, device and Rng).
class InferenceSession {
 public:
  /// score_links pins the manager's current epoch per call.
  InferenceSession(GraphEpochManager& graphs, SessionConfig config);

  /// Restores model + predictor parameters from a save_servable bundle.
  /// All-or-nothing: any failure leaves the replica on its old parameters.
  void load_checkpoint(const std::string& path);
  /// Installs an already-staged bundle (serve::read_servable) — the
  /// ServingEngine's per-replica half of its all-or-nothing load.
  void install_checkpoint(const nn::ParameterBundle& staged);

  /// Scores a micro-batch of link queries: out[i] is the predictor logit
  /// for queries[i] (higher = more likely interaction). One builder pass
  /// over [srcs | dsts] roots, one backbone forward, one predictor
  /// forward — all no-grad. stream_keys[i] (the engine passes the request
  /// sequence number) seeds query i's private sampling streams, so its
  /// score is independent of micro-batch composition, batch position and
  /// worker — 1-worker and N-worker serving are bit-identical (asserted
  /// in test_serve). A null `stream_keys`, an out-of-range node id or a
  /// non-finite query time is a hard error, raised before the epoch is
  /// pinned.
  void score_links(const std::vector<LinkQuery>& queries,
                   const std::uint64_t* stream_keys, std::vector<float>& out);

  /// Builder-arena allocation events, summed over the session's pipelines
  /// (flat in steady state once every replica's shapes have warmed — the
  /// serving zero-allocation invariant benches and tests assert).
  std::uint64_t workspace_alloc_events() const;
  /// Micro-batches scored so far.
  std::uint64_t forwards() const { return forwards_; }
  /// Epoch id of the most recent scored batch (0 before any).
  std::uint64_t last_epoch() const { return last_epoch_; }

  models::TgnnModel& model() { return *model_; }
  models::EdgePredictor& predictor() { return *predictor_; }
  const SessionConfig& config() const { return config_; }
  /// Accumulated NF/AS/FS/PP phase ledger across all requests.
  const util::PhaseAccumulator& phases() const { return phases_; }

 private:
  /// One per-replica sampling pipeline: finder + feature source + builder
  /// (with its own BuilderWorkspace arena), all bound to one replica; the
  /// finder routes each root to its owning shard.
  struct Pipeline {
    Pipeline(const graph::ShardedDynamicTCSR& graph, gpusim::Device& device,
             const SessionConfig& config, double time_scale);
    sampling::DynamicNeighborFinder finder;
    std::unique_ptr<cache::FeatureSource> features;
    std::unique_ptr<core::BatchBuilder> builder;
  };

  GraphEpochManager& graphs_;
  SessionConfig config_;
  gpusim::Device device_;
  std::unique_ptr<Pipeline> pipes_[2];  ///< one per replica (ReadGuard::side)
  std::unique_ptr<models::TgnnModel> model_;
  std::unique_ptr<models::EdgePredictor> predictor_;
  util::Rng rng_;
  util::PhaseAccumulator phases_;
  std::uint64_t forwards_ = 0;
  std::uint64_t last_epoch_ = 0;
  // score_links scratch, recycled across micro-batches.
  graph::TargetBatch roots_;
  std::vector<std::int64_t> src_idx_, dst_idx_;
  std::vector<std::uint64_t> root_keys_;
};

}  // namespace taser::serve
