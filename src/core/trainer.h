#pragma once

#include <memory>
#include <vector>

#include "core/batch_builder.h"
#include "core/builder_pool.h"
#include "core/minibatch_selector.h"
#include "core/snapshot_pool.h"
#include "core/sample_loss.h"
#include "graph/tcsr.h"
#include "models/edge_predictor.h"
#include "models/graphmixer.h"
#include "models/tgat.h"
#include "nn/adam.h"
#include "obs/metrics.h"
#include "sampling/gpu_finder.h"
#include "sampling/orig_finder.h"
#include "sampling/tgl_finder.h"

namespace taser::core {

enum class BackboneKind { kTgat, kGraphMixer };
enum class FinderKind { kOrig, kTgl, kGpu };

/// How adaptive runs overlap batch construction with training. Builds of
/// non-adaptive runs read no trained state, so they always run
/// `prefetch_depth` batches ahead; the mode decides only what happens
/// once `ada_batch` / `ada_neighbor` feed training results back into
/// construction.
///  - kSyncOnly: adaptive runs build synchronously (lookahead 0): batch
///    k+1 is built after step k, inline on the caller.
///  - kStaleTheta: adaptive runs overlap too, by building batch k+j
///    (j ≤ `prefetch_depth`) from a snapshot of the sampler parameters θ
///    and the selector scores taken at submit time — up to
///    `prefetch_depth` steps old. The policy a build samples from lags
///    the live policy by a bounded number of updates, the
///    stale-synchronous pipelining of decoupled sampler/trainer and
///    parameter-server designs (TGN, NLB, SSP).
enum class PrefetchMode { kSyncOnly, kStaleTheta };

const char* to_string(BackboneKind kind);
const char* to_string(FinderKind kind);

/// Full experiment configuration. Paper defaults (§IV-A): batch 600,
/// n = 10, m = 25, hidden/time/encoding dims 100, lr 1e-4, γ = 0.1,
/// α = 2, β = 1; TGAT samples uniformly, GraphMixer most-recent.
/// Benches shrink dims/batches; bench/common.h (reduced_trainer_config)
/// and bench/suite/README.md state each reduction.
struct TrainerConfig {
  BackboneKind backbone = BackboneKind::kTgat;
  FinderKind finder = FinderKind::kGpu;
  double cache_ratio = 0.0;  ///< 0 = no VRAM cache (baseline feature path)

  bool ada_batch = false;     ///< temporal adaptive mini-batch selection (§III-A)
  bool ada_neighbor = false;  ///< temporal adaptive neighbor sampling (§III-B)

  /// How adaptive runs overlap construction with training (see
  /// PrefetchMode).
  PrefetchMode prefetch_mode = PrefetchMode::kSyncOnly;
  /// Prefetch ring depth K, the one setting that decides how training
  /// builds overlap: batch k+j (j ≤ K) may be built while batch k trains
  /// (in-flight ≤ K+1). 0 builds every batch inline on the caller after
  /// the previous step — the synchronous path; 1 ≡ the classic double
  /// buffer; deeper rings absorb bursty build times. Under kStaleTheta
  /// K is also the staleness bound: an adaptive build observes θ at most
  /// K updates old (the snapshot pool holds K+1 frozen-θ instances).
  /// Adaptive runs under kSyncOnly use lookahead 0 whatever K is.
  int prefetch_depth = 1;
  /// Concurrent builder workers P over the prefetch ring. Each ring slot
  /// has its own build context (BuilderPool), workers claim batches in
  /// submission order, and side-state folds in consumption order, so any
  /// P is bit-identical to P = 1 at every depth — P only converts ring
  /// depth into build throughput when construction is the bottleneck.
  /// Clamped to prefetch_depth + 1; unused at lookahead 0.
  int builder_workers = 1;

  /// Rejects out-of-range settings (throws std::runtime_error):
  /// prefetch_depth < 0, builder_workers < 1, batch_size < 1,
  /// eval_negatives < 1, max_eval_edges < 1, hidden_dim, time_dim,
  /// sampler_dim or decoder_hidden < 1, and grad_clip not > 0 (NaN
  /// included). Trainer calls this on construction.
  void validate() const;

  std::int64_t batch_size = 600;
  std::int64_t n_neighbors = 10;   ///< n
  std::int64_t m_candidates = 25;  ///< m
  std::int64_t hidden_dim = 100;
  std::int64_t time_dim = 100;
  std::int64_t sampler_dim = 100;    ///< encoder dfeat = dtime = dfreq
  std::int64_t decoder_hidden = 100;
  DecoderKind decoder = DecoderKind::kGatV2;
  /// Static finder policy; defaulted per backbone in Trainer (TGAT
  /// uniform, GraphMixer most-recent) unless overridden here.
  sampling::FinderPolicy policy = sampling::FinderPolicy::kUniform;
  bool policy_overridden = false;

  float lr = 1e-3f;
  float sampler_lr = 1e-3f;
  float gamma = 0.1f;  ///< Eq. 11 exploration floor
  SampleLossConfig sample_loss;
  float grad_clip = 5.f;
  float dropout = 0.1f;

  std::uint64_t seed = 7;
  int eval_negatives = 49;          ///< MRR protocol (DistTGL)
  std::int64_t max_eval_edges = 500;  ///< cap on edges per MRR evaluation (≥ 1)
  /// Cap on iterations per epoch (0 = full epoch). Runtime benches use
  /// this to measure per-phase costs without paying for convergence.
  std::int64_t max_iters_per_epoch = 0;
  /// Encoder ablation switches (bench_ablation_extras).
  bool encoder_use_freq = true;
  bool encoder_use_identity = true;
};

/// Per-epoch runtime breakdown + loss, in the shape of Table III rows.
///
/// `*_wall` are host-measured seconds of this (CPU) process; `*_sim` are
/// modeled seconds on the simulated device pipeline. The pipeline
/// accessors nf()/as()/fs()/pp() combine them the way the paper's system
/// would experience each step:
///   NF — host work for CPU finders (wall + modeled index H2D + the
///        interpreter model for the original finder); modeled kernel
///        time for the GPU finder (its wall time is simulation cost, and
///        is zeroed by the trainer).
///   AS — modeled device compute of the sampler's tensor work (the
///        sampler trains on-GPU in the paper).
///   FS — host slicing wall + modeled transfer/gather time.
///   PP — modeled device compute of the backbone forward/backward.
struct EpochStats {
  double nf_wall = 0, nf_sim = 0;
  double as_wall = 0, as_sim = 0;
  double fs_wall = 0, fs_sim = 0;
  double pp_wall = 0, pp_sim = 0;
  double mean_loss = 0;
  std::int64_t iterations = 0;
  /// Batches whose construction overlapped the previous batch's training
  /// (0 at lookahead 0).
  std::int64_t prefetched_batches = 0;
  /// Per-depth staleness histogram: staleness_hist[s] counts batches
  /// whose build observed a θ exactly s updates stale at consumption
  /// time. Sized prefetch_depth+1 for adaptive kStaleTheta runs (batch j
  /// observes min(j, K) when every step updates θ), size 1 otherwise;
  /// sums to `iterations` either way.
  std::vector<std::int64_t> staleness_hist;

  /// Staleness accounting (kStaleTheta): batches built from a sampler-θ
  /// snapshot at least one update older than the live parameters at
  /// consumption time, the sum of staleness_hist[1:]. 0 under kSyncOnly
  /// and at depth 0.
  std::int64_t stale_builds() const {
    std::int64_t n = 0;
    for (std::size_t s = 1; s < staleness_hist.size(); ++s) n += staleness_hist[s];
    return n;
  }

  double nf() const { return nf_wall + nf_sim; }
  double as() const { return as_sim; }
  /// FS is fully modeled: host-slice + H2D for the plain path, VRAM /
  /// zero-copy for the cached path. The wall time of our in-process
  /// memcpy is simulation bookkeeping, not pipeline cost.
  double fs() const { return fs_sim; }
  double pp() const { return pp_sim; }
  double total() const { return nf() + as() + fs() + pp(); }
  double wall_total() const { return nf_wall + as_wall + fs_wall + pp_wall; }
};

/// Drives self-supervised temporal link-prediction training (paper
/// Algorithm 1) for any combination of {backbone} x {finder} x {cache} x
/// {adaptive components}, with the per-phase instrumentation the runtime
/// benches report.
class Trainer {
 public:
  /// Slots of books(). Counters: `taser.train.{epochs,iterations,
  /// stale_builds}`. Histograms: one per EpochStats phase field, in field
  /// order — `taser.train.<nf|as|fs|pp>.<wall|sim>_ms` — each observing
  /// that field once per epoch, in milliseconds. Wall and modeled time
  /// never share a series.
  enum BookCounter : std::size_t { kEpochs, kIterations, kStaleBuilds };
  enum BookHistogram : std::size_t {
    kNfWallMs, kNfSimMs, kAsWallMs, kAsSimMs, kFsWallMs, kFsSimMs, kPpWallMs, kPpSimMs
  };

  Trainer(const graph::Dataset& data, TrainerConfig config);

  EpochStats train_epoch();

  /// Transductive MRR with `eval_negatives` sampled destinations over
  /// edge range [first, last) (capped at max_eval_edges, evenly strided).
  double evaluate_mrr(std::int64_t first_edge, std::int64_t last_edge);
  double evaluate_test_mrr() { return evaluate_mrr(data_.val_end, data_.num_edges()); }
  double evaluate_val_mrr() { return evaluate_mrr(data_.train_end, data_.val_end); }

  const TrainerConfig& config() const { return config_; }
  gpusim::Device& device() { return device_; }
  cache::FeatureSource& features() { return *features_; }
  models::TgnnModel& model() { return *model_; }
  /// Link-prediction head trained alongside the backbone; serving
  /// checkpoints bundle it with the model (serve::save_servable).
  models::EdgePredictor& predictor() { return *predictor_; }
  MiniBatchSelector* selector() { return selector_.get(); }
  AdaptiveSampler* sampler() { return sampler_.get(); }
  /// Frozen-θ snapshot pool (null outside kStaleTheta+ada_neighbor).
  /// Tests assert pinned() == 0 after an epoch — including one that
  /// unwound through an exception (SnapshotLease).
  SamplerSnapshotPool* snapshot_pool() { return snapshot_pool_.get(); }
  sampling::NeighborFinder& finder() { return *finder_; }
  int num_hops() const { return model_->num_hops(); }
  /// The trainer's books: every train_epoch() adds its EpochStats to
  /// them (BookCounter / BookHistogram slots).
  const obs::Scope& books() const { return books_; }

 private:
  graph::TargetBatch make_roots(const std::vector<std::int64_t>& edge_ids);
  /// Embeds roots laid out as [B src | B dst | B*K extra dsts] and
  /// returns the final embeddings.
  Tensor embed(const graph::TargetBatch& roots, util::PhaseAccumulator& phases);

  const graph::Dataset& data_;
  TrainerConfig config_;
  gpusim::Device device_;
  graph::TCSR tcsr_;
  std::unique_ptr<sampling::NeighborFinder> finder_;
  std::unique_ptr<cache::FeatureSource> features_;
  std::unique_ptr<models::TgnnModel> model_;
  std::unique_ptr<models::EdgePredictor> predictor_;
  std::unique_ptr<AdaptiveSampler> sampler_;
  /// Frozen-θ snapshot pool for stale-θ prefetch: prefetch_depth+1
  /// instances cycled in submission order — a batch's snapshot stays
  /// pinned from submit until its sample-loss gradient has been folded
  /// back, and at most prefetch_depth+1 batches are in that window at
  /// once. Only allocated in kStaleTheta mode with ada_neighbor.
  std::unique_ptr<SamplerSnapshotPool> snapshot_pool_;
  std::unique_ptr<MiniBatchSelector> selector_;
  std::unique_ptr<BatchBuilder> builder_;
  /// Per-ring-slot build contexts for train_epoch's pipeline (training
  /// builds always go through the pool, inline or on workers; evaluation
  /// uses builder_ on the shared finder and device directly).
  std::unique_ptr<BuilderPool> pool_;
  std::unique_ptr<nn::Adam> opt_model_;
  std::unique_ptr<nn::Adam> opt_sampler_;
  util::Rng rng_;
  graph::NodeId dst_begin_, dst_end_;
  obs::Scope books_{{"taser.train.epochs", "taser.train.iterations",
                     "taser.train.stale_builds"},
                    {"taser.train.nf.wall_ms", "taser.train.nf.sim_ms",
                     "taser.train.as.wall_ms", "taser.train.as.sim_ms",
                     "taser.train.fs.wall_ms", "taser.train.fs.sim_ms",
                     "taser.train.pp.wall_ms", "taser.train.pp.sim_ms"}};
  /// Last epoch's mean loss; a gauge has no per-object view to keep.
  obs::Gauge mean_loss_ = obs::gauge("taser.train.mean_loss");
};

}  // namespace taser::core
