// Training workloads: train-taser and train-mixer.
//
// A run is one fixed schedule — fresh data + Trainer from the seeds, one
// warm-up epoch, `timed_epochs` timed epochs, one validation MRR pass —
// plus extra set-ups for the setup_s median. Its loss trace and MRR are
// written as bit fingerprints: runs of one seed must match them.
//
// The traced run executes the same schedule twice, untraced and traced
// (the two must agree bit for bit), then replays an epoch's root batches
// serially through the layers' public calls (BatchBuilder::build, the
// backbone + predictor forward, backward, the sample loss, Adam) with one
// span per call — the per-layer breakdown.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "tensor/counters.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace suite {

using namespace taser;
namespace tt = taser::tensor;

namespace {

struct TrainWorkload {
  graph::SyntheticConfig data;
  core::TrainerConfig config;
  int timed_epochs = 0;
};

/// --seed picks the dataset; model and trainer seeds are fixed per workload.
/// The schedule is a function of --seconds alone (never of measured time),
/// so runs of one seed repeat bit for bit: about 70% of the budget goes to
/// timed epochs at the epoch time of a 4-core x86 host.
TrainWorkload train_workload(const std::string& name, std::uint64_t seed, double seconds) {
  TrainWorkload w;
  double nominal_epoch_s = 0;
  core::TrainerConfig& c = w.config;
  if (name == "train-taser") {
    // The paper's headline configuration: TGAT with adaptive mini-batch
    // selection and adaptive neighbor sampling, stale-θ prefetch (K=2,
    // one builder), the GPU finder and a 20% feature cache. The sampler
    // forward and backward (AS) take most of the host work.
    w.data = graph::wikipedia_like(0.02, 64);
    nominal_epoch_s = 2.8;
    c.backbone = core::BackboneKind::kTgat;
    c.cache_ratio = 0.2;
    c.ada_batch = true;
    c.ada_neighbor = true;
    c.prefetch_mode = core::PrefetchMode::kStaleTheta;
    c.prefetch_depth = 2;
    c.builder_workers = 1;
    c.decoder = core::DecoderKind::kGatV2;
    c.batch_size = 128;
    c.n_neighbors = 5;
    c.m_candidates = 10;
    c.hidden_dim = 32;
    c.time_dim = 16;
    c.sampler_dim = 16;
    c.decoder_hidden = 16;
    c.lr = 5e-3f;
    c.sampler_lr = 5e-3f;
    c.max_eval_edges = 150;
  } else {
    // GraphMixer at the paper's batch/width, non-adaptive most-recent
    // sampling, no cache (172-dim rows on the RAM feature path), two
    // builders over a depth-2 ring: builds overlap fully, so propagation
    // (mixer GEMMs, backward, Adam) dominates and AS is absent.
    w.data = graph::reddit_like(0.01, 0);
    nominal_epoch_s = 2.3;
    c.backbone = core::BackboneKind::kGraphMixer;
    c.prefetch_depth = 2;
    c.builder_workers = 2;
    c.batch_size = 600;
    c.n_neighbors = 10;
    c.hidden_dim = 100;
    c.max_eval_edges = 450;  // evaluation is cheap here: 1.5 s of it
  }
  c.finder = core::FinderKind::kGpu;
  c.seed = 7;
  w.data.seed = seed;
  w.timed_epochs = std::max(3, static_cast<int>(0.7 * seconds / nominal_epoch_s));
  return w;
}

struct Names {
  obs::SpanName setup = obs::intern_span_name("suite.train.setup");
  obs::SpanName epoch = obs::intern_span_name("suite.train.epoch");
  obs::SpanName eval = obs::intern_span_name("suite.train.eval");
  obs::SpanName roots = obs::intern_span_name("suite.replay.roots");
  obs::SpanName build = obs::intern_span_name("suite.replay.build");
  obs::SpanName forward = obs::intern_span_name("suite.replay.forward");
  obs::SpanName backward = obs::intern_span_name("suite.replay.backward");
  obs::SpanName sample_loss = obs::intern_span_name("suite.replay.sample_loss");
  obs::SpanName adam = obs::intern_span_name("suite.replay.adam");
  obs::SpanName epoch_end = obs::intern_span_name("suite.replay.epoch_end");
};
const Names& names() {
  static const Names n;
  return n;
}

/// Fresh data + Trainer, built from the workload's seeds.
struct TrainSetup {
  graph::Dataset data;
  std::unique_ptr<core::Trainer> trainer;
};

double set_up(const TrainWorkload& w, TrainSetup& s, SpanLog* log) {
  return timed(log, names().setup, 0, [&] {
    s.data = graph::generate_synthetic(w.data);
    s.trainer = std::make_unique<core::Trainer>(s.data, w.config);
  });
}

struct Repeat {
  double setup_s = 0, warmup_s = 0, eval_s = 0, mrr = 0;
  std::vector<double> epoch_s, losses, sim_s;
  std::int64_t iterations = 0;
  std::int64_t train_edges = 0;  ///< per epoch
  std::int64_t eval_edges = 0;
};

Repeat run_repeat(const TrainWorkload& w, SpanLog* log) {
  Repeat r;
  TrainSetup s;
  r.setup_s = set_up(w, s, log);
  core::Trainer& trainer = *s.trainer;
  for (int e = 0; e <= w.timed_epochs; ++e) {
    core::EpochStats stats;
    const double secs =
        timed(log, names().epoch, static_cast<std::uint64_t>(e),
              [&] { stats = trainer.train_epoch(); });
    r.losses.push_back(stats.mean_loss);
    r.iterations += stats.iterations;
    if (e == 0) {
      r.warmup_s = secs;
    } else {
      r.epoch_s.push_back(secs);
      r.sim_s.push_back(stats.total());
    }
  }
  r.eval_s = timed(log, names().eval, 0, [&] { r.mrr = trainer.evaluate_val_mrr(); });
  r.train_edges = s.data.num_train();
  r.eval_edges = std::min(s.data.num_val(), w.config.max_eval_edges);
  return r;
}

bool same_bits(const Repeat& a, const Repeat& b) {
  return hex_bits(a.losses) == hex_bits(b.losses) && hex_bits({a.mrr}) == hex_bits({b.mrr});
}

void check_repeat(Result& res, const Repeat& r) {
  res.check("train.val_mrr_above_0.15", r.mrr > 0.15);
  res.check("train.loss_finite", std::all_of(r.losses.begin(), r.losses.end(),
                                             [](double l) { return std::isfinite(l); }));
  res.fingerprints.emplace_back("train.losses", hex_bits(r.losses));
  res.fingerprints.emplace_back("train.val_mrr", hex_bits({r.mrr}));
}

// ---- serial per-layer replay ------------------------------------------------

struct ReplayEpoch {
  double nf = 0, as_fwd = 0, fs = 0;  // build phases (PhaseAccumulator)
  double roots = 0, build = 0, forward = 0, backward = 0, sample_loss = 0, adam = 0,
         epoch_end = 0;
  double wall = 0;
  std::uint64_t flops = 0, launches = 0;
  std::int64_t iterations = 0;
  bool finite = true;

  double layer_sum() const { return build + forward + backward + sample_loss + adam; }
  double spanned() const { return roots + layer_sum() + epoch_end; }
};

/// The layers of one Trainer driven directly: a BatchBuilder over the
/// trainer's finder/features/device/sampler and fresh Adam instances over
/// its parameters. Root batches are the train split in order, each with
/// one uniformly drawn negative destination per edge (the trainer's
/// non-adaptive batch layout).
class Replay {
 public:
  Replay(const graph::Dataset& data, core::Trainer& trainer)
      : data_(data), trainer_(trainer), rng_(0x5eedULL) {
    const core::TrainerConfig& c = trainer.config();
    core::BuilderConfig bc;
    bc.n = c.n_neighbors;
    bc.m = c.m_candidates;
    bc.policy = c.policy;
    bc.time_scale = data.mean_inter_event_gap();
    builder_ = std::make_unique<core::BatchBuilder>(data, trainer.finder(), trainer.features(),
                                                    trainer.device(), trainer.sampler(), bc);
    model_params_ = trainer.model().parameters();
    const auto pp = trainer.predictor().parameters();
    model_params_.insert(model_params_.end(), pp.begin(), pp.end());
    opt_model_ = std::make_unique<nn::Adam>(model_params_, c.lr);
    if (trainer.sampler() != nullptr) {
      sampler_params_ = trainer.sampler()->parameters();
      opt_sampler_ = std::make_unique<nn::Adam>(sampler_params_, c.sampler_lr);
    }
    dst_begin_ = data.dst_end > data.dst_begin ? data.dst_begin : 0;
    dst_end_ = data.dst_end > data.dst_begin ? data.dst_end
                                             : static_cast<graph::NodeId>(data.num_nodes);
  }

  /// One epoch over the train split, or its first `max_batches` batches.
  ReplayEpoch epoch(SpanLog* log, std::int64_t max_batches = -1) {
    const Names& n = names();
    const core::TrainerConfig& c = trainer_.config();
    ReplayEpoch r;
    util::PhaseAccumulator phases;
    const tt::OpCounterSnapshot ops;
    const auto wall0 = Clock::now();
    trainer_.finder().begin_epoch();
    const std::int64_t train = data_.num_train();
    const std::int64_t B = std::min<std::int64_t>(c.batch_size, train);
    for (std::int64_t lo = 0; lo < train && r.iterations != max_batches;
         lo += B, ++r.iterations) {
      const std::int64_t b = std::min(B, train - lo);
      const auto tag = static_cast<std::uint64_t>(r.iterations);
      graph::TargetBatch roots;
      util::Rng build_rng(0);
      r.roots += timed(log, n.roots, tag, [&] {
        roots = make_roots(lo, b);
        build_rng = rng_.split();
      });
      core::BatchBuilder::Built built;
      r.build += timed(log, n.build, tag, [&] {
        built = builder_->build(roots, trainer_.num_hops(), phases, build_rng);
      });
      tt::Tensor loss;
      r.forward += timed(log, n.forward, tag, [&] { loss = link_loss(built.inputs, b); });
      r.finite = r.finite && std::isfinite(loss.item());
      r.backward += timed(log, n.backward, tag, [&] { loss.backward(); });
      if (opt_sampler_) {
        r.sample_loss += timed(log, n.sample_loss, tag, [&] {
          tt::Tensor sl = core::build_sample_loss(trainer_.model().records(),
                                                  built.selections, c.sample_loss);
          if (!sl.defined()) return;
          sl.backward();
          nn::clip_grad_norm(sampler_params_, c.grad_clip);
          opt_sampler_->step();
          opt_sampler_->zero_grad();
        });
      }
      r.adam += timed(log, n.adam, tag, [&] {
        nn::clip_grad_norm(model_params_, c.grad_clip);
        opt_model_->step();
        opt_model_->zero_grad();
      });
    }
    r.epoch_end = timed(log, n.epoch_end, 0, [&] { trainer_.features().end_epoch(); });
    r.wall = seconds_since(wall0);
    r.nf = phases.total(core::phase::kNF);
    r.as_fwd = phases.total(core::phase::kAS);
    r.fs = phases.total(core::phase::kFS);
    r.flops = ops.flops();
    r.launches = ops.launches();
    return r;
  }

 private:
  graph::TargetBatch make_roots(std::int64_t lo, std::int64_t b) {
    graph::TargetBatch roots;
    for (std::int64_t e = lo; e < lo + b; ++e) roots.push(data_.src[e], data_.ts[e]);
    for (std::int64_t e = lo; e < lo + b; ++e) roots.push(data_.dst[e], data_.ts[e]);
    const auto span = static_cast<std::uint64_t>(dst_end_ - dst_begin_);
    for (std::int64_t e = lo; e < lo + b; ++e)
      roots.push(dst_begin_ + static_cast<graph::NodeId>(rng_.next_below(span)), data_.ts[e]);
    return roots;
  }

  /// Backbone + predictor forward and the BCE link loss over
  /// [b positives | b negatives] — the trainer's propagation step.
  tt::Tensor link_loss(const models::BatchInputs& inputs, std::int64_t b) {
    tt::Tensor h = trainer_.model().compute_embeddings(inputs);
    std::vector<std::int64_t> src(static_cast<std::size_t>(b)), dst(src.size()), neg(src.size());
    for (std::int64_t i = 0; i < b; ++i) {
      src[static_cast<std::size_t>(i)] = i;
      dst[static_cast<std::size_t>(i)] = b + i;
      neg[static_cast<std::size_t>(i)] = 2 * b + i;
    }
    const tt::Tensor h_src = tt::index_select0(h, src);
    const tt::Tensor pos = trainer_.predictor().forward(h_src, tt::index_select0(h, dst));
    const tt::Tensor neg_logits = trainer_.predictor().forward(h_src, tt::index_select0(h, neg));
    std::vector<float> targets(static_cast<std::size_t>(2 * b), 0.f);
    std::fill(targets.begin(), targets.begin() + b, 1.f);
    return tt::bce_with_logits_mean(tt::concat_dim0({pos, neg_logits}),
                                    tt::Tensor::from_vector({2 * b}, std::move(targets)));
  }

  const graph::Dataset& data_;
  core::Trainer& trainer_;
  util::Rng rng_;
  std::unique_ptr<core::BatchBuilder> builder_;
  std::vector<tt::Tensor> model_params_, sampler_params_;
  std::unique_ptr<nn::Adam> opt_model_, opt_sampler_;
  graph::NodeId dst_begin_ = 0, dst_end_ = 0;
};

Result run_traced(const Options& opt, const TrainWorkload& w) {
  Result res;
  SpanLog log(1, 1 << 16);
  const RegistryWindow window;
  // The untraced run's schedule, so both runs of a seed write the same
  // fingerprints.
  const Repeat plain = run_repeat(w, nullptr);
  const Repeat traced = run_repeat(w, &log);
  check_repeat(res, plain);
  res.check("train.traced_bits_equal_untraced", same_bits(plain, traced));
  const double epoch_s = median(plain.epoch_s);

  // Registry reads cover the two Trainer runs above (read before the
  // replay adds its own cache traffic).
  const auto hits = static_cast<double>(window.counter("taser.cache.hits"));
  const auto misses = static_cast<double>(window.counter("taser.cache.misses"));
  res.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const obs::LocalHistogram build_ms = window.histogram("taser.build.build_ms");
  res.set("core.build_ms.p50", build_ms.quantile(0.5));
  res.set("core.build_ms.p90", build_ms.quantile(0.9));

  TrainSetup s;
  set_up(w, s, nullptr);
  Replay replay(s.data, *s.trainer);
  const ReplayEpoch warm = replay.epoch(nullptr, 3);  // arenas, Adam state
  const ReplayEpoch r = replay.epoch(&log);
  res.check("train.replay_loss_finite", r.finite);

  res.set("sampling.nf_s", r.nf);
  res.set("cache.fs_s", r.fs);
  res.set("core.build_s", r.build);
  res.set("core.as_fwd_s", r.as_fwd);
  res.set("core.as_bwd_s", r.sample_loss);
  res.set("core.overlap_ratio", r.layer_sum() / epoch_s);
  res.set("models.fwd_s", r.forward);
  res.set("models.bwd_s", r.backward);
  res.set("nn.adam_s", r.adam);
  const double gflop = static_cast<double>(r.flops) * 1e-9;
  res.set("tensor.gflop", gflop);
  res.set("tensor.gflops", gflop / (r.as_fwd + r.forward + r.backward + r.sample_loss));
  res.set("tensor.launches", static_cast<double>(r.launches));
  res.set("train.epoch_p95_ms", quantile(plain.epoch_s, 0.95) * 1e3);
  res.set("train.sim_s", median(plain.sim_s));
  res.set("train.val_mrr", plain.mrr);
  res.set("train.eval_s", plain.eval_s);
  res.set("trace.overhead_ratio", median(traced.epoch_s) / epoch_s - 1.0);
  res.set("trace.dropped_spans", static_cast<double>(log.dropped()));
  res.set("trace.unaccounted_ratio", 1.0 - r.spanned() / r.wall);

  res.attempted = static_cast<std::uint64_t>(plain.iterations + traced.iterations +
                                             warm.iterations + r.iterations +
                                             plain.eval_edges + traced.eval_edges);
  const std::string path = ".bench_build/trace/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  res.check("trace.written", write_chrome_trace(path, {&log}));
  std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
  return res;
}

}  // namespace

bool is_train_workload(const std::string& name) {
  return name == "train-taser" || name == "train-mixer";
}

Result run_train(const Options& opt) {
  const TrainWorkload w = train_workload(opt.workload, opt.seed, opt.seconds);
  if (opt.trace) return run_traced(opt, w);

  Result res;
  // Set-up is cheap next to an epoch: extra samples for its median, half
  // before the schedule and half after it has freed its memory.
  std::vector<double> setups;
  auto sample_setup = [&] {
    TrainSetup s;
    setups.push_back(set_up(w, s, nullptr));
  };
  for (int i = 0; i < kSetupRepeats / 2; ++i) sample_setup();
  const Repeat r = run_repeat(w, nullptr);
  setups.push_back(r.setup_s);
  while (setups.size() < kSetupRepeats) sample_setup();
  check_repeat(res, r);

  res.set("setup_s", median(setups));
  res.set("peak_rss_mb", peak_rss_mb());
  res.set("p50_ms", median(r.epoch_s) * 1e3);
  // Training edges per second over the timed epochs. (Evaluation throughput
  // swung by 20% between runs of one set, so it is reported, not gated.)
  const double timed_s = std::accumulate(r.epoch_s.begin(), r.epoch_s.end(), 0.0);
  res.set("rate_per_s",
          static_cast<double>(r.train_edges * std::ssize(r.epoch_s)) / timed_s);
  // With this few epochs the nearest-rank p95 is the slowest one.
  res.set("train.epoch_p95_ms", quantile(r.epoch_s, 0.95) * 1e3);
  res.set("train.eval_s", r.eval_s);
  res.set("train.val_mrr", r.mrr);
  res.set("train.warmup_s", r.warmup_s);
  res.set("train.sim_s", median(r.sim_s));
  res.attempted = static_cast<std::uint64_t>(r.iterations + r.eval_edges);
  return res;
}

void sweep_train(std::uint64_t seed) {
  std::printf("%-12s %8s %12s %12s\n", "workload", "P", "epoch_s", "vs P=1");
  for (const char* name : {"train-taser", "train-mixer"}) {
    double base = 0;
    for (int p : {1, 2, 4}) {
      TrainWorkload w = train_workload(name, seed, 10);
      w.config.builder_workers = p;
      // P builders need a ring at least P deep to run concurrently (the
      // stale-θ staleness bound follows the depth).
      w.config.prefetch_depth = std::max(w.config.prefetch_depth, p);
      const Repeat r = run_repeat(w, nullptr);
      const double e = median(r.epoch_s);
      if (p == 1) base = e;
      std::printf("%-12s %8d %12.3f %11.2fx\n", name, p, e, base / e);
    }
  }
}

}  // namespace suite
