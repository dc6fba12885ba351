// Serving workloads: serve-read and serve-ingest.
//
// Load generator: the main thread is the one sender (open-loop Poisson
// schedule of queries and streamed events, pre-drawn from the seed), one
// completion collector thread resolves futures, and in serve-ingest one
// watermark poller samples GraphEpochManager::events_published() at 1 kHz.
// Query latency is timed from the request's *scheduled* send time, so a
// stall also charges the requests queued behind it; how late the sender
// itself ran is reported separately.
//
// The model is a random-initialised GraphMixer checkpoint: serving cost
// does not depend on parameter values.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "graph/synthetic.h"
#include "serve/serving_engine.h"
#include "tensor/counters.h"
#include "workloads.h"

namespace suite {

using namespace taser;

namespace {

constexpr double kSloMs = 10.0;  // serve.slo_qps latency limit on p95
/// Unmeasured traffic before a fresh engine's measured window, and before
/// each ladder rung (rate change) on a warm one.
constexpr double kWarmupS = 2.0;
constexpr double kRungWarmupS = 0.5;

struct ServeWorkload {
  graph::SyntheticConfig data;
  serve::SessionConfig session;
  serve::EngineConfig engine;
  serve::EpochConfig epoch;
  double query_rate = 0;  ///< nominal offered load, queries/s
  double event_rate = 0;  ///< streamed events/s alongside it
  /// Saturation throughput on a 4-core x86 host (queries/s, or events/s
  /// when events dominate): sizes the fixed work of the capacity phase.
  double nominal_capacity = 0;
  bool poll_visibility = false;
  std::vector<double> ladder;  ///< serve.slo_qps rungs (q/s), ascending
};

ServeWorkload serve_workload(const std::string& name, std::uint64_t seed) {
  ServeWorkload w;
  w.data = graph::movielens_like(0.05, 32);
  w.data.seed = seed;
  w.session.backbone = core::BackboneKind::kGraphMixer;
  w.session.n_neighbors = 10;
  w.session.hidden_dim = 64;
  w.session.time_dim = 64;
  w.engine.num_workers = 2;
  w.engine.max_batch = 64;
  w.engine.max_delay_ms = 1.0;
  if (name == "serve-read") {
    // The query path — engine batching, the session builder on the
    // DynamicTCSR view, the no-grad forward — with a trickle of writes
    // (one event per 8 queries).
    w.query_rate = 4000;
    w.event_rate = 500;
    w.nominal_capacity = 12000;
    // Saturation is 10.5-12.5k q/s on a 4-core x86 host: 6000 and 8000
    // q/s met the latency limit in every run there, 10000 only in some.
    // 12000 is the rung a faster engine would add.
    w.ladder = {6000, 8000, 12000};
  } else {
    // Writes beside reads: 8 events per query keep publish, shard replay,
    // compaction and retire-wait busy.
    w.epoch.num_shards = 4;
    w.epoch.compact_threshold = 2000;
    w.query_rate = 500;
    w.event_rate = 4000;
    w.nominal_capacity = 80000;
    w.poll_visibility = true;
  }
  return w;
}

struct Names {
  obs::SpanName setup = obs::intern_span_name("suite.serve.setup");
  obs::SpanName request = obs::intern_span_name("suite.serve.request");
  obs::SpanName submit = obs::intern_span_name("suite.serve.submit");
  obs::SpanName ingest = obs::intern_span_name("suite.serve.ingest");
  obs::SpanName score = obs::intern_span_name("suite.replay.score_links");
  obs::SpanName score64 = obs::intern_span_name("suite.replay.score_links.b64");
  obs::SpanName queries = obs::intern_span_name("suite.replay.queries");
  obs::SpanName epoch_ingest = obs::intern_span_name("suite.replay.epoch_ingest");
  obs::SpanName publish = obs::intern_span_name("suite.replay.publish");
};
const Names& names() {
  static const Names n;
  return n;
}

/// Writes the workload's servable checkpoint (random θ, fixed seed).
std::string write_checkpoint(const ServeWorkload& w, const std::string& workload) {
  util::Rng init(21);
  models::ModelConfig mc;
  mc.node_feat_dim = w.data.node_feat_dim;
  mc.edge_feat_dim = w.data.edge_feat_dim;
  mc.hidden_dim = w.session.hidden_dim;
  mc.time_dim = w.session.time_dim;
  mc.num_neighbors = w.session.n_neighbors;
  models::GraphMixerModel model(mc, init);
  models::EdgePredictor predictor(w.session.hidden_dim, init);
  const std::string path = ".bench_build/run/" + workload + ".ckpt";
  TASER_CHECK_MSG(ensure_parent_dir(path), "cannot create " << path);
  serve::save_servable(model, predictor, path);
  return path;
}

struct ServeSetup {
  graph::Dataset data;  ///< the base graph the traffic draws node pairs from
  /// The workload's session config with ∆t normalisation pinned to the base
  /// graph: a session derives it from the replica's log when left at 0,
  /// and that log grows with every streamed event.
  serve::SessionConfig session;
  /// Event time of the stream: each streamed event advances it, and
  /// queries ask about the present (after every event sent so far).
  graph::Time now = 0;
  std::unique_ptr<serve::GraphEpochManager> mgr;
  std::unique_ptr<serve::ServingEngine> engine;  ///< declared last: destroyed first
};

/// Data generation, epoch manager, engine and checkpoint load.
double set_up(const ServeWorkload& w, const std::string& ckpt, ServeSetup& s,
              SpanLog* log) {
  return timed(log, names().setup, 0, [&] {
    s.data = graph::generate_synthetic(w.data);
    s.session = w.session;
    s.session.time_scale = s.data.mean_inter_event_gap();
    s.now = s.data.ts.back();
    s.mgr = std::make_unique<serve::GraphEpochManager>(s.data, w.epoch);
    s.engine = std::make_unique<serve::ServingEngine>(*s.mgr, s.session, w.engine);
    s.engine->load_checkpoint(ckpt);
  });
}

/// A random existing interaction (the pair a query or event is about).
std::size_t random_edge(const graph::Dataset& data, util::Rng& rng) {
  return static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(data.num_edges())));
}

serve::LinkQuery make_query(const graph::Dataset& data, std::size_t e, graph::Time now) {
  return {data.src[e], data.dst[e], now + 0.5};
}

void send_event(ServeSetup& s, std::size_t e) {
  const float* row = s.data.edge_feat(static_cast<graph::EdgeId>(e));
  s.now += 1.0;
  s.engine->ingest(s.data.src[e], s.data.dst[e], s.now,
                   std::vector<float>(row, row + s.data.edge_feat_dim));
}

struct Op {
  double at_s;  ///< scheduled offset from the phase start
  bool query;
  std::size_t edge;
};

/// Merged Poisson schedule of queries (qrate) and events (erate).
std::vector<Op> make_schedule(const graph::Dataset& data, double qrate, double erate,
                              double duration_s, util::Rng& rng) {
  std::vector<Op> ops;
  const double rate = qrate + erate;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration_s) break;
    const bool query = rng.next_double() * rate < qrate;
    ops.push_back({t, query, random_edge(data, rng)});
  }
  return ops;
}

struct Traffic {
  // Measured window only:
  std::vector<double> latency_ms;  ///< per query, from scheduled send; inf = failed
  std::vector<double> late_ms;     ///< sender lateness per op
  std::vector<double> submit_us;   ///< host time inside submit()
  std::vector<double> visible_ms;  ///< per event, ingest() return -> published
  std::int64_t backlog_end = 0;  ///< queued queries + events when sending ended
  double drain_s = 0;            ///< last send -> everything resolved and published
  // Library registry over the measured window:
  double engine_p95_ms = 0;    ///< the engine's own enqueue -> complete latency
  double batch_mean = 0;       ///< queries per scored micro-batch
  double publish_p50_ms = 0, publish_p95_ms = 0;
  std::uint64_t publishes = 0, events_published = 0, compactions = 0;
  // Every operation sent, warm-up included:
  std::uint64_t queries = 0, events = 0, failed = 0, unresolved = 0;
};

/// Completion collector: resolves futures as they become ready (polling,
/// so a fast worker's results are not held behind a slow one's) and times
/// each against its scheduled send.
class Collector {
 public:
  Collector(std::vector<double>& latency_ms, SpanLog* log)
      : latency_ms_(latency_ms), log_(log), thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void add(std::future<float> f, Clock::time_point sched, std::size_t idx) {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back({std::move(f), sched, idx});
  }
  /// No more requests; returns once every future has resolved, or after
  /// kResolveTimeout with the rest counted as unresolved.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t unresolved() const { return unresolved_; }

 private:
  static constexpr auto kResolveTimeout = std::chrono::seconds(30);

  struct Pending {
    std::future<float> fut;
    Clock::time_point sched;
    std::size_t idx;
  };

  void loop() {
    std::vector<Pending> inflight;
    std::optional<Clock::time_point> closed_at;
    for (;;) {
      bool closed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& p : inbox_) inflight.push_back(std::move(p));
        inbox_.clear();
        closed = closed_;
      }
      if (closed && !closed_at) closed_at = Clock::now();
      if (closed_at && Clock::now() - *closed_at > kResolveTimeout) {
        unresolved_ = inflight.size();
        failed_ += unresolved_;
        return;
      }
      bool progressed = false;
      for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const auto now = Clock::now();
        double ms = ms_between(inflight[i].sched, now);
        try {
          inflight[i].fut.get();
        } catch (const std::exception&) {
          ms = std::numeric_limits<double>::infinity();
          ++failed_;
        }
        latency_ms_[inflight[i].idx] = ms;
        if (log_ != nullptr)
          log_->add(names().request, inflight[i].sched, now, inflight[i].idx, true);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
        progressed = true;
      }
      if (closed && inflight.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (inbox_.empty()) return;
        continue;
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::vector<double>& latency_ms_;
  SpanLog* log_;
  std::uint64_t failed_ = 0;  ///< collector thread only; read after finish()
  std::uint64_t unresolved_ = 0;  ///< likewise
  std::mutex mu_;
  std::deque<Pending> inbox_;
  bool closed_ = false;
  std::thread thread_;  ///< declared last: starts after the state it uses
};

/// Samples events_published() every millisecond and stamps the first time
/// each streamed event is visible.
class VisibilityPoller {
 public:
  VisibilityPoller(const serve::GraphEpochManager& mgr, std::size_t events)
      : mgr_(mgr), base_(mgr.events_published()), visible_(events),
        thread_([this] { loop(); }) {}
  ~VisibilityPoller() { stop(); }
  VisibilityPoller(const VisibilityPoller&) = delete;
  VisibilityPoller& operator=(const VisibilityPoller&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  const std::vector<Clock::time_point>& visible() const { return visible_; }

 private:
  void loop() {
    std::size_t marked = 0;
    auto next = Clock::now();
    for (;;) {
      const bool last = stop_.load();
      const auto published =
          std::min<std::uint64_t>(mgr_.events_published() - base_, visible_.size());
      const auto now = Clock::now();
      for (; marked < published; ++marked) visible_[marked] = now;
      if (last) return;
      next += std::chrono::milliseconds(1);
      std::this_thread::sleep_until(next);
    }
  }

  const serve::GraphEpochManager& mgr_;
  std::uint64_t base_;
  std::vector<Clock::time_point> visible_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One open-loop pass of duration_s at the given rates.
Traffic traffic(ServeSetup& s, const ServeWorkload& w, double qrate, double erate,
                double duration_s, util::Rng& rng, SpanLog* sender_log, SpanLog* collector_log) {
  const std::vector<Op> ops = make_schedule(s.data, qrate, erate, duration_s, rng);
  Traffic tr;
  for (const Op& op : ops) (op.query ? tr.queries : tr.events)++;
  tr.latency_ms.assign(tr.queries, std::numeric_limits<double>::infinity());
  tr.late_ms.reserve(ops.size());
  tr.submit_us.reserve(tr.queries);
  std::vector<Clock::time_point> ingested(tr.events);

  const RegistryWindow window;
  std::unique_ptr<VisibilityPoller> poller;
  if (w.poll_visibility) poller = std::make_unique<VisibilityPoller>(*s.mgr, tr.events);
  Collector collector(tr.latency_ms, collector_log);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::size_t qi = 0, ei = 0;
  for (const Op& op : ops) {
    const auto sched =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(op.at_s));
    std::this_thread::sleep_until(sched);
    const auto t0 = Clock::now();
    tr.late_ms.push_back(ms_between(sched, t0));
    if (op.query) {
      std::future<float> f = s.engine->submit(make_query(s.data, op.edge, s.now));
      const auto t1 = Clock::now();
      tr.submit_us.push_back(ms_between(t0, t1) * 1e3);
      if (sender_log != nullptr) sender_log->add(names().submit, t0, t1, qi);
      collector.add(std::move(f), sched, qi++);
    } else {
      send_event(s, op.edge);
      ingested[ei] = Clock::now();
      if (sender_log != nullptr) sender_log->add(names().ingest, t0, ingested[ei], ei);
      ++ei;
    }
  }
  const auto sent = Clock::now();
  const serve::ServingStats at_end = s.engine->stats();
  tr.backlog_end = at_end.queue_depth + at_end.event_queue_depth;
  collector.finish();
  s.engine->drain();
  tr.drain_s = seconds_since(sent);
  tr.failed = collector.failed();
  tr.unresolved = collector.unresolved();
  if (poller) {
    poller->stop();
    for (std::size_t i = 0; i < tr.events; ++i)
      tr.visible_ms.push_back(std::max(0.0, ms_between(ingested[i], poller->visible()[i])));
  }
  tr.engine_p95_ms = window.histogram("taser.serve.latency_ms.w").quantile(0.95);
  tr.batch_mean = window.histogram("taser.serve.batch_occupancy").mean();
  const obs::LocalHistogram publish_ms = window.histogram("taser.epoch.publish_ms");
  tr.publish_p50_ms = publish_ms.quantile(0.5);
  tr.publish_p95_ms = publish_ms.quantile(0.95);
  tr.publishes = window.counter("taser.epoch.published");
  tr.events_published = window.counter("taser.serve.events.ingested");
  tr.compactions = window.counter("taser.epoch.compactions");
  return tr;
}

/// Unmeasured warm-up traffic, then the measured pass on the same stream
/// (a fresh engine's first seconds pay arena growth and first touches that
/// steady-state serving does not; a rate change needs its queues to settle).
Traffic open_loop(ServeSetup& s, const ServeWorkload& w, double qrate, double erate,
                  double warmup_s, double duration_s, util::Rng& rng,
                  SpanLog* sender_log = nullptr, SpanLog* collector_log = nullptr) {
  const Traffic warm = traffic(s, w, qrate, erate, warmup_s, rng, nullptr, nullptr);
  Traffic tr = traffic(s, w, qrate, erate, duration_s, rng, sender_log, collector_log);
  tr.queries += warm.queries;
  tr.events += warm.events;
  tr.failed += warm.failed;
  tr.unresolved += warm.unresolved;
  return tr;
}

/// Saturation throughput of the workload's own bottleneck path, closed
/// loop over a fixed amount of work (so that the graph grows by the same
/// amount however fast the host is): about `duration_s` at the nominal
/// capacity. Queries/s with a 256-request window (plus the workload's
/// event mix) when queries dominate, events/s applied and published when
/// events dominate.
double capacity(ServeSetup& s, const ServeWorkload& w, double duration_s, util::Rng& rng,
                std::uint64_t& attempted, std::uint64_t& failed) {
  const auto ops = static_cast<std::uint64_t>(w.nominal_capacity * duration_s);
  const auto t0 = Clock::now();
  if (w.query_rate >= w.event_rate) {
    const auto per_event = static_cast<std::uint64_t>(std::lround(w.query_rate / w.event_rate));
    std::deque<std::future<float>> window;
    for (std::uint64_t sent = 0; sent < ops || !window.empty();) {
      while (sent < ops && window.size() < 256) {
        window.push_back(s.engine->submit(make_query(s.data, random_edge(s.data, rng), s.now)));
        if (++sent % per_event == 0) send_event(s, random_edge(s.data, rng));
      }
      try {
        window.front().get();
      } catch (const std::exception&) {
        ++failed;
      }
      window.pop_front();
    }
    attempted += ops + ops / per_event;
  } else {
    for (std::uint64_t done = 0; done < ops;) {
      for (int k = 0; k < 1000 && done < ops; ++k, ++done) send_event(s, random_edge(s.data, rng));
      s.engine->drain();
    }
    attempted += ops;
  }
  s.engine->drain();
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Correctness probe: after drain(), 256 engine-scored queries must be
/// bit-equal to a direct keyed InferenceSession::score_links on the same
/// manager (the engine keys request i by its submission sequence number).
bool probe_matches(ServeSetup& s, const std::string& ckpt, util::Rng& rng,
                   std::uint64_t& attempted) {
  s.engine->drain();
  const std::uint64_t first_seq = s.engine->stats().submitted;
  std::vector<serve::LinkQuery> queries;
  std::vector<std::future<float>> futures;
  for (int i = 0; i < 256; ++i) {
    queries.push_back(make_query(s.data, random_edge(s.data, rng), s.now));
    futures.push_back(s.engine->submit(queries.back()));
  }
  std::vector<float> served;
  for (auto& f : futures) served.push_back(f.get());
  attempted += queries.size();
  std::vector<std::uint64_t> keys(queries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = first_seq + i;
  serve::InferenceSession session(*s.mgr, s.session);
  session.load_checkpoint(ckpt);
  std::vector<float> direct;
  session.score_links(queries, keys.data(), direct);
  return direct.size() == served.size() &&
         std::memcmp(direct.data(), served.data(), served.size() * sizeof(float)) == 0;
}

void check_engine(Result& res, const ServeSetup& s) {
  const serve::ServingStats st = s.engine->stats();
  res.check("serve.stats_identity",
            st.requests + st.rejected + st.expired + st.faulted == st.submitted);
  res.check("serve.drained", st.queue_depth == 0 && st.event_queue_depth == 0);
}

// ---- per-layer replays --------------------------------------------------------

struct SessionReplay {
  double forward_ms = 0, forward_ms_b64 = 0, nf_ms = 0, pp_ms_b64 = 0;
  double flops_b64 = 0, launches_b64 = 0;
  double wall = 0, spanned = 0;
};

/// Direct InferenceSession::score_links on a fresh manager (no ingest):
/// 200 calls at the engine's mean batch size, then 200 at 64.
SessionReplay replay_session(const ServeSetup& s, const ServeWorkload& w,
                             const std::string& ckpt, std::int64_t batch, SpanLog& log) {
  serve::GraphEpochManager mgr(s.data, w.epoch);
  serve::InferenceSession session(mgr, s.session);
  session.load_checkpoint(ckpt);
  util::Rng rng(0x5e55ULL);
  std::vector<serve::LinkQuery> queries;
  std::vector<float> out;
  std::uint64_t key = 0;
  std::vector<std::uint64_t> keys;
  auto fill = [&](std::int64_t n) {
    queries.clear();
    keys.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      queries.push_back(make_query(s.data, random_edge(s.data, rng), s.data.ts.back()));
      keys.push_back(key++);
    }
  };
  for (int i = 0; i < 20; ++i) {  // warm the builder arenas for both shapes
    fill(i % 2 == 0 ? batch : 64);
    session.score_links(queries, keys.data(), out);
  }

  SessionReplay r;
  constexpr int kCalls = 200;
  const auto wall0 = Clock::now();
  std::vector<double> mean_calls, b64_calls;
  const double nf0 = session.phases().total(core::phase::kNF);
  for (int i = 0; i < kCalls; ++i) {
    r.spanned += timed(&log, names().queries, 0, [&] { fill(batch); });
    const double secs = timed(&log, names().score, static_cast<std::uint64_t>(batch),
                              [&] { session.score_links(queries, keys.data(), out); });
    mean_calls.push_back(secs);
    r.spanned += secs;
  }
  r.nf_ms = (session.phases().total(core::phase::kNF) - nf0) / kCalls * 1e3;
  const double pp0 = session.phases().total(core::phase::kPP);
  const tensor::OpCounterSnapshot ops;
  for (int i = 0; i < kCalls; ++i) {
    r.spanned += timed(&log, names().queries, 0, [&] { fill(64); });
    const double secs = timed(&log, names().score64, 64,
                              [&] { session.score_links(queries, keys.data(), out); });
    b64_calls.push_back(secs);
    r.spanned += secs;
  }
  r.pp_ms_b64 = (session.phases().total(core::phase::kPP) - pp0) / kCalls * 1e3;
  r.flops_b64 = static_cast<double>(ops.flops()) / kCalls;
  r.launches_b64 = static_cast<double>(ops.launches()) / kCalls;
  r.wall = seconds_since(wall0);
  r.forward_ms = median(mean_calls) * 1e3;
  r.forward_ms_b64 = median(b64_calls) * 1e3;
  return r;
}

struct EpochReplay {
  double publish_ms = 0;
  double wall = 0, spanned = 0;
};

/// GraphEpochManager ingest + publish with no readers: 200 publishes of
/// `per_publish` events each, the engine's observed batch size.
EpochReplay replay_epochs(const ServeSetup& s, const ServeWorkload& w, std::int64_t per_publish,
                          SpanLog& log) {
  serve::GraphEpochManager mgr(s.data, w.epoch);
  util::Rng rng(0xe90cULL);
  graph::Time t = s.data.ts.back();
  EpochReplay r;
  std::vector<double> publishes;
  const auto wall0 = Clock::now();
  for (int p = 0; p < 200; ++p) {
    r.spanned += timed(&log, names().epoch_ingest, static_cast<std::uint64_t>(per_publish), [&] {
      for (std::int64_t k = 0; k < per_publish; ++k) {
        const std::size_t e = random_edge(s.data, rng);
        const float* row = s.data.edge_feat(static_cast<graph::EdgeId>(e));
        t += 1.0;
        mgr.ingest(s.data.src[e], s.data.dst[e], t,
                   std::vector<float>(row, row + s.data.edge_feat_dim));
      }
    });
    const double secs = timed(&log, names().publish, 0, [&] { mgr.publish(); });
    publishes.push_back(secs);
    r.spanned += secs;
  }
  r.wall = seconds_since(wall0);
  r.publish_ms = median(publishes) * 1e3;
  return r;
}

/// Ladder for serve.slo_qps: the highest rung whose p95 meets the limit
/// with zero failures and a backlog drained within 1 s of the last send.
double slo_qps(ServeSetup& s, const ServeWorkload& w, double rung_s,
               util::Rng& rng, std::uint64_t& attempted, std::uint64_t& failed) {
  double best = 0;
  for (double rate : w.ladder) {
    const Traffic tr = open_loop(s, w, rate, rate * w.event_rate / w.query_rate,
                                 kRungWarmupS, rung_s, rng);
    attempted += tr.queries + tr.events;
    failed += tr.failed;
    const bool ok = quantile(tr.latency_ms, 0.95) <= kSloMs && tr.failed == 0 &&
                    tr.drain_s <= 1.0;
    std::fprintf(stderr, "slo ladder: %.0f q/s p95 %.2f ms drain %.3f s -> %s\n", rate,
                 quantile(tr.latency_ms, 0.95), tr.drain_s, ok ? "ok" : "miss");
    if (!ok) break;
    best = rate;
  }
  return best;
}

Result run_traced(const Options& opt, const ServeWorkload& w, const std::string& ckpt) {
  Result res;
  SpanLog sender_log(1, 1 << 18), collector_log(2, 1 << 18), replay_log(3, 1 << 14);
  ServeSetup s;
  set_up(w, ckpt, s, &sender_log);
  util::Rng rng(opt.seed ^ 0x7a11ULL);
  const bool has_ladder = !w.ladder.empty();
  const double pass_s = opt.seconds * (has_ladder ? 0.2 : 0.3);

  const Traffic plain = open_loop(s, w, w.query_rate, w.event_rate, kWarmupS, pass_s, rng);
  res.set("serve.epoch.publish_ms.p50", plain.publish_p50_ms);
  res.set("serve.epoch.publish_ms.p95", plain.publish_p95_ms);
  res.set("serve.epoch.publishes", static_cast<double>(plain.publishes));
  const double per_publish = plain.publishes > 0
                                 ? static_cast<double>(plain.events_published) /
                                       static_cast<double>(plain.publishes)
                                 : 1.0;
  res.set("serve.epoch.events_per_publish", per_publish);
  res.set("serve.epoch.compactions", static_cast<double>(plain.compactions));
  res.set("serve.p95_ms", quantile(plain.latency_ms, 0.95));
  res.set("serve.p99_ms", quantile(plain.latency_ms, 0.99));
  res.set("serve.engine.batch_size.mean", plain.batch_mean);
  res.set("serve.engine.p95_ms", plain.engine_p95_ms);
  res.set("serve.engine.submit_us.p95", quantile(plain.submit_us, 0.95));
  res.set("harness.gen_late_p99_ms", quantile(plain.late_ms, 0.99));
  res.set("harness.backlog_end", static_cast<double>(plain.backlog_end));
  res.set("ingest.visible_p50_ms", quantile(plain.visible_ms, 0.5));
  res.set("ingest.visible_p95_ms", quantile(plain.visible_ms, 0.95));

  const Traffic traced = open_loop(s, w, w.query_rate, w.event_rate, kRungWarmupS,
                                   pass_s, rng, &sender_log, &collector_log);
  res.set("trace.overhead_ratio",
          quantile(traced.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5) - 1.0);
  res.attempted = plain.queries + plain.events + traced.queries + traced.events;
  res.failed = plain.failed + traced.failed;
  res.check("serve.all_futures_resolved", plain.unresolved + traced.unresolved == 0);
  res.set("serve.slo_qps", has_ladder ? slo_qps(s, w, opt.seconds * 0.15, rng,
                                                res.attempted, res.failed)
                                      : 0.0);
  res.check("serve.probe_bit_equal", probe_matches(s, ckpt, rng, res.attempted));
  check_engine(res, s);

  const auto batch =
      std::clamp<std::int64_t>(std::lround(plain.batch_mean), 1, w.engine.max_batch);
  const SessionReplay sr = replay_session(s, w, ckpt, batch, replay_log);
  const EpochReplay er =
      replay_epochs(s, w, std::max<std::int64_t>(1, std::lround(per_publish)), replay_log);
  res.set("sampling.nf_ms", sr.nf_ms);
  res.set("serve.session.forward_ms", sr.forward_ms);
  res.set("serve.session.forward_ms.b64", sr.forward_ms_b64);
  res.set("serve.epoch.publish_ms.solo", er.publish_ms);
  res.set("tensor.gflop", sr.flops_b64 * 1e-9);
  res.set("tensor.gflops", sr.flops_b64 * 1e-9 / (sr.pp_ms_b64 * 1e-3));
  res.set("tensor.launches", sr.launches_b64);
  res.set("trace.dropped_spans", static_cast<double>(sender_log.dropped() +
                                                     collector_log.dropped() +
                                                     replay_log.dropped()));
  res.set("trace.unaccounted_ratio", 1.0 - (sr.spanned + er.spanned) / (sr.wall + er.wall));

  const std::string path = ".bench_build/trace/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  res.check("trace.written", write_chrome_trace(path, {&sender_log, &collector_log, &replay_log}));
  std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
  return res;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve-read" || name == "serve-ingest";
}

Result run_serve(const Options& opt) {
  const ServeWorkload w = serve_workload(opt.workload, opt.seed);
  const std::string ckpt = write_checkpoint(w, opt.workload);
  if (opt.trace) return run_traced(opt, w, ckpt);

  Result res;
  // Extra set-ups for the setup_s median: half before the measured engine
  // exists and half after it is gone.
  std::vector<double> setups;
  auto sample_setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ServeSetup extra;
      setups.push_back(set_up(w, ckpt, extra, nullptr));
    }
  };
  sample_setups(kSetupRepeats / 2);
  Traffic tr;
  double rate = 0;
  {
    ServeSetup s;
    setups.push_back(set_up(w, ckpt, s, nullptr));
    util::Rng rng(opt.seed ^ 0x7a11ULL);
    tr = open_loop(s, w, w.query_rate, w.event_rate, kWarmupS, opt.seconds * 0.5, rng);
    res.attempted = tr.queries + tr.events;
    res.failed = tr.failed;
    rate = capacity(s, w, opt.seconds * 0.2, rng, res.attempted, res.failed);
    res.check("serve.all_futures_resolved", tr.unresolved == 0);
    res.check("serve.probe_bit_equal", probe_matches(s, ckpt, rng, res.attempted));
    check_engine(res, s);
    res.check("serve.no_failed_requests", res.failed == 0);
  }
  sample_setups(kSetupRepeats - setups.size());

  res.set("setup_s", median(setups));
  res.set("peak_rss_mb", peak_rss_mb());
  res.set("p50_ms", quantile(tr.latency_ms, 0.5));
  res.set("rate_per_s", rate);
  res.set("serve.p95_ms", quantile(tr.latency_ms, 0.95));
  res.set("serve.p99_ms", quantile(tr.latency_ms, 0.99));
  res.set("serve.queries", static_cast<double>(tr.queries));
  res.set("serve.engine.p95_ms", tr.engine_p95_ms);
  res.set("serve.engine.batch_size.mean", tr.batch_mean);
  res.set("harness.gen_late_p99_ms", quantile(tr.late_ms, 0.99));
  res.set("harness.backlog_end", static_cast<double>(tr.backlog_end));
  if (w.poll_visibility) {
    res.set("ingest.visible_p50_ms", quantile(tr.visible_ms, 0.5));
    res.set("ingest.visible_p95_ms", quantile(tr.visible_ms, 0.95));
  }
  return res;
}

void sweep_serve(std::uint64_t seed) {
  std::printf("\n%-12s %4s %12s %10s %10s %12s\n", "workload", "knob", "capacity/s", "p50_ms",
              "p95_ms", "visible_p95");
  for (const char* name : {"serve-read", "serve-ingest"}) {
    for (int k : {1, 2, 4}) {
      ServeWorkload w = serve_workload(name, seed);
      const bool read = std::string(name) == "serve-read";
      if (read)
        w.engine.num_workers = k;
      else
        w.epoch.num_shards = k;
      const std::string ckpt = write_checkpoint(w, name);
      ServeSetup s;
      set_up(w, ckpt, s, nullptr);
      util::Rng rng(seed);
      const Traffic tr = open_loop(s, w, w.query_rate, w.event_rate, kWarmupS, 5.0, rng);
      std::uint64_t attempted = 0, failed = 0;
      const double cap = capacity(s, w, 3.0, rng, attempted, failed);
      std::printf("%-12s %s=%-2d %12.0f %10.3f %10.3f %12.3f\n", name, read ? "N" : "S", k, cap,
                  quantile(tr.latency_ms, 0.5), quantile(tr.latency_ms, 0.95),
                  quantile(tr.visible_ms, 0.95));
    }
  }
}

}  // namespace suite
