// Online serving benchmark: sharded micro-batched no-grad inference over
// an epoch-managed streaming graph.
//
// Part 1 — micro-batching throughput gate: saturating (closed-loop)
// offered load through a 1-worker ServingEngine at max_batch=1 vs a
// coalescing configuration, same model/checkpoint/graph. Coalescing
// amortises the per-forward fixed costs (op dispatch, hop assembly,
// kernel launches) across queries; the gate is >= 2x QPS. Also asserts
// the serving zero-allocation invariant: workspace_alloc_events() flat
// once shapes stabilise.
//
// Part 2 — worker scale-out gate: the same closed-loop load swept over
// 1/2/4 worker shards with events interleaved into the stream, with the
// simulated accelerator's kernel time modeled as a per-batch wall-clock
// sleep (EngineConfig::modeled_device_ms — the bench_pipeline convention
// for device-bound stages). Device sleeps overlap across shards, which is
// the effect scale-out buys: aggregate QPS must reach >= 1.8x at 4
// workers vs 1. The gate rests on the modeled sleeps: host-side compute
// scales far less, because the worker threads share the host's cores
// with their OpenMP teams, the ingest thread and the shard crew.
//
// Part 3 — sharded parallel-ingest gate: ingest+publish rounds driven
// straight at GraphEpochManager, swept over 1/2/4 shards. The modeled
// column charges per-direction device work as EpochConfig::modeled_apply_us
// (the per-event analogue of modeled_device_ms — a TGN memory update per
// endpoint); catch-up replays the shards in parallel, so the modeled
// sleeps overlap, and the gate is >= 2x modeled publish throughput at 4
// shards vs 1. The measured column beside it charges nothing modeled and
// compacts at the serve-ingest workload's threshold: host-wall indexing
// and compaction alone, reported, not gated.
//
// Part 4 — latency under a Poisson arrival process (open loop) swept over
// 1/2/4 workers at a fixed offered load (~60% of 1-worker capacity), edge
// events streamed alongside the queries: per-point QPS, p50/p95/p99, and
// epoch/compaction counts.
//
// Part 5 — overload sweep (PR 8): open-loop Poisson arrivals at ~1.5x the
// measured 1-worker capacity, shedding ON (kReject admission, bounded
// queue, deadline derived from the uncongested p99). An unprotected
// server's queue — and therefore its latency — grows without bound at
// rho > 1; admission control + deadline shedding must hold the
// accepted-request p99 to <= 3x the 0.6x-load p99 while the process
// survives to a clean drain. Device time modeled per the part 2
// convention.
//
// --smoke: parts 1-3 and 5, reduced query counts; exits non-zero when the
// 2x coalescing gate, the 1.8x scale-out gate, the 2x modeled shard-ingest gate,
// the flat-workspace invariant, or the overload p99 gate fails
// (ctest-registered canary). Every timing gate re-measures up to 3 times
// and keeps the best attempt, so a background process stealing the core
// mid-run cannot fail the canary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/epoch_manager.h"
#include "serve/inference_session.h"
#include "serve/serving_engine.h"

using namespace taser;

namespace {

struct Setup {
  graph::Dataset data;
  std::string ckpt;
};

// The serving model is deliberately compact (hidden 8, time 4, n = 3,
// 4-dim edge features): micro-batching amortises the *per-forward fixed*
// costs — op dispatch, result-node allocation, hop assembly, engine
// wake-ups — while the per-query tensor compute grows linearly with
// batch size, so a large model would bury the mechanism being measured
// under un-amortisable arithmetic. Batching also unlocks OpenMP
// parallelism (per-target builder loops engage at T > 32, GEMM row
// panels split), which widens the gap on hosts with cores to spare.
Setup make_setup() {
  graph::SyntheticConfig cfg = graph::movielens_like(0.01 * bench::bench_scale(), 4);
  Setup s;
  s.data = generate_synthetic(cfg);
  // A trained-shape checkpoint (random θ — serving cost is independent of
  // the parameter values, and the benches should not pay a training run).
  util::Rng init(21);
  models::ModelConfig mc;
  mc.node_feat_dim = s.data.node_feat_dim;
  mc.edge_feat_dim = s.data.edge_feat_dim;
  mc.hidden_dim = 8;
  mc.time_dim = 4;
  mc.num_neighbors = 3;
  models::GraphMixerModel model(mc, init);
  models::EdgePredictor predictor(8, init);
  s.ckpt = "/tmp/taser_bench_serve.ckpt";
  serve::save_servable(model, predictor, s.ckpt);
  return s;
}

serve::SessionConfig session_config() {
  serve::SessionConfig sc;
  sc.backbone = core::BackboneKind::kGraphMixer;
  sc.n_neighbors = 3;
  sc.hidden_dim = 8;
  sc.time_dim = 4;
  return sc;
}

std::vector<serve::LinkQuery> make_queries(const graph::Dataset& data, std::int64_t n) {
  std::vector<serve::LinkQuery> qs;
  util::Rng rng(77);
  const graph::Time now = data.ts.back() + 1e6;  // past any streamed event
  for (std::int64_t i = 0; i < n; ++i) {
    const auto e = static_cast<std::size_t>(rng.next_below(
        static_cast<std::uint64_t>(data.num_edges())));
    qs.push_back({data.src[e], data.dst[e], now});
  }
  return qs;
}

/// Closed-loop saturation: submit everything up front (optionally with an
/// event interleaved every `ingest_every` queries), drain, report stats.
serve::ServingStats run_closed_loop(const Setup& s, std::int64_t workers,
                                    std::int64_t max_batch, double modeled_device_ms,
                                    const std::vector<serve::LinkQuery>& queries,
                                    std::int64_t ingest_every = 0) {
  serve::GraphEpochManager mgr(s.data);
  serve::EngineConfig ec;
  ec.num_workers = workers;
  ec.max_batch = max_batch;
  ec.max_delay_ms = 0.5;
  ec.modeled_device_ms = modeled_device_ms;
  serve::ServingEngine engine(mgr, session_config(), ec);
  engine.load_checkpoint(s.ckpt);
  std::vector<std::future<float>> futures;
  futures.reserve(queries.size());
  graph::Time stream_t = s.data.ts.back();
  std::int64_t i = 0;
  for (const auto& q : queries) {
    futures.push_back(engine.submit(q));
    if (ingest_every > 0 && ++i % ingest_every == 0) {
      stream_t += 1.0;
      engine.ingest(s.data.src[static_cast<std::size_t>(i) % s.data.src.size()],
                    s.data.dst[static_cast<std::size_t>(i) % s.data.dst.size()],
                    stream_t);
    }
  }
  for (auto& f : futures) f.get();
  engine.drain();
  return engine.stats();
}

int run_part1(std::int64_t num_queries, bool smoke) {
  std::printf("== Part 1: micro-batching throughput (closed loop, %lld queries) ==\n\n",
              static_cast<long long>(num_queries));
  Setup s = make_setup();
  const auto queries = make_queries(s.data, num_queries);

  // Timing gate: re-measure up to 3 times and keep/report the BEST pair —
  // a background process stealing the core mid-run must not fail the
  // canary (the ctest registration is additionally RUN_SERIAL). Keeping
  // the last attempt instead would let a noisy final run shadow an
  // earlier passing one.
  serve::ServingStats solo, batched;
  double speedup = 0;
  const int attempts = smoke ? 3 : 1;
  for (int a = 0; a < attempts && speedup < 2.0; ++a) {
    const serve::ServingStats try_solo = run_closed_loop(s, 1, 1, 0, queries);
    const serve::ServingStats try_batched = run_closed_loop(s, 1, 64, 0, queries);
    const double try_speedup = try_solo.qps > 0 ? try_batched.qps / try_solo.qps : 0;
    if (a == 0 || try_speedup > speedup) {
      speedup = try_speedup;
      solo = try_solo;
      batched = try_batched;
    }
  }

  util::Table t({"engine", "QPS", "batches", "occupancy", "p50 ms", "p99 ms",
                 "ws allocs"});
  auto row = [&](const char* name, const serve::ServingStats& st) {
    t.add_row({name, util::Table::fmt(st.qps, 1), std::to_string(st.batches),
           util::Table::fmt(st.mean_batch_occupancy, 1), util::Table::fmt(st.p50_ms, 2),
           util::Table::fmt(st.p99_ms, 2), std::to_string(st.workspace_alloc_events)});
  };
  row("batch-1", solo);
  row("micro-batched (64)", batched);
  t.print();

  std::printf("\nmicro-batching speedup: %.2fx\n", speedup);

  bench::report_metric("part1.solo_qps", solo.qps);
  bench::report_metric("part1.batched_qps", batched.qps);
  bench::report_metric("part1.batched_p50_ms", batched.p50_ms);
  bench::report_metric("part1.batched_p99_ms", batched.p99_ms);
  bench::report_metric("part1.speedup", speedup);

  // Steady-state flat-workspace check: re-drive the batched engine's
  // session shape and require zero further arena growth.
  bool ws_flat = true;
  {
    serve::GraphEpochManager mgr(s.data);
    serve::InferenceSession session(mgr, session_config());
    session.load_checkpoint(s.ckpt);
    std::vector<float> out;
    std::vector<serve::LinkQuery> fixed(queries.begin(), queries.begin() + 32);
    std::vector<std::uint64_t> keys(fixed.size());
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
    session.score_links(fixed, keys.data(), out);
    session.score_links(fixed, keys.data(), out);
    const std::uint64_t ws0 = session.workspace_alloc_events();
    for (int k = 0; k < 16; ++k) session.score_links(fixed, keys.data(), out);
    ws_flat = session.workspace_alloc_events() == ws0;
  }

  bench::print_shape("micro-batching >= 2x QPS over batch-1 serving", speedup >= 2.0);
  bench::print_shape("steady-state workspace allocations flat", ws_flat);
  if (smoke && (speedup < 2.0 || !ws_flat)) return 1;
  return 0;
}

int run_part2(std::int64_t num_queries, bool smoke) {
  std::printf("\n== Part 2: worker scale-out (closed loop, %lld queries, "
              "modeled device 3 ms/batch, 1 event / 8 queries) ==\n\n",
              static_cast<long long>(num_queries));
  Setup s = make_setup();
  const auto queries = make_queries(s.data, num_queries);
  constexpr double kDeviceMs = 3.0;
  constexpr std::int64_t kMaxBatch = 32;

  // Best-of-3 in smoke, same reasoning as part 1 (keep the best sweep).
  const int attempts = smoke ? 3 : 1;
  double scaleup = 0;
  std::vector<serve::ServingStats> points;
  for (int a = 0; a < attempts && scaleup < 1.8; ++a) {
    std::vector<serve::ServingStats> try_points;
    for (std::int64_t workers : {1, 2, 4})
      try_points.push_back(run_closed_loop(s, workers, kMaxBatch, kDeviceMs, queries,
                                           /*ingest_every=*/8));
    const double try_scaleup =
        try_points[0].qps > 0 ? try_points[2].qps / try_points[0].qps : 0;
    if (a == 0 || try_scaleup > scaleup) {
      scaleup = try_scaleup;
      points = std::move(try_points);
    }
  }

  util::Table t({"workers", "QPS", "p50 ms", "p99 ms", "batches", "occupancy",
                 "epochs", "events"});
  const std::int64_t worker_counts[] = {1, 2, 4};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const serve::ServingStats& st = points[i];
    t.add_row({std::to_string(worker_counts[i]), util::Table::fmt(st.qps, 1),
               util::Table::fmt(st.p50_ms, 2), util::Table::fmt(st.p99_ms, 2),
               std::to_string(st.batches), util::Table::fmt(st.mean_batch_occupancy, 1),
               std::to_string(st.epochs_published), std::to_string(st.events_ingested)});
  }
  t.print();
  std::printf("\naggregate QPS scale-up at 4 workers: %.2fx\n", scaleup);
  bench::print_shape("4-worker aggregate QPS >= 1.8x over 1 worker", scaleup >= 1.8);
  if (smoke && scaleup < 1.8) return 1;
  return 0;
}

/// One timed shard-sweep point: `rounds` rounds of (`batch` events
/// ingested, publish) against a manager with `num_shards` shards,
/// `apply_us` modeled device time per applied edge direction and
/// compaction at `compact_threshold` (0 = never). Returns published
/// events/second (publish dominates: the serial ingest append is shared
/// overhead at every S).
double shard_ingest_rate(const Setup& s, int num_shards, double apply_us,
                         std::int64_t compact_threshold, std::int64_t rounds,
                         std::int64_t batch) {
  serve::EpochConfig ec;
  ec.num_shards = num_shards;
  ec.modeled_apply_us = apply_us;
  ec.compact_threshold = compact_threshold;
  serve::GraphEpochManager mgr(s.data, ec);
  graph::Time t = s.data.ts.back();
  std::size_t e = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (std::int64_t b = 0; b < batch; ++b) {
      t += 1.0;
      mgr.ingest(s.data.src[e % s.data.src.size()],
                 s.data.dst[e % s.data.dst.size()], t);
      ++e;
    }
    mgr.publish();
  }
  mgr.publish();  // idle publish: converge the laggard so both replicas' work counts
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return secs > 0 ? static_cast<double>(rounds * batch) / secs : 0.0;
}

int run_part3(bool smoke) {
  constexpr double kApplyUs = 4.0;
  constexpr std::int64_t kCompactThreshold = 2000;  // the serve-ingest workload's
  const std::int64_t rounds = 6;
  const std::int64_t batch =
      smoke ? 800 : static_cast<std::int64_t>(800 * bench::bench_scale());
  std::printf("\n== Part 3: sharded parallel ingest (%lld rounds x %lld events; "
              "modeled: apply %.0f us/direction, no compaction; measured: no "
              "modeled time, compaction at %lld) ==\n\n",
              static_cast<long long>(rounds), static_cast<long long>(batch), kApplyUs,
              static_cast<long long>(kCompactThreshold));
  Setup s = make_setup();
  const int shard_counts[] = {1, 2, 4};

  // Best-of-3 in smoke, same reasoning as parts 1 and 2. The attempt
  // with the best modeled speedup is kept; each measured point is the
  // best over the attempts made.
  const int attempts = smoke ? 3 : 1;
  double speedup = 0;
  std::vector<double> rates;
  std::vector<double> measured(3, 0.0);
  for (int a = 0; a < attempts && speedup < 2.0; ++a) {
    std::vector<double> try_rates;
    for (std::size_t i = 0; i < 3; ++i) {
      try_rates.push_back(
          shard_ingest_rate(s, shard_counts[i], kApplyUs, 0, rounds, batch));
      measured[i] = std::max(measured[i], shard_ingest_rate(s, shard_counts[i], 0.0,
                                                            kCompactThreshold, rounds, batch));
    }
    const double try_speedup = try_rates[0] > 0 ? try_rates[2] / try_rates[0] : 0;
    if (a == 0 || try_speedup > speedup) {
      speedup = try_speedup;
      rates = std::move(try_rates);
    }
  }
  const double measured_speedup = measured[0] > 0 ? measured[2] / measured[0] : 0;

  util::Table t({"shards", "modeled events/s", "vs 1 shard", "measured events/s",
                 "vs 1 shard"});
  for (std::size_t i = 0; i < 3; ++i) {
    t.add_row({std::to_string(shard_counts[i]), util::Table::fmt(rates[i], 0),
               util::Table::fmt(rates[0] > 0 ? rates[i] / rates[0] : 0, 2) + "x",
               util::Table::fmt(measured[i], 0),
               util::Table::fmt(measured[0] > 0 ? measured[i] / measured[0] : 0, 2) + "x"});
    const std::string suffix = ".s" + std::to_string(shard_counts[i]);
    bench::report_metric("part3.modeled_events_per_s" + suffix, rates[i]);
    bench::report_metric("part3.measured_events_per_s" + suffix, measured[i]);
  }
  t.print();
  bench::report_metric("part3.modeled_speedup", speedup);
  bench::report_metric("part3.measured_speedup", measured_speedup);

  std::printf("\ningest/publish throughput scale-up at 4 shards: %.2fx modeled, "
              "%.2fx measured\n",
              speedup, measured_speedup);
  bench::print_shape("modeled 4-shard ingest/publish throughput >= 2x over 1 shard",
                     speedup >= 2.0);
  if (smoke && speedup < 2.0) return 1;
  return 0;
}

void run_part4() {
  std::printf("\n== Part 4: Poisson arrivals + streamed ingestion "
              "(open loop, workers swept) ==\n\n");
  Setup s = make_setup();

  // Capacity probe (1 worker, batched) to set the offered load at ~60%
  // utilisation of the weakest point in the sweep.
  const auto probe = make_queries(s.data, 256);
  const double capacity = run_closed_loop(s, 1, 64, 0, probe).qps;
  const double lambda = 0.6 * capacity;
  std::printf("offered load: %.1f q/s (0.6 x %.1f single-worker capacity)\n\n",
              lambda, capacity);

  util::Table t({"workers", "achieved QPS", "p50 ms", "p95 ms", "p99 ms",
                 "occupancy", "events", "epochs", "compactions"});
  for (std::int64_t workers : {1, 2, 4}) {
    serve::EpochConfig epoch_cfg;
    epoch_cfg.compact_threshold = 100;
    serve::GraphEpochManager mgr(s.data, epoch_cfg);
    serve::EngineConfig ec;
    ec.num_workers = workers;
    ec.max_batch = 64;
    ec.max_delay_ms = 2.0;
    serve::ServingEngine engine(mgr, session_config(), ec);
    engine.load_checkpoint(s.ckpt);

    const std::int64_t n = 600;
    const auto queries = make_queries(s.data, n);
    util::Rng rng(5);
    std::vector<float> feat(static_cast<std::size_t>(s.data.edge_feat_dim), 0.1f);
    graph::Time stream_t = s.data.ts.back();
    std::vector<std::future<float>> futures;
    futures.reserve(queries.size());
    auto next_arrival = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      // Exponential inter-arrival at rate lambda.
      const double gap_s = -std::log(1.0 - rng.next_double()) / lambda;
      next_arrival += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(gap_s));
      std::this_thread::sleep_until(next_arrival);
      futures.push_back(engine.submit(queries[static_cast<std::size_t>(i)]));
      // One streamed interaction event per 4 queries, TGN-style.
      if (i % 4 == 0) {
        stream_t += 1.0;
        const auto e = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(s.data.num_edges())));
        engine.ingest(s.data.src[e], s.data.dst[e], stream_t, feat);
      }
    }
    for (auto& f : futures) f.get();
    engine.drain();

    const serve::ServingStats st = engine.stats();
    t.add_row({std::to_string(workers), util::Table::fmt(st.qps, 1),
               util::Table::fmt(st.p50_ms, 2), util::Table::fmt(st.p95_ms, 2),
               util::Table::fmt(st.p99_ms, 2),
               util::Table::fmt(st.mean_batch_occupancy, 2),
               std::to_string(st.events_ingested), std::to_string(st.epochs_published),
               std::to_string(st.compactions)});
  }
  t.print();
}

/// One open-loop Poisson run at rate `lambda`: 1 worker, part 2's modeled
/// device. `bounded` turns the overload protections on (kReject
/// admission, 32-deep queue, `deadline_ms` default deadline); unbounded
/// runs measure the uncongested baseline. The reported p50/p99 cover
/// completed (accepted) requests only — exactly the population the
/// overload gate is about.
serve::ServingStats run_open_loop(const Setup& s, double lambda, std::int64_t n,
                                  double device_ms, bool bounded,
                                  double deadline_ms) {
  serve::GraphEpochManager mgr(s.data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = 8;
  ec.max_delay_ms = 0.5;
  ec.modeled_device_ms = device_ms;
  if (bounded) {
    ec.admission = serve::EngineConfig::AdmissionPolicy::kReject;
    ec.max_queue_per_worker = 32;
    ec.default_deadline_ms = deadline_ms;
  }
  serve::ServingEngine engine(mgr, session_config(), ec);
  engine.load_checkpoint(s.ckpt);

  const auto queries = make_queries(s.data, n);
  util::Rng rng(9);
  std::vector<std::future<float>> futures;
  futures.reserve(queries.size());
  auto next_arrival = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    const double gap_s = -std::log(1.0 - rng.next_double()) / lambda;
    next_arrival += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next_arrival);
    futures.push_back(engine.submit(q));
  }
  // Every future resolves — value or typed shed — and the engine drains
  // under load: the "survives overload" half of the gate.
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const serve::ServeError&) {
    }
  }
  engine.drain();
  return engine.stats();
}

int run_part5(bool smoke) {
  constexpr double kDeviceMs = 4.0;
  std::printf("\n== Part 5: overload (open-loop Poisson, 1 worker, modeled "
              "device %.0f ms/batch, shedding on) ==\n\n",
              kDeviceMs);
  Setup s = make_setup();

  // Capacity probe: closed-loop saturation of the exact serving config.
  const auto probe = make_queries(s.data, smoke ? 256 : 512);
  const double capacity = run_closed_loop(s, 1, 8, kDeviceMs, probe).qps;
  std::printf("measured 1-worker capacity: %.1f q/s\n", capacity);

  const std::int64_t n_low = smoke ? 300 : static_cast<std::int64_t>(
                                               600 * bench::bench_scale());
  const std::int64_t n_over = smoke ? 500 : static_cast<std::int64_t>(
                                                1000 * bench::bench_scale());

  // Best-of-3 in smoke, same reasoning as parts 1-3: keep the attempt
  // with the best (lowest) overload-to-baseline p99 ratio.
  const int attempts = smoke ? 3 : 1;
  serve::ServingStats low, over;
  double ratio = 0;
  bool gate = false;
  for (int a = 0; a < attempts && !gate; ++a) {
    const serve::ServingStats try_low = run_open_loop(
        s, 0.6 * capacity, n_low, kDeviceMs, /*bounded=*/false, 0);
    // The shedding knobs derive from the uncongested tail: accepted
    // requests may wait at most ~1.5x the baseline p99 in the queue.
    const double deadline_ms = std::max(5.0, 1.5 * try_low.p99_ms);
    const serve::ServingStats try_over = run_open_loop(
        s, 1.5 * capacity, n_over, kDeviceMs, /*bounded=*/true, deadline_ms);
    const double try_ratio =
        try_low.p99_ms > 0 ? try_over.p99_ms / try_low.p99_ms : 1e9;
    if (a == 0 || try_ratio < ratio) {
      ratio = try_ratio;
      low = try_low;
      over = try_over;
    }
    gate = ratio <= 3.0 && over.rejected + over.expired > 0;
  }

  util::Table t({"load", "submitted", "completed", "rejected", "expired",
                 "QPS", "p50 ms", "p99 ms"});
  auto row = [&](const char* name, const serve::ServingStats& st) {
    t.add_row({name, std::to_string(st.submitted), std::to_string(st.requests),
               std::to_string(st.rejected), std::to_string(st.expired),
               util::Table::fmt(st.qps, 1), util::Table::fmt(st.p50_ms, 2),
               util::Table::fmt(st.p99_ms, 2)});
  };
  row("0.6x (unbounded)", low);
  row("1.5x (shedding)", over);
  t.print();

  std::printf("\naccepted-request p99 under 1.5x overload: %.2fx the 0.6x-load p99\n",
              ratio);
  bench::print_shape("overload p99 <= 3x baseline p99 with shedding on",
                     ratio <= 3.0);
  bench::print_shape("overload actually shed traffic (rejected + expired > 0)",
                     over.rejected + over.expired > 0);
  bench::print_shape("engine drained under overload",
                     over.queue_depth == 0 && over.event_queue_depth == 0);
  if (smoke && !gate) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  // --trace <path>: record request spans over parts 2-5 (the multi-worker
  // scale-out through the shedding overload run) and write a Chrome
  // trace_event file of the window. Off unless asked — the timing gates
  // run untraced in CI.
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];

  const std::int64_t n =
      smoke ? 256 : static_cast<std::int64_t>(512 * bench::bench_scale());
  int rc = run_part1(n, smoke);
  if (!trace_path.empty()) {
    obs::clear_spans();
    obs::set_trace_enabled(true);
  }
  const std::int64_t n2 =
      smoke ? 1024 : static_cast<std::int64_t>(1024 * bench::bench_scale());
  rc |= run_part2(n2, smoke);
  rc |= run_part3(smoke);
  if (!smoke) run_part4();
  rc |= run_part5(smoke);
  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    const std::string doc = obs::chrome_trace_json(obs::collect_spans());
    if (!obs::json_valid(doc) || !obs::write_file(trace_path, doc)) {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path.c_str());
      rc |= 1;
    } else {
      std::printf("chrome trace: %s (%llu spans dropped)\n", trace_path.c_str(),
                  static_cast<unsigned long long>(obs::dropped_spans()));
    }
  }
  rc |= bench::write_json_report(argc, argv, "bench_serve");
  return rc;
}
