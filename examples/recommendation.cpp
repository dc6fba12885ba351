// Content-recommendation scenario (MovieLens-like bipartite user–item
// graph), end to end through the real production flow:
//
//   1. train TASER on GraphMixer (adaptive batches + neighbors);
//   2. save_servable: one checkpoint bundling backbone + predictor;
//   3. serve: a multi-worker ServingEngine answers ranking queries over
//      an epoch-managed streaming graph while new interactions keep
//      arriving — queries fan out to worker shards that coalesce them
//      into micro-batches and score with the trained link predictor
//      (no-grad, zero steady-state allocation) against the current
//      published epoch, while the ingest thread builds the next one;
//   4. observe: request tracing is on for the serving window — the run
//      ends with the Prometheus metrics snapshot an operator would
//      scrape and a Chrome trace (chrome://tracing / Perfetto) showing
//      the per-request submit → queue → batch → forward nesting.
//
//   ./recommendation
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/epoch_manager.h"
#include "serve/serving_engine.h"

using namespace taser;

int main() {
  graph::SyntheticConfig cfg = graph::movielens_like(/*scale=*/0.004,
                                                     /*feat_dim_override=*/24);
  cfg.num_dst = 60;  // keep the catalogue small enough to rank exhaustively
  graph::Dataset data = generate_synthetic(cfg);

  core::TrainerConfig tc;
  tc.backbone = core::BackboneKind::kGraphMixer;
  tc.ada_batch = true;
  tc.ada_neighbor = true;
  tc.decoder = core::DecoderKind::kLinear;
  tc.batch_size = 128;
  tc.n_neighbors = 5;
  tc.m_candidates = 15;
  tc.hidden_dim = 32;
  tc.time_dim = 16;
  tc.sampler_dim = 16;
  tc.decoder_hidden = 16;
  tc.lr = 5e-3f;
  tc.sampler_lr = 5e-3f;
  tc.max_eval_edges = 150;
  core::Trainer trainer(data, tc);

  std::printf("training TASER/GraphMixer on %s (%lld interactions)...\n",
              data.name.c_str(), static_cast<long long>(data.num_edges()));
  for (int e = 0; e < 8; ++e) trainer.train_epoch();
  std::printf("test MRR: %.4f\n\n", trainer.evaluate_test_mrr());

  // ---- train → serve hand-off ----------------------------------------------
  const std::string ckpt = "/tmp/taser_recommendation.ckpt";
  serve::save_servable(trainer.model(), trainer.predictor(), ckpt);
  std::printf("checkpoint saved to %s\n", ckpt.c_str());

  // Serving owns its own growing copy of the log: two replicas inside the
  // epoch manager, alternating between "served" and "being caught up".
  serve::EpochConfig epoch_cfg;
  epoch_cfg.compact_threshold = 512;
  serve::GraphEpochManager live_graph(data, epoch_cfg);

  serve::SessionConfig sc;
  sc.backbone = core::BackboneKind::kGraphMixer;
  sc.n_neighbors = tc.n_neighbors;
  sc.hidden_dim = tc.hidden_dim;
  sc.time_dim = tc.time_dim;

  serve::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch = 64;
  ec.max_delay_ms = 2.0;
  // Production posture (PR 8): bound both queues and give every query a
  // generous completion deadline. kBlock backpressures this (in-process)
  // producer instead of dropping its traffic; a real RPC front-end would
  // pick kReject and surface the typed RejectedError as HTTP 429.
  ec.admission = serve::EngineConfig::AdmissionPolicy::kBlock;
  ec.max_queue_per_worker = 256;
  ec.max_pending_events = 1024;
  ec.default_deadline_ms = 250;
  serve::ServingEngine engine(live_graph, sc, ec);
  engine.load_checkpoint(ckpt);

  // Trace the serving window (off during training — the trained bits are
  // identical either way; this keeps the trace focused on the request
  // lifecycle).
  obs::set_trace_enabled(true);

  // ---- live traffic: interactions stream in while users get ranked ---------
  graph::Time now = data.ts.back();
  std::vector<graph::NodeId> users = {data.src[data.num_edges() - 1],
                                      data.src[data.num_edges() - 2],
                                      data.src[data.num_edges() - 3]};
  // A burst of fresh interactions arrives (e.g. tonight's viewing session):
  // user 0 interacts with three catalogue items before asking for more.
  std::vector<float> feat(static_cast<std::size_t>(data.edge_feat_dim), 0.25f);
  for (int k = 0; k < 3; ++k) {
    now += 1.0;
    engine.ingest(users[0], static_cast<graph::NodeId>(data.dst_begin + k), now, feat);
  }
  // Queries see bounded staleness (the epoch current when their batch
  // runs); drain() forces tonight's burst into a published epoch so the
  // rankings below definitely reflect it.
  engine.drain();

  // Rank the full catalogue per user with the *trained predictor* (the
  // same head the MRR evaluation uses), one future per (user, item) pair;
  // the engine coalesces all pairs into a handful of micro-batches.
  now += 1.0;
  for (graph::NodeId user : users) {
    std::vector<std::pair<std::future<float>, graph::NodeId>> pending;
    for (graph::NodeId item = data.dst_begin; item < data.dst_end; ++item)
      pending.emplace_back(engine.submit({user, item, now}), item);

    std::vector<std::pair<float, graph::NodeId>> scored;
    for (auto& [future, item] : pending) scored.emplace_back(future.get(), item);
    std::partial_sort(scored.begin(), scored.begin() + 5, scored.end(),
                      [](auto& x, auto& y) { return x.first > y.first; });
    std::printf("top-5 recommendations for user %d:", user);
    for (int k = 0; k < 5; ++k)
      std::printf("  item %d (%.3f)", scored[static_cast<std::size_t>(k)].second,
                  scored[static_cast<std::size_t>(k)].first);
    std::printf("\n");
  }

  engine.drain();
  const serve::ServingStats st = engine.stats();
  std::printf(
      "\nserved %llu queries in %llu micro-batches (occupancy %.1f) | "
      "p50 %.2f ms  p99 %.2f ms | %llu events streamed over %llu epochs\n",
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.batches), st.mean_batch_occupancy,
      st.p50_ms, st.p99_ms, static_cast<unsigned long long>(st.events_ingested),
      static_cast<unsigned long long>(st.epochs_published));
  for (std::size_t w = 0; w < st.worker_requests.size(); ++w)
    std::printf("  worker %zu: %llu requests, occupancy %.1f\n", w,
                static_cast<unsigned long long>(st.worker_requests[w]),
                st.worker_occupancy[w]);
  // The overload/fault ledger — all zero on this gentle workload, but
  // these are the counters an operator alarms on.
  std::printf(
      "  shed: %llu rejected, %llu expired, %llu events rejected | faults: "
      "%llu batches, %llu publish retries\n",
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.expired),
      static_cast<unsigned long long>(st.events_rejected),
      static_cast<unsigned long long>(st.faulted),
      static_cast<unsigned long long>(st.publish_faults));

  // ---- observability hand-off ----------------------------------------------
  // What a /metrics scrape would return right now (the json_snapshot()
  // twin of this text feeds dashboards).
  obs::set_trace_enabled(false);
  std::printf("\n--- prometheus snapshot (serve metrics) ---\n");
  const std::string prom = obs::prometheus_text();
  // The full exposition includes every histogram bucket; print just the
  // scalar series here to keep the demo readable.
  for (std::size_t pos = 0; pos < prom.size();) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    if (line.find("_bucket{") == std::string::npos &&
        line.compare(0, 12, "taser_tensor") != 0)
      std::printf("%s\n", line.c_str());
    pos = eol == std::string::npos ? prom.size() : eol + 1;
  }

  const std::string trace_path = "/tmp/taser_recommendation_trace.json";
  if (obs::write_file(trace_path, obs::chrome_trace_json(obs::collect_spans())))
    std::printf("\nrequest trace written to %s (load in chrome://tracing)\n",
                trace_path.c_str());
  return 0;
}
