// Overload + fault containment conformance (PR 8): the failpoint harness
// itself (hit schedules, arming costs, compile-out), admission control
// (kReject fast-fail / kBlock backpressure, typed errors), deadline
// shedding at dequeue, per-batch fault boundaries (a forward fault fails
// exactly its batch; the worker keeps serving), torn-view retry-once,
// idempotent publish retry after epoch faults, all-or-nothing checkpoint
// loads across the worker fleet, typed rejection after shutdown, and the
// standing invariant fuzz: every submitted future resolves exactly once —
// value or exception — completed + rejected + expired + faulted ==
// submitted at all times, and each exported registry series grows by
// exactly the engine's final stats.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/synthetic.h"
#include "obs/metrics.h"
#include "sampling/dynamic_finder.h"
#include "serve/epoch_manager.h"
#include "serve/inference_session.h"
#include "serve/serving_engine.h"
#include "util/failpoint.h"
#include "util/rng.h"

using namespace taser;
namespace fp = taser::util::failpoints;

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

graph::Dataset small_dataset(std::uint64_t seed = 5) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 40;
  cfg.num_dst = 30;
  cfg.num_edges = 600;
  cfg.edge_feat_dim = 6;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

graph::Dataset prefix_dataset(const graph::Dataset& full, std::int64_t keep) {
  graph::Dataset d = full;
  d.src.resize(static_cast<std::size_t>(keep));
  d.dst.resize(static_cast<std::size_t>(keep));
  d.ts.resize(static_cast<std::size_t>(keep));
  d.edge_feats.resize(static_cast<std::size_t>(keep * d.edge_feat_dim));
  d.train_end = std::min(d.train_end, keep);
  d.val_end = std::min(d.val_end, keep);
  return d;
}

std::vector<float> feat_row(const graph::Dataset& d, std::int64_t e) {
  if (d.edge_feat_dim == 0) return {};
  const float* f = d.edge_feat(static_cast<graph::EdgeId>(e));
  return std::vector<float>(f, f + d.edge_feat_dim);
}

serve::SessionConfig tiny_session_config() {
  serve::SessionConfig sc;
  sc.backbone = core::BackboneKind::kGraphMixer;
  sc.n_neighbors = 5;
  sc.hidden_dim = 16;
  sc.time_dim = 8;
  return sc;
}

std::vector<serve::LinkQuery> tiny_queries(const graph::Dataset& data, std::size_t n) {
  std::vector<serve::LinkQuery> qs;
  const graph::Time now = data.ts.back() + 1;
  for (std::size_t i = 0; i < n; ++i)
    qs.push_back({data.src[static_cast<std::int64_t>(i * 13) % data.num_edges()],
                  data.dst[static_cast<std::int64_t>(i * 7) % data.num_edges()], now});
  return qs;
}

std::string make_ckpt(const char* name, std::uint64_t seed) {
  const std::string ckpt = temp_path(name);
  util::Rng init(seed);
  models::ModelConfig mc;
  const graph::Dataset data = small_dataset(17);
  mc.node_feat_dim = data.node_feat_dim;
  mc.edge_feat_dim = data.edge_feat_dim;
  mc.hidden_dim = 16;
  mc.time_dim = 8;
  mc.num_neighbors = 5;
  models::GraphMixerModel m(mc, init);
  models::EdgePredictor p(16, init);
  serve::save_servable(m, p, ckpt);
  return ckpt;
}

/// Deactivates every failpoint even when a test fails mid-way — a leaked
/// activation would fault unrelated later tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fp::compiled_in())
      GTEST_SKIP() << "failpoint harness compiled out (-DTASER_FAILPOINTS=OFF)";
  }
  void TearDown() override { fp::deactivate_all(); }
};

}  // namespace

// ---- the harness itself -----------------------------------------------------

TEST_F(FaultTest, HitScheduleFiresExactly) {
  // every_nth=3 starting at hit 2, at most 2 fires → hits 2 and 5 throw,
  // nothing else does.
  fp::FailpointConfig cfg;
  cfg.every_nth = 3;
  cfg.first_hit = 2;
  cfg.max_fires = 2;
  fp::ScopedFailpoint arm("test.schedule", cfg);

  std::vector<int> threw;
  for (int i = 1; i <= 10; ++i) {
    try {
      TASER_FAILPOINT("test.schedule");
    } catch (const fp::FailpointError& e) {
      threw.push_back(i);
      EXPECT_NE(std::string(e.what()).find("test.schedule"), std::string::npos);
    }
  }
  EXPECT_EQ(threw, (std::vector<int>{2, 5}));
  EXPECT_EQ(fp::hits("test.schedule"), 10u);
  EXPECT_EQ(fp::fires("test.schedule"), 2u);

  // Inactive names never fire, and deactivation zeroes the counters.
  EXPECT_NO_THROW(TASER_FAILPOINT("test.never.armed"));
  fp::deactivate("test.schedule");
  EXPECT_EQ(fp::hits("test.schedule"), 0u);
  EXPECT_NO_THROW(TASER_FAILPOINT("test.schedule"));
}

TEST_F(FaultTest, DelayActionSleepsInsteadOfThrowing) {
  fp::FailpointConfig cfg;
  cfg.action = fp::FailpointConfig::Action::kDelay;
  cfg.delay_ms = 20;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("test.delay", cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(TASER_FAILPOINT("test.delay"));
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(ms, 15.0);
  // Fire budget spent: the next hit is free.
  EXPECT_NO_THROW(TASER_FAILPOINT("test.delay"));
  EXPECT_EQ(fp::fires("test.delay"), 1u);
}

// ---- fault containment gate -------------------------------------------------

// The PR 8 acceptance gate: inject a worker-forward fault on every 7th
// micro-batch. Every non-faulted request must score bitwise-identical to
// a fault-free run, faulted requests fail typed, counters add up, and the
// engine drains and keeps serving.
TEST_F(FaultTest, WorkerForwardFaultEveryNthBatchContained) {
  const graph::Dataset data = small_dataset(17);
  const std::string ckpt = make_ckpt("faults.gate.ckpt", 5);
  const auto queries = tiny_queries(data, 120);

  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;  // stochastic on purpose

  auto run = [&](bool faulty) {
    serve::GraphEpochManager mgr(data);
    serve::EngineConfig ec;
    ec.num_workers = 2;
    ec.max_batch = 4;
    ec.max_delay_ms = 0.5;
    serve::ServingEngine engine(mgr, sc, ec);
    engine.load_checkpoint(ckpt);

    std::optional<fp::ScopedFailpoint> arm;
    if (faulty) {
      fp::FailpointConfig cfg;
      cfg.every_nth = 7;
      arm.emplace("serve.worker.forward", cfg);
    }

    std::vector<std::future<float>> futures;
    for (const auto& q : queries) futures.push_back(engine.submit(q));
    std::vector<std::optional<float>> scores;  // nullopt = faulted
    std::uint64_t faulted = 0;
    for (auto& f : futures) {
      try {
        scores.emplace_back(f.get());
      } catch (const fp::FailpointError&) {
        scores.emplace_back(std::nullopt);
        ++faulted;
      }
    }
    engine.drain();
    const serve::ServingStats s = engine.stats();
    EXPECT_EQ(s.submitted, queries.size());
    EXPECT_EQ(s.faulted, faulted);
    EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
    EXPECT_EQ(s.queue_depth, 0);

    // The engine is still alive after every fault: disarm and serve.
    arm.reset();
    EXPECT_TRUE(std::isfinite(engine.submit(queries[0]).get()));
    return scores;
  };

  const auto clean = run(false);
  const auto faulty = run(true);
  ASSERT_EQ(clean.size(), faulty.size());
  std::uint64_t faulted_total = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_TRUE(clean[i].has_value()) << "fault-free run faulted at " << i;
    if (faulty[i].has_value()) {
      // Bitwise: per-seq keyed streams make each score independent of
      // which batches around it faulted.
      EXPECT_EQ(*faulty[i], *clean[i]) << "query " << i;
    } else {
      ++faulted_total;
    }
  }
  EXPECT_GT(faulted_total, 0u) << "every-7th-batch injection never fired";
  EXPECT_LT(faulted_total, clean.size()) << "every batch faulted";
  std::remove(ckpt.c_str());
}

// A torn view (replica version sliding under the pinned epoch) is the one
// transient fault the worker retries: the second attempt re-pins the
// current epoch and must deliver a VALUE, not an exception.
TEST_F(FaultTest, TornViewRetriesOnceAndScores) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = 4;
  ec.max_delay_ms = 0.5;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  // Fault-free reference score for the same (query, seq=0).
  float expected;
  {
    serve::GraphEpochManager ref_mgr(data);
    serve::ServingEngine ref(ref_mgr, tiny_session_config(), ec);
    expected = ref.submit(tiny_queries(data, 1)[0]).get();
  }

  fp::FailpointConfig cfg;
  cfg.max_fires = 1;
  cfg.make_exception = [] {
    return std::make_exception_ptr(sampling::TornViewError("injected torn view"));
  };
  fp::ScopedFailpoint arm("serve.worker.forward", cfg);

  EXPECT_EQ(engine.submit(tiny_queries(data, 1)[0]).get(), expected);
  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.torn_view_retries, 1u);
  EXPECT_EQ(s.faulted, 0u);
  EXPECT_EQ(s.requests, 1u);
}

// A fault at `serve.ingest.apply` fails exactly that producer's call and
// changes nothing: later events still append, the engine still drains,
// and the graph holds every other event.
TEST_F(FaultTest, IngestApplyFaultDropsOneEventAndStreamContinues) {
  const graph::Dataset full = small_dataset(23);
  const std::int64_t cut = full.num_edges() - 20;
  serve::GraphEpochManager mgr(prefix_dataset(full, cut));
  serve::EngineConfig ec;
  ec.num_workers = 1;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  fp::FailpointConfig cfg;
  cfg.first_hit = 3;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("serve.ingest.apply", cfg);

  std::uint64_t faults = 0;
  for (std::int64_t e = cut; e < full.num_edges(); ++e) {
    try {
      engine.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    } catch (const fp::FailpointError&) {
      ++faults;
      EXPECT_EQ(e, cut + 2) << "only the third ingest() may fault";
    }
  }
  engine.drain();

  EXPECT_EQ(faults, 1u);
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.events_ingested, 19u);
  EXPECT_EQ(s.event_queue_depth, 0);
  auto g = mgr.acquire();
  EXPECT_EQ(g.graph().num_edges(), full.num_edges() - 1);
}

// stats().events_ingested counts what is visible to queries. While a
// publish is in flight it holds what the last committed publish made
// visible, and the event being published still counts as backlog.
TEST_F(FaultTest, EventsIngestedHoldsWhileAPublishIsInFlight) {
  const graph::Dataset full = small_dataset(23);
  const std::int64_t cut = full.num_edges() - 2;
  serve::GraphEpochManager mgr(prefix_dataset(full, cut));
  serve::EngineConfig ec;
  ec.num_workers = 1;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  engine.ingest(full.src[cut], full.dst[cut], full.ts[cut], feat_row(full, cut));
  engine.drain();
  ASSERT_EQ(engine.stats().events_ingested, 1u);

  fp::FailpointConfig hold;
  hold.action = fp::FailpointConfig::Action::kDelay;
  hold.delay_ms = 300;
  hold.max_fires = 1;
  fp::ScopedFailpoint arm_hold("serve.epoch.publish", hold);

  const std::int64_t e = cut + 1;
  engine.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
  // The event's publish (catching up the lagging replica) now sleeps in
  // its failpoint.
  for (int i = 0; i < 10000 && fp::hits("serve.epoch.publish") < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(fp::hits("serve.epoch.publish"), 1u);
  const serve::ServingStats held = engine.stats();
  EXPECT_EQ(held.events_ingested, mgr.events_published());
  EXPECT_EQ(held.events_ingested, 1u);
  EXPECT_EQ(held.event_queue_depth, 1);

  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.events_ingested, 2u);
  EXPECT_EQ(s.event_queue_depth, 0);
}

// Publish faults (epoch thaw/replay, including one shard thread dying
// mid-replay) retry idempotently: the per-shard replay watermarks mean a
// half-applied catch-up resumes without double-applying, and the final
// graph + scores are bitwise what a fault-free run produces.
TEST_F(FaultTest, PublishFaultRetriesIdempotentlyAcrossShards) {
  const graph::Dataset full = small_dataset(29);
  const std::int64_t cut = full.num_edges() / 2;

  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;
  sc.time_scale = 1.0;

  auto run = [&](bool faulty) {
    serve::EpochConfig epoch_cfg;
    epoch_cfg.num_shards = 4;
    epoch_cfg.compact_threshold = 80;
    serve::GraphEpochManager mgr(prefix_dataset(full, cut), epoch_cfg);
    serve::EngineConfig ec;
    ec.num_workers = 2;
    ec.max_batch = 6;
    ec.max_delay_ms = 0.5;
    serve::ServingEngine engine(mgr, sc, ec);

    std::optional<fp::ScopedFailpoint> arm_pub, arm_shard;
    if (faulty) {
      fp::FailpointConfig pub;
      pub.first_hit = 1;
      pub.max_fires = 1;
      arm_pub.emplace("serve.epoch.publish", pub);
      fp::FailpointConfig shard;
      shard.first_hit = 6;  // lands mid-replay: some shards already applied
      shard.max_fires = 1;
      arm_shard.emplace("serve.epoch.shard_replay", shard);
    }

    for (std::int64_t e = cut; e < full.num_edges(); ++e)
      engine.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    engine.drain();

    const serve::ServingStats s = engine.stats();
    EXPECT_EQ(s.events_ingested, static_cast<std::uint64_t>(full.num_edges() - cut));
    if (faulty) EXPECT_GE(s.publish_faults, 1u);

    const auto queries = tiny_queries(full, 16);
    std::vector<std::future<float>> futures;
    for (const auto& q : queries) futures.push_back(engine.submit(q));
    std::vector<float> got;
    for (auto& f : futures) got.push_back(f.get());
    engine.drain();
    return got;
  };

  const auto clean = run(false);
  const auto faulty = run(true);
  EXPECT_EQ(faulty, clean)
      << "retried publish diverged from a fault-free ingest of the same stream";
}

// A publish that keeps faulting through shutdown's bounded retries is
// abandoned — and drain() must observe the abandonment instead of
// waiting forever on a visibility watermark nothing can advance: both a
// drain() already blocked when shutdown gives up and one called
// afterwards must return.
TEST_F(FaultTest, DrainReturnsAfterShutdownAbandonsFaultingPublish) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  fp::FailpointConfig cfg;  // max_fires = 0: every publish attempt throws
  fp::ScopedFailpoint arm("serve.epoch.publish", cfg);

  engine.ingest(data.src[0], data.dst[0], data.ts.back() + 1);

  std::thread drainer([&] { engine.drain(); });  // blocks on visibility
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.shutdown();  // bounded retries exhaust, publish abandoned
  drainer.join();
  engine.drain();  // post-shutdown drain returns immediately too

  const serve::ServingStats s = engine.stats();
  EXPECT_TRUE(s.publish_abandoned);
  EXPECT_GE(s.publish_faults, 1u);
  EXPECT_EQ(s.events_ingested, 0u);
  EXPECT_EQ(s.event_queue_depth, 1);  // ingested, but never became visible
}

// ---- all-or-nothing checkpoint loads ---------------------------------------

TEST_F(FaultTest, CheckpointLoadIsAllOrNothingAcrossReplicas) {
  const graph::Dataset data = small_dataset(17);
  const std::string ckpt1 = make_ckpt("faults.ckpt1", 7);
  const std::string ckpt2 = make_ckpt("faults.ckpt2", 99);
  const auto queries = tiny_queries(data, 6);

  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch = 1;  // every worker answers some queries
  ec.max_delay_ms = 0.0;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);
  engine.load_checkpoint(ckpt1);

  // kMostRecent sampling is deterministic, so re-submitting the same
  // queries is a faithful probe of the replicas' parameters.
  auto probe = [&] {
    std::vector<std::future<float>> futures;
    for (const auto& q : queries) futures.push_back(engine.submit(q));
    std::vector<float> got;
    for (auto& f : futures) got.push_back(f.get());
    return got;
  };
  const std::vector<float> base = probe();

  // Fault between staging and install: NO replica may have moved.
  {
    fp::FailpointConfig cfg;
    cfg.max_fires = 1;
    fp::ScopedFailpoint arm("serve.checkpoint.load", cfg);
    EXPECT_THROW(engine.load_checkpoint(ckpt2), fp::FailpointError);
  }
  EXPECT_EQ(probe(), base) << "a failed load moved some replica's parameters";

  // A truncated file faults during staging — same guarantee, no harness.
  const std::string torn = temp_path("faults.ckpt.torn");
  {
    std::ifstream in(ckpt2, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(torn, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));  // cut mid-tensor
  }
  EXPECT_THROW(engine.load_checkpoint(torn), std::runtime_error);
  EXPECT_EQ(probe(), base) << "a truncated load moved some replica's parameters";

  // The same load succeeds once the fault clears, and actually installs.
  engine.load_checkpoint(ckpt2);
  EXPECT_NE(probe(), base);
  std::remove(ckpt1.c_str());
  std::remove(ckpt2.c_str());
  std::remove(torn.c_str());
}

// ---- admission control ------------------------------------------------------

TEST_F(FaultTest, RejectPolicyFailsFastWithTypedError) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = 8;
  ec.max_delay_ms = 2000;  // coalescing holds the queue while we overfill it
  ec.admission = serve::EngineConfig::AdmissionPolicy::kReject;
  ec.max_queue_per_worker = 2;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  const auto queries = tiny_queries(data, 5);
  std::vector<std::future<float>> futures;
  for (const auto& q : queries) futures.push_back(engine.submit(q));

  // First two admitted; 3..5 bounced at the gate. A rejected future is
  // ready immediately — no worker ever saw it.
  EXPECT_TRUE(std::isfinite(futures[0].get()));
  EXPECT_TRUE(std::isfinite(futures[1].get()));
  for (std::size_t i = 2; i < futures.size(); ++i)
    EXPECT_THROW(futures[i].get(), serve::RejectedError) << "query " << i;

  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
}

TEST_F(FaultTest, RejectPolicyBoundsEventQueue) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.admission = serve::EngineConfig::AdmissionPolicy::kReject;
  ec.max_pending_events = 2;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  // Hold the ingest thread inside a publish so the backlog of unpublished
  // events grows deterministically.
  fp::FailpointConfig cfg;
  cfg.action = fp::FailpointConfig::Action::kDelay;
  cfg.delay_ms = 150;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("serve.epoch.publish", cfg);

  graph::Time t = data.ts.back();
  engine.ingest(data.src[0], data.dst[0], ++t);  // its publish is held
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.ingest(data.src[1], data.dst[1], ++t);  // backlog now at the bound
  std::uint64_t rejected = 0;
  const graph::Time t_rejected = t + 1;
  try {
    engine.ingest(data.src[2], data.dst[2], t_rejected);  // over the bound
  } catch (const serve::RejectedError&) {
    ++rejected;
  }
  EXPECT_EQ(rejected, 1u);

  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.events_ingested, 2u);
  EXPECT_EQ(s.events_rejected, 1u);
  // A shed event must NOT advance the time-order guard: its timestamp is
  // still admissible.
  EXPECT_NO_THROW(engine.ingest(data.src[2], data.dst[2], t_rejected));
  engine.drain();
}

TEST_F(FaultTest, BlockedSubmitFailsTypedWhenShutdownWinsTheRace) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = 1;
  ec.max_delay_ms = 0.0;
  ec.admission = serve::EngineConfig::AdmissionPolicy::kBlock;
  ec.max_queue_per_worker = 1;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  // Pin the worker inside a forward so the queue stays full while the
  // third submit blocks.
  fp::FailpointConfig cfg;
  cfg.action = fp::FailpointConfig::Action::kDelay;
  cfg.delay_ms = 300;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("serve.worker.forward", cfg);

  const auto q = tiny_queries(data, 1)[0];
  auto f1 = engine.submit(q);  // dequeued immediately, sleeping in forward
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto f2 = engine.submit(q);  // fills the 1-slot queue
  std::future<float> f3;
  bool threw_in_submit = false;  // lost the race: stop_ seen before blocking
  std::thread blocked([&] {
    try {
      f3 = engine.submit(q);  // backpressured on the full queue
    } catch (const serve::EngineStoppedError&) {
      threw_in_submit = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.shutdown();
  blocked.join();

  // The pinned and queued requests still complete (shutdown drains); the
  // blocked one fails typed — and resolves, never dangles. (If the thread
  // was slow enough to see the shutdown up front, the same typed error
  // arrives synchronously instead.)
  EXPECT_TRUE(std::isfinite(f1.get()));
  EXPECT_TRUE(std::isfinite(f2.get()));
  if (!threw_in_submit) EXPECT_THROW(f3.get(), serve::EngineStoppedError);
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
}

// shutdown() can run to COMPLETION between submit()'s front-gate stop
// check and its shard-queue lock. The fast (non-blocked) path must then
// fail the future typed instead of enqueueing onto the dead shard —
// there the promise would never resolve (the worker is already joined)
// and drain() would hang forever.
TEST_F(FaultTest, SubmitDispatchRacingShutdownFailsTypedNotStranded) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  // Pin the submitter between seq assignment and the shard enqueue
  // (delay, not throw — the seq is already consumed) while shutdown()
  // runs to completion, worker join included.
  fp::FailpointConfig cfg;
  cfg.action = fp::FailpointConfig::Action::kDelay;
  cfg.delay_ms = 200;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("serve.submit.dispatch", cfg);

  std::future<float> f;
  bool threw_in_submit = false;  // lost the race: stop_ seen up front
  std::thread submitter([&] {
    try {
      f = engine.submit(tiny_queries(data, 1)[0]);
    } catch (const serve::EngineStoppedError&) {
      threw_in_submit = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.shutdown();  // finishes while the submitter sleeps in dispatch
  submitter.join();

  if (!threw_in_submit) EXPECT_THROW(f.get(), serve::EngineStoppedError);
  engine.drain();  // must not hang on a stranded request
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
  EXPECT_EQ(s.queue_depth, 0);
}

TEST_F(FaultTest, SubmitAndIngestAfterShutdownFailTyped) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::ServingEngine engine(mgr, tiny_session_config(), serve::EngineConfig{});
  EXPECT_TRUE(std::isfinite(engine.submit(tiny_queries(data, 1)[0]).get()));
  engine.shutdown();
  engine.shutdown();  // idempotent
  EXPECT_THROW(engine.submit(tiny_queries(data, 1)[0]), serve::EngineStoppedError);
  EXPECT_THROW(engine.ingest(data.src[0], data.dst[0], data.ts.back() + 1),
               serve::EngineStoppedError);
}

// ---- deadlines --------------------------------------------------------------

TEST_F(FaultTest, ExpiredRequestsShedAtDequeueWithTypedError) {
  const graph::Dataset data = small_dataset(17);
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = 1;
  ec.max_delay_ms = 0.0;
  ec.default_deadline_ms = 5;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  // Pin the worker for 120 ms on the first request so queued deadlines
  // lapse deterministically.
  fp::FailpointConfig cfg;
  cfg.action = fp::FailpointConfig::Action::kDelay;
  cfg.delay_ms = 120;
  cfg.max_fires = 1;
  fp::ScopedFailpoint arm("serve.worker.forward", cfg);

  auto q = tiny_queries(data, 1)[0];
  q.deadline_ms = -1;  // negative override disables the engine default
  auto f1 = engine.submit(q);  // dequeued immediately, pinned in forward
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  serve::LinkQuery q2 = q;
  q2.deadline_ms = 0;  // inherits default_deadline_ms = 5 → will lapse
  auto f2 = engine.submit(q2);
  serve::LinkQuery q3 = q;  // deadline disabled → survives the queue
  auto f3 = engine.submit(q3);

  EXPECT_TRUE(std::isfinite(f1.get()));
  EXPECT_THROW(f2.get(), serve::DeadlineExceededError);
  EXPECT_TRUE(std::isfinite(f3.get()));
  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
}

// A deadline or coalescing window past what steady_clock can represent
// saturates: the deadline never lapses and the window lasts until the
// batch is full. Converted without saturating, such a value overflows
// into a point in the past and sheds the request at its first dequeue.
// A plain TEST, not the FaultTest fixture: it needs no failpoint, so the
// failpoints-OFF build runs it too.
TEST(Deadlines, InfiniteAndHugeDeadlinesNeverShed) {
  const graph::Dataset data = small_dataset(17);
  const double inf = std::numeric_limits<double>::infinity();
  const auto queries = tiny_queries(data, 3);
  struct Variant {
    double default_ms;
    double per_query_ms;
  };
  for (const Variant v : {Variant{inf, 0}, Variant{0, inf}, Variant{0, 1e16}}) {
    SCOPED_TRACE(::testing::Message() << "default " << v.default_ms << " ms, per query "
                                      << v.per_query_ms << " ms");
    serve::GraphEpochManager mgr(data);
    serve::EngineConfig ec;
    ec.num_workers = 1;
    ec.max_batch = static_cast<std::int64_t>(queries.size());
    ec.max_delay_ms = inf;  // the window closes only on a full batch
    ec.default_deadline_ms = v.default_ms;
    serve::ServingEngine engine(mgr, tiny_session_config(), ec);
    std::vector<std::future<float>> futures;
    for (serve::LinkQuery q : queries) {
      q.deadline_ms = v.per_query_ms;
      futures.push_back(engine.submit(q));
    }
    for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get()));
    engine.drain();
    const serve::ServingStats s = engine.stats();
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.requests, queries.size());
    EXPECT_EQ(s.batches, 1u);
  }
}

// ---- the standing invariant, fuzzed ----------------------------------------

// Random failpoint cocktails × worker counts × shard counts × mid-stream
// drains. Nothing here checks scores; it checks the robustness contract:
// every future resolves exactly once (a broken promise would throw
// std::future_error), the outcome classes reconcile exactly with the
// engine's counters, the engine always drains, it still serves after the
// faults clear, and the exported ledger is the engine's ledger.
namespace {

/// One cocktail against an engine on `mgr`; returns the engine's final
/// stats. The engine is destroyed on return.
serve::ServingStats fuzz_engine(serve::GraphEpochManager& mgr,
                                const graph::Dataset& data, std::int64_t workers,
                                util::Rng& rng) {
  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;
  serve::EngineConfig ec;
  ec.num_workers = workers;
  ec.max_batch = 4;
  ec.max_delay_ms = 0.2;
  ec.admission = serve::EngineConfig::AdmissionPolicy::kReject;
  ec.max_queue_per_worker = 6;
  serve::ServingEngine engine(mgr, sc, ec);

  // Random cocktail, every point fire-bounded so the run always converges
  // (an unbounded publish fault would stall visibility forever).
  auto arm_random = [&](const char* name, std::uint64_t max_fires) {
    fp::FailpointConfig cfg;
    cfg.every_nth = 1 + rng.next_below(6);
    cfg.first_hit = 1 + rng.next_below(4);
    cfg.max_fires = max_fires;
    fp::activate(name, cfg);
  };
  if (rng.next_below(2)) arm_random("serve.worker.forward", 3);
  if (rng.next_below(2)) arm_random("serve.ingest.apply", 2);
  if (rng.next_below(2)) arm_random("serve.epoch.publish", 2);
  if (rng.next_below(2)) arm_random("serve.epoch.shard_replay", 2);

  constexpr int kQueries = 80;
  constexpr int kEvents = 60;
  const graph::Time t_query = data.ts.back() + kEvents + 10;

  std::vector<std::future<float>> futures;
  std::uint64_t events_rejected = 0, events_faulted = 0;
  std::thread producer([&] {
    graph::Time t = data.ts.back();
    for (int k = 0; k < kEvents; ++k) {
      t += 1.0;
      try {
        engine.ingest(data.src[static_cast<std::size_t>(k) % data.src.size()],
                      data.dst[static_cast<std::size_t>(k) % data.dst.size()], t);
      } catch (const serve::RejectedError&) {
        ++events_rejected;
      } catch (const fp::FailpointError&) {
        ++events_faulted;  // an ingest fault fails the producer's call
      }
      if (k == kEvents / 2) engine.drain();  // drain with faults in flight
    }
  });
  for (int i = 0; i < kQueries; ++i) {
    serve::LinkQuery q{data.src[static_cast<std::size_t>(i) % data.src.size()],
                       data.dst[static_cast<std::size_t>(i) % data.dst.size()],
                       t_query};
    if (rng.next_below(8) == 0) q.deadline_ms = 0.05;  // some will lapse
    futures.push_back(engine.submit(q));
  }
  producer.join();

  // Classify every outcome; exact reconciliation below.
  std::uint64_t values = 0, rejected = 0, expired = 0, faulted = 0;
  for (auto& f : futures) {
    try {
      EXPECT_TRUE(std::isfinite(f.get()));
      ++values;
    } catch (const serve::RejectedError&) {
      ++rejected;
    } catch (const serve::DeadlineExceededError&) {
      ++expired;
    } catch (const fp::FailpointError&) {
      ++faulted;
    }
    // Anything else (std::future_error = broken promise, an untyped
    // escape, a torn view reaching the client) fails the test.
  }
  engine.drain();  // must terminate with every fault class represented

  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(s.requests, values);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.expired, expired);
  EXPECT_EQ(s.faulted, faulted);
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.event_queue_depth, 0);
  EXPECT_EQ(s.events_rejected, events_rejected);
  EXPECT_EQ(s.events_ingested + events_faulted + events_rejected,
            static_cast<std::uint64_t>(kEvents));

  // Faults cleared → full service, and the post-fault graph still answers.
  fp::deactivate_all();
  EXPECT_TRUE(std::isfinite(engine.submit({data.src[0], data.dst[0], t_query}).get()));
  engine.drain();
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(),
              data.num_edges() + static_cast<std::int64_t>(s.events_ingested));
  }
  return engine.stats();
}

void run_fault_fuzz(std::int64_t workers, int num_shards, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << workers << " workers, " << num_shards
                                    << " shards, seed " << seed);
  util::Rng rng(seed);
  const graph::Dataset data = small_dataset(41);
  const obs::MetricsSnapshot before = obs::snapshot();

  serve::ServingStats s;
  std::uint64_t compactions = 0;
  {
    serve::EpochConfig epoch_cfg;
    epoch_cfg.num_shards = num_shards;
    epoch_cfg.compact_threshold = 50;
    serve::GraphEpochManager mgr(data, epoch_cfg);
    s = fuzz_engine(mgr, data, workers, rng);
    compactions = mgr.compactions();  // the engine's last publish included
  }
  EXPECT_EQ(s.requests + s.rejected + s.expired + s.faulted, s.submitted);
  if (!obs::compiled_in()) return;  // no registry to compare against

  // The engine's and the manager's books folded into the registry when
  // they were destroyed: each exported series grew by exactly the value
  // the owner reported.
  const obs::MetricsSnapshot after = obs::snapshot();
  auto grew = [&](const std::string& name) {
    auto value = [&](const obs::MetricsSnapshot& snap) -> std::uint64_t {
      for (const auto& c : snap.counters)
        if (c.name == name) return c.value;
      return 0;
    };
    return value(after) - value(before);
  };
  EXPECT_EQ(grew("taser.serve.submitted"), s.submitted);
  EXPECT_EQ(grew("taser.serve.requests"), s.requests);
  EXPECT_EQ(grew("taser.serve.rejected"), s.rejected);
  EXPECT_EQ(grew("taser.serve.expired"), s.expired);
  EXPECT_EQ(grew("taser.serve.faulted"), s.faulted);
  EXPECT_EQ(grew("taser.epoch.compactions"), compactions);
}

}  // namespace

TEST_F(FaultTest, FuzzEveryFutureResolvesExactlyOnce) {
  std::uint64_t seed = 1000;
  for (std::int64_t workers : {1, 2, 4})
    for (int num_shards : {1, 4}) run_fault_fuzz(workers, num_shards, ++seed);
}
