#include "serve/serving_engine.h"

#include <cmath>
#include <exception>

#include "util/failpoint.h"

namespace taser::serve {

namespace {
/// Bounded retries for the final shutdown publish: a permanently faulting
/// publish must not hang the destructor (each retry's backoff lives in
/// the ingest loop's timed wait).
constexpr std::uint64_t kShutdownPublishRetries = 64;

using Clock = std::chrono::steady_clock;

/// `t + ms`, saturating: an offset past what the clock can represent
/// (an infinite or very large deadline or coalescing window) yields
/// Clock::time_point::max() — no deadline, or a window that lasts until
/// the batch is full or the engine stops — where the plain conversion
/// would overflow into a point in the past.
Clock::time_point add_ms(Clock::time_point t, double ms) {
  const std::chrono::duration<double, std::milli> offset(ms);
  if (!(offset < Clock::time_point::max() - t)) return Clock::time_point::max();
  return t + std::chrono::duration_cast<Clock::duration>(offset);
}

/// Interned span names for the request and publish lifecycle (lazy:
/// interning locks, so resolve once on first use, never per span).
struct SpanNames {
  obs::SpanName submit = obs::intern_span_name("serve.submit");
  obs::SpanName queue = obs::intern_span_name("serve.queue");
  obs::SpanName batch = obs::intern_span_name("serve.batch");
  obs::SpanName forward = obs::intern_span_name("serve.forward");
  obs::SpanName device = obs::intern_span_name("serve.device");
  obs::SpanName publish = obs::intern_span_name("serve.publish");
};
const SpanNames& span_names() {
  static const SpanNames names;
  return names;
}
}  // namespace

ServingEngine::Shard::Shard(std::int64_t id)
    : books({"taser.serve.requests", "taser.serve.rejected", "taser.serve.expired",
             "taser.serve.faulted", "taser.serve.batches",
             "taser.serve.torn_view_retries"},
            {"taser.serve.latency_ms.w" + std::to_string(id),
             "taser.serve.batch_occupancy"}) {}

std::uint64_t ServingEngine::Shard::settled() const {
  return books.count(kRequests) + books.count(kExpired) + books.count(kFaulted);
}

ServingEngine::ServingEngine(GraphEpochManager& graphs,
                             const SessionConfig& session_config,
                             EngineConfig config)
    : graphs_(graphs), config_(config),
      front_books_({"taser.serve.submitted", "taser.serve.events.ingested",
                    "taser.serve.events.rejected", "taser.serve.publishes",
                    "taser.serve.publish_faults"},
                   {}),
      published_before_(graphs.events_published()) {
  TASER_CHECK_MSG(config_.num_workers >= 1,
                  "num_workers must be >= 1 (got " << config_.num_workers << ")");
  TASER_CHECK_MSG(config_.max_batch >= 1,
                  "max_batch must be >= 1 (got " << config_.max_batch << ")");
  TASER_CHECK_MSG(config_.max_delay_ms >= 0,
                  "max_delay_ms must be >= 0 (got " << config_.max_delay_ms << ")");
  TASER_CHECK_MSG(config_.modeled_device_ms >= 0,
                  "modeled_device_ms must be >= 0 (got "
                      << config_.modeled_device_ms << ")");
  TASER_CHECK_MSG(config_.max_queue_per_worker >= 0,
                  "max_queue_per_worker must be >= 0 (got "
                      << config_.max_queue_per_worker << ")");
  TASER_CHECK_MSG(config_.max_pending_events >= 0,
                  "max_pending_events must be >= 0 (got "
                      << config_.max_pending_events << ")");
  shards_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (std::int64_t w = 0; w < config_.num_workers; ++w) {
    auto shard = std::make_unique<Shard>(w);
    // Every replica shares one seed → identical models and identical
    // keyed sampling.
    shard->session = std::make_unique<InferenceSession>(graphs_, session_config);
    shards_.push_back(std::move(shard));
  }
  ingest_thread_ = std::thread([this] { ingest_loop(); });
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([this, s] { worker_loop(*s); });
  }
}

ServingEngine::~ServingEngine() { shutdown(); }

void ServingEngine::shutdown() {
  // Stop the ingest thread first: it runs a final publish covering every
  // accepted event, so late micro-batches score against the final epoch.
  {
    std::lock_guard<std::mutex> lock(front_mu_);
    stop_ = true;
  }
  ingest_ready_.notify_all();
  event_space_.notify_all();  // blocked ingest() producers fail typed
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // Workers drain their queues before exiting (shedding/faults included —
  // every queued promise still resolves exactly once).
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->work_ready.notify_all();
    shard->space_ready.notify_all();  // blocked submit()ters fail typed
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void ServingEngine::load_checkpoint(const std::string& path) {
  // All-or-nothing across the worker fleet: stage the whole bundle first
  // (every file/format/truncation fault lands HERE, touching no replica),
  // then install from memory — and installs themselves validate the full
  // name/shape mapping before copying a float, so even a config mismatch
  // leaves all replicas on their previous parameters.
  const nn::ParameterBundle staged = nn::read_parameters(path);
  TASER_FAILPOINT("serve.checkpoint.load");
  for (auto& shard : shards_) shard->session->install_checkpoint(staged);
}

std::future<float> ServingEngine::submit(const LinkQuery& query) {
  // Validate on the client thread: a malformed query must fail its
  // caller, not crash a worker mid-batch.
  const auto nodes = graphs_.num_nodes();
  TASER_CHECK_MSG(query.src >= 0 && query.src < nodes && query.dst >= 0 &&
                      query.dst < nodes,
                  "link query (" << query.src << ", " << query.dst
                                 << "): node id out of range [0, " << nodes << ")");
  TASER_CHECK_MSG(std::isfinite(query.t),
                  "link query (" << query.src << ", " << query.dst << ") at t="
                                 << query.t << ": query time must be finite");
  obs::TraceSpan submit_span(span_names().submit);
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(front_mu_);
    if (stop_) throw EngineStoppedError("submit after ServingEngine shutdown");
    seq = seq_++;
    front_books_.add(kSubmitted);
    if (seq == 0) first_enqueue_ = std::chrono::steady_clock::now();
  }
  submit_span.set_tag(seq);
  // Test-only window between the front stop gate and the shard enqueue
  // (delay schedules only: the seq is already consumed, so a throw here
  // would leak it from the stats identity).
  TASER_FAILPOINT("serve.submit.dispatch");
  const std::uint64_t w = seq % static_cast<std::uint64_t>(config_.num_workers);
  Shard& shard = *shards_[w];

  Request req;
  req.query = query;
  req.seq = seq;
  req.enqueued = std::chrono::steady_clock::now();
  // Queue-residency trace context: the async span opens here (client
  // thread) and is emitted by whichever thread pops the request. Trace
  // state never feeds scores or scheduling — determinism contract.
  if (obs::trace_enabled()) {
    req.trace_span = obs::next_span_id();
    req.trace_parent = submit_span.id();
    req.trace_t0_ns = obs::trace_now_ns();
  }
  // Deadline resolution: per-query override > engine default; negative
  // per-query disables even a configured default.
  const double deadline_ms =
      query.deadline_ms != 0 ? query.deadline_ms : config_.default_deadline_ms;
  req.has_deadline = deadline_ms > 0;
  if (req.has_deadline) req.deadline = add_ms(req.enqueued, deadline_ms);
  std::future<float> result = req.result.get_future();
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    // Re-check stop under the shard lock: shutdown() can run to
    // completion between the front-gate stop_ check and here (it sets
    // shard.stop and joins the worker), and a request pushed onto a dead
    // shard's queue would never resolve — drain() would hang on it
    // forever. Fail typed instead, mirroring the kBlock wake-on-stop
    // path below.
    if (shard.stop) {
      shard.books.add(kRejected);
      req.result.set_exception(std::make_exception_ptr(EngineStoppedError(
          "engine shut down while submit was dispatching to its shard")));
      return result;
    }
    // Admission control. The seq is already assigned, so admission never
    // re-orders the sequence of accepted requests relative to an
    // unbounded run — the bitwise-determinism anchor survives bounds that
    // never trip. A rejected request consumes its seq; scores are per-seq
    // pure functions, so gaps change nothing downstream.
    if (config_.max_queue_per_worker > 0 &&
        static_cast<std::int64_t>(shard.queue.size()) >=
            config_.max_queue_per_worker) {
      if (config_.admission == EngineConfig::AdmissionPolicy::kReject) {
        shard.books.add(kRejected);
        req.result.set_exception(std::make_exception_ptr(RejectedError(
            "serving queue full: worker " + std::to_string(w) + " holds " +
            std::to_string(shard.queue.size()) + " pending queries")));
        return result;
      }
      // kBlock: backpressure the producer until the worker frees space or
      // shutdown wins the race (then the future fails typed — it must
      // still resolve exactly once). Wake order among multiple blocked
      // producers is arbitrary, so backpressure can enqueue requests on
      // this shard out of seq order — harmless (scores are per-seq pure
      // functions) and documented in the header's ordering note.
      shard.space_ready.wait(lock, [&] {
        return shard.stop ||
               static_cast<std::int64_t>(shard.queue.size()) <
                   config_.max_queue_per_worker;
      });
      if (shard.stop) {
        shard.books.add(kRejected);
        req.result.set_exception(std::make_exception_ptr(
            EngineStoppedError("engine shut down while submit was blocked on "
                               "a full queue")));
        return result;
      }
    }
    ++shard.enqueued;
    shard.queue.push_back(std::move(req));
  }
  shard.work_ready.notify_one();
  return result;
}

void ServingEngine::ingest(graph::NodeId u, graph::NodeId v, graph::Time t,
                           std::span<const float> edge_feat) {
  {
    std::unique_lock<std::mutex> lock(front_mu_);
    if (stop_) throw EngineStoppedError("ingest after ServingEngine shutdown");
    // Admission bounds the events publishing has not caught up with.
    const auto backlog_full = [this] {
      return config_.max_pending_events > 0 &&
             static_cast<std::int64_t>(graphs_.unpublished()) >=
                 config_.max_pending_events;
    };
    if (backlog_full()) {
      if (config_.admission == EngineConfig::AdmissionPolicy::kReject) {
        front_books_.add(kEventsRejected);
        throw RejectedError("event backlog full: " +
                            std::to_string(config_.max_pending_events) +
                            " events ingested but not yet published");
      }
      // kBlock: backpressure the producer until a publish frees space or
      // shutdown begins.
      event_space_.wait(lock, [&] { return stop_ || !backlog_full(); });
      if (stop_)
        throw EngineStoppedError(
            "engine shut down while ingest was blocked on a full event backlog");
    }
    // The append runs on this thread, under the lock that guards stop_:
    // once shutdown sets it no append can start, so the ingest thread's
    // last publish covers every accepted event. The manager validates
    // the event before any state changes, so a malformed or faulted one
    // throws to this caller and changes nothing.
    graphs_.ingest(u, v, t, edge_feat);
  }
  ingest_ready_.notify_one();
}

void ServingEngine::drain() {
  std::unique_lock<std::mutex> lock(front_mu_);
  // Completed counters, not just empty queues: a popped batch is in
  // flight until its results land. Every accepted event is in the log
  // before ingest() returns, and no append can start while this lock is
  // held, so events are drained once none is unpublished and the ingest
  // thread has counted the publish that made the last one visible.
  idle_.wait(lock, [this] {
    // publish_abandoned_: shutdown exhausted its bounded retries against
    // a persistently faulting publish and the ingest thread exited —
    // nothing can publish again, so waiting on it would block forever.
    // The stall stays observable via stats() (publish_abandoned /
    // publish_faults / event_queue_depth).
    if (!publish_abandoned_ &&
        (graphs_.unpublished() > 0 ||
         front_books_.count(kEventsIngested) !=
             graphs_.events_published() - published_before_))
      return false;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> g(shard->mu);
      // Every enqueued request must have resolved — with a value OR an
      // exception. Shed and faulted requests count as settled: drain()
      // means "no request in flight", not "no request failed".
      if (shard->settled() != shard->enqueued || !shard->queue.empty())
        return false;
    }
    return true;
  });
}

void ServingEngine::ingest_loop() {
  std::unique_lock<std::mutex> lock(front_mu_);
  std::uint64_t publish_backoff = 0;
  for (;;) {
    if (publish_backoff == 0) {
      ingest_ready_.wait(lock, [this] { return stop_ || graphs_.unpublished() > 0; });
    } else {
      // A publish fault left ingested events invisible; retry (catch_up
      // is idempotent via the per-shard replay watermarks) without
      // hot-spinning on a persistent fault.
      ingest_ready_.wait_for(lock, std::chrono::milliseconds(1), [this] { return stop_; });
    }
    // Publish everything ingested so far at once — natural adaptive
    // batching: the busier the epoch manager, the more events amortize
    // into each publish. Once stop_ is seen here no append can start, so
    // the publish that follows covers every accepted event.
    const bool exiting = stop_;
    lock.unlock();
    // Publish fault boundary: catch_up throws propagate here with the
    // replay watermarks untouched, so the next publish retries the same
    // slice idempotently. Visibility only advances on success.
    bool published = true;
    try {
      // The publish span parents the epoch manager's catch_up /
      // shard-replay spans (same thread → RAII stack nesting).
      obs::TraceSpan publish_span(span_names().publish);
      publish_span.set_tag(graphs_.publish());  // no-op when nothing is unpublished
    } catch (...) {
      published = false;
    }
    lock.lock();
    if (published) {
      // events.ingested grows by the events this publish made visible.
      front_books_.add(kEventsIngested, graphs_.events_published() - published_before_ -
                                            front_books_.count(kEventsIngested));
      publish_backoff = 0;
      front_books_.add(kPublishes);
    } else {
      ++publish_backoff;
      front_books_.add(kPublishFaults);
    }
    event_space_.notify_all();  // backpressured producers re-check
    // A permanently faulting publish must not hang shutdown: give up after
    // a bounded number of retries. The abandonment is flagged so drain()
    // unblocks (nothing can ever advance visibility once this thread
    // exits) and stats() reports the stall (publish_abandoned +
    // publish_faults). Still under front_mu_, so concurrent drain()ers
    // re-check their predicate only after the flag is set.
    const bool done = exiting && (published || publish_backoff > kShutdownPublishRetries);
    if (done && !published) publish_abandoned_ = true;
    idle_.notify_all();
    if (done) return;
  }
}

void ServingEngine::worker_loop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    shard.work_ready.wait(lock,
                          [&] { return shard.stop || !shard.queue.empty(); });
    if (shard.queue.empty()) {
      if (shard.stop) return;
      continue;
    }

    // Coalescing window: run as soon as max_batch queries are pending,
    // the oldest has waited max_delay, or shutdown wants the queue
    // drained.
    const auto deadline = add_ms(shard.queue.front().enqueued, config_.max_delay_ms);
    shard.work_ready.wait_until(lock, deadline, [&] {
      return shard.stop ||
             static_cast<std::int64_t>(shard.queue.size()) >= config_.max_batch;
    });

    // Dequeue with deadline shedding: an expired request is cheap to fail
    // here and expensive to score — shedding it protects every request
    // behind it. Shed before the forward, never after (a scored request
    // always delivers its value, even if it finished late).
    const auto now = std::chrono::steady_clock::now();
    shard.batch.clear();
    shard.batch_queries.clear();
    shard.batch_keys.clear();
    while (!shard.queue.empty() &&
           static_cast<std::int64_t>(shard.batch.size()) < config_.max_batch) {
      Request& front = shard.queue.front();
      // Close the queue-residency async span (begun on the client thread)
      // for every pop — scored, shed, either way the wait is over.
      if (front.trace_span != 0)
        obs::emit_span(span_names().queue, front.trace_t0_ns,
                       obs::trace_now_ns(), front.trace_parent, front.seq,
                       /*async=*/true, front.trace_span);
      if (front.has_deadline && now >= front.deadline) {
        front.result.set_exception(std::make_exception_ptr(DeadlineExceededError(
            "deadline exceeded after " +
            std::to_string(std::chrono::duration<double, std::milli>(
                               now - front.enqueued)
                               .count()) +
            " ms in queue")));
        shard.books.add(kExpired);
        shard.queue.pop_front();
        continue;
      }
      shard.batch.push_back(std::move(front));
      shard.queue.pop_front();
      shard.batch_queries.push_back(shard.batch.back().query);
      shard.batch_keys.push_back(shard.batch.back().seq);
    }
    if (config_.max_queue_per_worker > 0)
      shard.space_ready.notify_all();  // backpressured submit()ters re-check
    if (shard.batch.empty()) {
      // Everything popped was shed — report progress (drain() counts
      // expired) and go back to waiting.
      lock.unlock();
      {
        std::lock_guard<std::mutex> sync(front_mu_);
        idle_.notify_all();
      }
      lock.lock();
      continue;
    }
    lock.unlock();

    // Fault boundary around the forward: an exception fails exactly this
    // batch's promises and the worker keeps serving. A torn view (replica
    // version sliding under the pinned epoch) retries once — the retry
    // re-pins the now-current epoch; scores stay per-seq pure functions,
    // so the retried batch is bitwise what it would have scored anyway.
    std::exception_ptr fault;
    bool scored = false;
    bool torn_retry = false;
    // Batch span covers forward + modeled device time. Its id is
    // allocated up front so the nested forward/device spans can parent to
    // it; the record itself is emitted once `done` is known (keeping the
    // span closed before the completion bookkeeping re-takes the lock).
    const bool tracing = obs::trace_enabled();
    const std::uint64_t batch_span = tracing ? obs::next_span_id() : 0;
    const std::int64_t batch_t0 = tracing ? obs::trace_now_ns() : 0;
    auto run = [&] {
      obs::TraceSpan forward_span(span_names().forward, shard.batch.size(),
                                  batch_span);
      TASER_FAILPOINT("serve.worker.forward");
      // The session pins the current epoch for the whole micro-batch; the
      // seq keys make each score batch/worker-invariant.
      shard.session->score_links(shard.batch_queries, shard.batch_keys.data(),
                                 shard.batch_scores);
    };
    try {
      run();
      scored = true;
    } catch (const sampling::TornViewError&) {
      torn_retry = true;
      try {
        run();
        scored = true;
      } catch (...) {
        fault = std::current_exception();
      }
    } catch (...) {
      fault = std::current_exception();
    }
    if (scored && config_.modeled_device_ms > 0) {
      obs::TraceSpan device_span(span_names().device, shard.batch.size(),
                                 batch_span);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.modeled_device_ms));
    }
    const auto done = std::chrono::steady_clock::now();
    if (batch_span != 0)
      obs::emit_span(span_names().batch, batch_t0, obs::trace_now_ns(),
                     /*parent=*/0, shard.batch.size(), /*async=*/false,
                     batch_span);

    lock.lock();
    if (torn_retry) shard.books.add(kTornRetries);
    if (scored) {
      for (std::size_t i = 0; i < shard.batch.size(); ++i) {
        shard.batch[i].result.set_value(shard.batch_scores[i]);
        const double ms = std::chrono::duration<double, std::milli>(
                              done - shard.batch[i].enqueued)
                              .count();
        // Fixed-bucket histogram: O(1) state for unbounded uptime, exact
        // count/min/max/sum, ~9%-resolution percentiles.
        shard.books.observe(kLatencyMs, ms);
      }
      shard.books.add(kRequests, shard.batch.size());
      shard.books.add(kBatches);  // faulted batches are excluded from occupancy
      shard.books.observe(kBatchOccupancy, static_cast<double>(shard.batch.size()));
    } else {
      for (auto& r : shard.batch) r.result.set_exception(fault);
      shard.books.add(kFaulted, shard.batch.size());
    }
    shard.last_complete = done;
    TASER_CHECK(shard.settled() <= shard.enqueued);
    lock.unlock();
    {
      // Briefly synchronize on the front lock before notifying: drain()'s
      // predicate reads shard counters under front_mu_, so notifying
      // without it could slip between its predicate check and its wait.
      std::lock_guard<std::mutex> sync(front_mu_);
      idle_.notify_all();  // drain() re-checks its full predicate
    }
    lock.lock();
  }
}

ServingStats ServingEngine::stats() const {
  ServingStats s;
  std::chrono::steady_clock::time_point first_enqueue;
  {
    std::lock_guard<std::mutex> lock(front_mu_);
    s.submitted = front_books_.count(kSubmitted);
    s.events_ingested = graphs_.events_published() - published_before_;
    s.events_rejected = front_books_.count(kEventsRejected);
    s.publish_faults = front_books_.count(kPublishFaults);
    s.publish_abandoned = publish_abandoned_;
    s.event_queue_depth = static_cast<std::int64_t>(graphs_.unpublished());
    first_enqueue = first_enqueue_;
  }
  s.epochs_published = graphs_.current_epoch();
  s.compactions = graphs_.compactions();

  // Merge shards in fixed worker order: equal runs → equal stats.
  obs::LocalHistogram latency;
  std::chrono::steady_clock::time_point last_complete{};
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const obs::Scope& books = shard->books;
    const std::uint64_t requests = books.count(kRequests);
    const std::uint64_t batches = books.count(kBatches);
    s.requests += requests;
    s.rejected += books.count(kRejected);
    s.expired += books.count(kExpired);
    s.faulted += books.count(kFaulted);
    s.torn_view_retries += books.count(kTornRetries);
    s.queue_depth += static_cast<std::int64_t>(shard->queue.size());
    s.batches += batches;
    s.worker_requests.push_back(requests);
    s.worker_occupancy.push_back(
        batches > 0 ? static_cast<double>(requests) / static_cast<double>(batches)
                    : 0.0);
    latency.merge(books.histogram(kLatencyMs));
    if (requests > 0 && shard->last_complete > last_complete)
      last_complete = shard->last_complete;
    s.workspace_alloc_events += shard->session->workspace_alloc_events();
  }
  if (s.batches > 0)
    s.mean_batch_occupancy =
        static_cast<double>(s.requests) / static_cast<double>(s.batches);
  if (latency.count > 0) {
    s.p50_ms = latency.quantile(0.50);
    s.p95_ms = latency.quantile(0.95);
    s.p99_ms = latency.quantile(0.99);
    s.min_ms = latency.min;  // exact extremes + mean tracked alongside
    s.max_ms = latency.max;
    s.mean_ms = latency.mean();
    const double span =
        std::chrono::duration<double>(last_complete - first_enqueue).count();
    if (s.submitted > 0 && span > 0)
      s.qps = static_cast<double>(s.requests) / span;
  }
  queue_depth_gauge_.set(static_cast<double>(s.queue_depth));
  event_queue_depth_gauge_.set(static_cast<double>(s.event_queue_depth));
  return s;
}

}  // namespace taser::serve
