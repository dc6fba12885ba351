#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/epoch_manager.h"
#include "serve/errors.h"
#include "serve/inference_session.h"

namespace taser::serve {

/// Micro-batching + scale-out policy.
struct EngineConfig {
  /// Worker shards; each owns a queue, an InferenceSession replica (its
  /// own model copy, builders and workspaces) and one scoring thread.
  std::int64_t num_workers = 1;
  /// Coalesce at most this many pending queries into one forward.
  std::int64_t max_batch = 64;
  /// Launch a partial batch once the oldest pending query has waited this
  /// long (the latency/throughput trade-off knob). A window past what
  /// steady_clock can represent (+inf included) waits for a full batch or
  /// shutdown.
  double max_delay_ms = 2.0;
  /// Modeled accelerator time per micro-batch (ms): each worker sleeps
  /// this long after its forward, standing in for the simulated device's
  /// kernel time (the bench_pipeline modeled-device convention). Sleeps
  /// overlap across workers, which is exactly the effect scale-out buys —
  /// aggregate QPS grows with worker count even on a single host core.
  /// 0 = off.
  double modeled_device_ms = 0;

  // ---- overload policy (admission control + deadlines) --------------------

  /// What a full queue or event backlog does to the producer. kBlock
  /// backpressures: the call waits for space (classic bounded-queue flow
  /// control). kReject sheds at admission: submit() returns a future
  /// already failed with RejectedError, ingest() throws it — the producer
  /// learns immediately and can retry or drop.
  enum class AdmissionPolicy { kBlock, kReject };
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Bound on each shard's pending-query queue (0 = unbounded, the
  /// pre-admission-control behavior).
  std::int64_t max_queue_per_worker = 0;
  /// Bound on events ingested but not yet published
  /// (GraphEpochManager::unpublished(); 0 = unbounded). With a bound,
  /// ingest() backpressures (or rejects) the producer instead of letting
  /// that backlog grow without limit when publishing cannot keep up.
  std::int64_t max_pending_events = 0;
  /// Default per-request deadline in ms from submit() (0 = none). A
  /// request still queued when its deadline passes is shed at dequeue
  /// time — before any forward work — failing its future with
  /// DeadlineExceededError. LinkQuery::deadline_ms overrides per query. A
  /// deadline past what steady_clock can represent (+inf included) never
  /// lapses.
  double default_deadline_ms = 0;
};

/// Aggregate serving statistics (all completed requests so far), read
/// from the engine's books — the obs::Scope of each worker shard and of
/// the front, the same numbers the exporters show — and merged over
/// shards in fixed worker order so equal runs report equal stats.
/// Percentiles come from the per-shard fixed-bucket log-spaced latency
/// histograms (exact counts — every request lands in a bucket) merged
/// bucketwise with obs::LocalHistogram::merge, so a long-running engine
/// holds O(workers) stats state; resolution is the ~9% bucket geometry
/// with log interpolation, clamped to the exact tracked min/max.
/// `min_ms`/`max_ms`/`mean_ms`, counts and `qps` are exact.
struct ServingStats {
  std::uint64_t requests = 0;  ///< completed with a value
  std::uint64_t batches = 0;   ///< micro-batches scored (faulted ones excluded)
  /// Events published & visible to queries since the engine was built.
  std::uint64_t events_ingested = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t compactions = 0;
  // ---- overload + fault accounting (tentpole PR 8) ------------------------
  // Standing invariant, fuzz-asserted in test_serve_faults: every future
  // submit() ever returned resolves exactly once, so
  //   requests + rejected + expired + faulted == submitted.
  std::uint64_t submitted = 0;  ///< futures handed out (= sequence numbers)
  std::uint64_t rejected = 0;   ///< admission-shed (RejectedError) or
                                ///< stop-raced (EngineStoppedError) futures
  std::uint64_t expired = 0;    ///< deadline-shed at dequeue (DeadlineExceededError)
  std::uint64_t faulted = 0;    ///< failed by a worker-forward fault
  std::uint64_t torn_view_retries = 0;  ///< torn-view batches re-run once
  std::uint64_t events_rejected = 0;  ///< ingest() admission rejections
  std::uint64_t publish_faults = 0;   ///< publish() attempts that threw (retried)
  /// Shutdown exhausted its bounded publish retries against a persistent
  /// fault: the event_queue_depth ingested events never became visible.
  bool publish_abandoned = false;
  std::int64_t queue_depth = 0;  ///< queries queued right now (gauge)
  /// Events ingested but not yet published right now (gauge).
  std::int64_t event_queue_depth = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, max_ms = 0;  ///< submit→complete latency
  double min_ms = 0;   ///< exact fastest completed request (0 when none)
  double mean_ms = 0;  ///< exact mean over all completed requests
  double qps = 0;                   ///< completed requests / serving wall time
  double mean_batch_occupancy = 0;  ///< requests per forward, all shards
  std::uint64_t workspace_alloc_events = 0;  ///< session builder arena growths
  /// Per-worker request counts and batch occupancy, indexed by worker id.
  std::vector<std::uint64_t> worker_requests;
  std::vector<double> worker_occupancy;
};

/// Sharded online serving front: link-prediction queries fan out to
/// `num_workers` independent worker shards, each coalescing its queue
/// into micro-batches under the max-batch / max-delay policy and scoring
/// them on its own InferenceSession replica; streamed edge events are
/// appended to the GraphEpochManager's log on the producer's thread, and
/// a dedicated ingest thread publishes them as the next graph epoch,
/// RCU-style, while workers keep serving the current epoch (see
/// epoch_manager.h for the reclamation contract). Queries see bounded
/// staleness: each micro-batch pins the epoch current at its start;
/// drain() guarantees everything submitted — queries and events — is
/// processed and published. While the engine runs, its ingest thread is
/// the manager's one publisher.
///
/// Determinism: every request carries a global submission sequence
/// number, which keys its private sampling streams in the session's keyed
/// score_links; submit() dispatches it to shard seq mod num_workers. A
/// query's score therefore depends only on (query, seq, epoch) — not on
/// micro-batch composition, batch position or worker count. 1-worker and
/// N-worker engines are bit-identical on the same submission order
/// (asserted in test_serve), which also fixes the PR 5
/// coalescing-dependence of the stochastic finder policies. Stats merge
/// in fixed worker order.
///
/// Ordering: each shard drains its queue FIFO, so per-shard completion
/// order == per-shard *enqueue* order, and `completed + expired + faulted
/// <= submitted` is a standing invariant (hard TASER_CHECK). Enqueue
/// order equals seq order for a single submitting thread; concurrent
/// submitters can interleave between seq assignment and the shard
/// enqueue — in particular, kBlock backpressure wakes blocked producers
/// in arbitrary order — so per-shard enqueue order is NOT guaranteed to
/// be seq order under contention. Scores never depend on it (they are
/// per-seq pure functions). Events append in the order their ingest()
/// calls take the front lock; the log rejects one that regresses in time.
///
/// Overload + faults (PR 8, see src/serve/README.md "Overload behavior"
/// and "Fault model"): bounded queues admission-control submit()/ingest()
/// (block or reject, typed RejectedError), queued requests shed on
/// expired deadlines (DeadlineExceededError, at dequeue — before the
/// forward), and each micro-batch forward runs inside a fault boundary —
/// an exception fails exactly that batch's futures and the worker keeps
/// serving; a torn-view fence trip re-pins the current epoch and retries
/// the batch once. Every future submit() ever returned resolves exactly
/// once, value or exception, through every fault. With no shedding or
/// faults triggered, scores stay bitwise-identical to the PR 7 engine at
/// any (workers, shards) — admission never re-orders sequence assignment.
class ServingEngine {
 public:
  ServingEngine(GraphEpochManager& graphs, const SessionConfig& session_config,
                EngineConfig config);
  /// Drains every pending request and event, then joins all threads.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Restores model + predictor parameters on every worker replica. Call
  /// before submitting traffic — concurrent with scoring it would race.
  /// All-or-nothing: the bundle is read + validated ONCE into a staging
  /// copy, then installed on each replica from memory — a load/validation
  /// fault leaves every worker on its previous parameters (never workers
  /// 0..k-1 new, the rest old).
  void load_checkpoint(const std::string& path);

  /// Begins shutdown, drains pending work, joins all threads. Idempotent;
  /// the destructor calls it. After it starts, submit()/ingest() fail with
  /// EngineStoppedError instead of racing the teardown.
  void shutdown();

  /// Enqueues one link query; the future resolves to its predictor logit
  /// once a micro-batch containing it completes — or exceptionally:
  /// RejectedError (admission, kReject + full queue), DeadlineExceededError
  /// (shed while queued), EngineStoppedError (shutdown won a race with a
  /// blocked submit), or the captured fault of its micro-batch. Throws
  /// EngineStoppedError when called after shutdown began. With kBlock and
  /// a full queue, blocks until the shard worker frees space.
  std::future<float> submit(const LinkQuery& query);

  /// Appends one streamed edge event to the epoch manager's log on the
  /// caller's thread; it is visible to queries at the next epoch publish.
  /// `edge_feat` may be empty (zero row) or must hold edge_feat_dim
  /// floats. A malformed event (node range, non-finite or regressing
  /// time, feature width) or an injected fault throws here and changes
  /// nothing. With max_pending_events bound: kBlock waits until a publish
  /// frees space, kReject throws RejectedError. Throws EngineStoppedError
  /// after shutdown begins.
  void ingest(graph::NodeId u, graph::NodeId v, graph::Time t,
              std::vector<float> edge_feat = {});

  /// Blocks until everything submitted so far has been processed: all
  /// queries resolved (value or exception), all ingested events
  /// published. Correct with failed/shed requests in flight. If shutdown
  /// abandoned a persistently faulting final publish, drain() returns
  /// rather than waiting forever on visibility that can no longer
  /// advance — the stall is reported via ServingStats::publish_abandoned.
  void drain();

  ServingStats stats() const;
  const EngineConfig& config() const { return config_; }
  std::int64_t num_workers() const { return config_.num_workers; }
  /// Worker w's session replica (tests / model introspection).
  InferenceSession& session(std::int64_t w) { return *shards_[static_cast<std::size_t>(w)]->session; }

 private:
  struct Request {
    LinkQuery query;
    std::uint64_t seq = 0;  ///< global submission sequence (stream key)
    std::promise<float> result;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  ///< shed-after point
    bool has_deadline = false;
    // Trace context (0 when tracing is off at submit): the queue-residency
    // async span begins on the client thread and is emitted by whichever
    // thread pops the request (worker dequeue / shed / stop-drain).
    std::uint64_t trace_span = 0;   ///< pre-allocated queue-span id
    std::uint64_t trace_parent = 0; ///< the submit scope's span id
    std::int64_t trace_t0_ns = 0;   ///< enqueue time on the trace clock
  };

  /// Slots of a worker shard's books: counters, then histograms.
  enum ShardCounter : std::size_t {
    kRequests, kRejected, kExpired, kFaulted, kBatches, kTornRetries
  };
  enum ShardHistogram : std::size_t { kLatencyMs, kBatchOccupancy };
  /// Slots of the front's books.
  enum FrontCounter : std::size_t {
    kSubmitted, kEventsIngested, kEventsRejected, kPublishes, kPublishFaults
  };

  /// One worker shard: queue + session replica + scoring thread, with its
  /// own lock so shards never contend with each other. From outside the
  /// worker, submit() takes it to enqueue and drain()/stats() to read.
  struct Shard {
    explicit Shard(std::int64_t id);

    /// Enqueued requests resolved so far (value, shed or fault); drain()
    /// waits until it reaches `enqueued`. Caller holds `mu`.
    std::uint64_t settled() const;

    std::mutex mu;
    std::condition_variable work_ready;
    /// Signals bounded-queue space to kBlock submitters (notified by the
    /// worker after every batch formation, and by shutdown).
    std::condition_variable space_ready;
    std::deque<Request> queue;
    bool stop = false;
    std::uint64_t enqueued = 0;  ///< requests queued (excludes rejected)
    /// ShardCounter / ShardHistogram slots under `taser.serve.*`, written
    /// under `mu`; the latency histogram is `latency_ms.w<id>`.
    obs::Scope books;
    std::chrono::steady_clock::time_point last_complete;
    std::unique_ptr<InferenceSession> session;
    std::thread worker;
    // Worker-local batch scratch (no allocation churn per batch).
    std::vector<Request> batch;
    std::vector<LinkQuery> batch_queries;
    std::vector<std::uint64_t> batch_keys;
    std::vector<float> batch_scores;
  };

  void worker_loop(Shard& shard);
  void ingest_loop();

  GraphEpochManager& graphs_;
  EngineConfig config_;

  /// Registry handles for what has no per-engine view: the queue-depth
  /// gauges, refreshed by stats() (last writer wins).
  obs::Gauge queue_depth_gauge_ = obs::gauge("taser.serve.queue_depth");
  obs::Gauge event_queue_depth_gauge_ = obs::gauge("taser.serve.event_queue_depth");
  /// FrontCounter slots under `taser.serve.*`, written under front_mu_.
  /// `events.ingested` grows at each publish commit by the events it made
  /// visible.
  obs::Scope front_books_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Front lock: submission sequencing, event appends and drain
  /// bookkeeping. Lock order is front → shard and front → manager; no
  /// path takes them the other way around.
  mutable std::mutex front_mu_;
  /// Wakes the ingest thread after an append, and on shutdown.
  std::condition_variable ingest_ready_;
  std::condition_variable idle_;
  /// Signals event-backlog space to kBlock producers (notified by the
  /// ingest thread after every publish attempt, and by shutdown).
  std::condition_variable event_space_;
  bool stop_ = false;
  std::uint64_t seq_ = 0;  ///< next request sequence number
  /// graphs_.events_published() when the engine was built: stats'
  /// events_ingested counts from here.
  const std::uint64_t published_before_;
  /// Set by the ingest thread when shutdown gives up on a persistently
  /// faulting final publish (bounded retries exhausted). Nothing is
  /// published again; drain() keys off this so it cannot block forever
  /// on events that can never become visible.
  bool publish_abandoned_ = false;
  std::chrono::steady_clock::time_point first_enqueue_;

  std::thread ingest_thread_;
};

}  // namespace taser::serve
