#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_builder.h"
#include "core/builder_pool.h"

namespace taser::core {

/// Depth-K ring of prefetch slots with P builder workers over a
/// BuilderPool: up to `depth() + 1` batches may be in flight (submitted
/// but not yet consumed) while up to `workers()` background threads build
/// them concurrently and the caller trains on the oldest (the CPU is
/// otherwise idle while the real system's GPU runs propagation — the
/// overlap GNNFlow-style samplers exploit). depth = 1, one worker is the
/// classic double buffer; deeper rings absorb bursty builds, and extra
/// workers convert ring depth into build throughput when construction is
/// the bottleneck. depth = 0 starts no worker: next() builds inline on
/// the caller's thread, the synchronous pipeline.
///
/// Determinism contract (multi-builder model):
///  - *Claim order is submission order.* Workers claim queued batches
///    strictly in submission order (a single monotone claim counter);
///    only build *completion* may reorder. next() hands batches out FIFO
///    regardless of completion order.
///  - *Builds share no mutable state.* Batch j builds on the pool's slot
///    context j mod num_slots() — its own BatchBuilder, workspace, finder
///    replica and device ledger. Each submit() carries its own forked
///    Rng, and slot finders/devices are repositioned per sequence number
///    (NeighborFinder::begin_build), so a build's output is a pure
///    function of (seq, job) — bit-identical at any worker count and any
///    depth, inline or on a worker.
///  - *Side-state merges in consumption order.* What a serial run would
///    accumulate on the shared device (sim-time ledger, launch count) is
///    captured per build as a delta and folded inside next(), in
///    consumption (= submission) order — a fixed-order reduction
///    independent of worker timing. Cache hit/miss counts need no fold:
///    builds add them to the shared cache's books directly, and integer
///    sums do not depend on order.
///  - Callers must NOT overlap a build with anything that mutates
///    builder-visible state (sampler parameter updates, re-ordered batch
///    selection). Adaptive runs satisfy that at depth 0 or through the
///    stale-θ snapshot hand-off: `sampler_snapshot` on submit() is the
///    only sampler the build reads, and it must stay alive and unmutated
///    until that batch's next() returns.
///
/// Capacity contract: submitting more than `depth() + 1` batches without
/// consuming is a hard error (TASER_CHECK), never a silent deepening —
/// the ring bound is what the snapshot-pool lifetime argument AND the
/// one-build-per-slot-context-at-a-time argument rest on.
///
/// Teardown contract: destruction (or request_stop()) discards
/// queued-but-unclaimed jobs — no build starts after stop is requested.
/// In-progress builds finish (builds are not interruptible), their
/// results are dropped, and workers exit. This is what makes teardown
/// during exception unwind safe: abandoned jobs may reference sampler
/// snapshots the unwinding caller is about to release, and must never
/// reach a builder.
///
/// Phase accounting: the building thread measures its own NF/AS/FS wall
/// and simulated time into the Prepared record, including the sampler's
/// modeled device time (AS.sim), priced from its tensor work via
/// thread-local op counters (the global counters would mix in the main
/// thread's concurrent propagation work).
class BatchPipeline {
 public:
  struct Prepared {
    BatchBuilder::Built built;
    util::PhaseAccumulator phases;  ///< NF/AS/FS (wall + sim), worker-measured
  };

  /// Builds run on `pool`'s per-slot contexts; side-state deltas fold in
  /// consumption order. depth 0 starts no worker thread: next() builds
  /// inline on the caller. depth ≥ 1 starts min(workers, depth + 1)
  /// workers (at least one), each with an OpenMP team of
  /// max(1, host_team / (2 * workers)): propagation on the caller keeps
  /// its full team and the builders split the other half. The pool must
  /// outlive the pipeline and have ≥ depth + 1 slots.
  BatchPipeline(BuilderPool& pool, int num_hops, std::size_t depth, int workers);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Ring depth K: max batches the caller may run ahead of consumption.
  std::size_t depth() const { return ring_.size() - 1; }
  /// Ring slots = depth() + 1 (max in-flight batches).
  std::size_t capacity() const { return ring_.size(); }
  /// Builder worker threads running (0 at depth 0).
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues the next batch in submission order. `rng` is the per-batch
  /// stream forked by the caller — the deterministic RNG hand-off.
  /// `sampler_snapshot`, when non-null, is the frozen-θ sampler this
  /// job's build must select with (stale-θ prefetch); it must stay alive
  /// and unmutated until the job's next() returns. Throws if the ring is
  /// already full (in-flight == capacity()).
  void submit(graph::TargetBatch roots, util::Rng rng,
              AdaptiveSampler* sampler_snapshot = nullptr);

  /// Returns the oldest submitted batch, blocking until a worker has
  /// built it (or building it inline at depth 0), then folds its
  /// side-state deltas. Rethrows a failed build's exception exactly once;
  /// later batches build and serve normally.
  Prepared next();

  /// Batches submitted but not yet consumed.
  std::size_t pending() const;
  /// Builds completed (successfully or with a stored error) so far.
  /// Teardown tests assert that queued-but-unclaimed jobs never build.
  std::uint64_t built_count() const;

  /// Initiates teardown: discards queued-but-unclaimed jobs and lets
  /// workers exit after any in-progress build. Idempotent; called by the
  /// destructor (exposed so tests can assert the discard semantics
  /// deterministically before joining).
  void request_stop();

  /// Test/bench hook: called at the top of every build, on the building
  /// thread, with the batch's sequence number. May throw — the exception
  /// is stored as that build's error and rethrown by next(). May sleep —
  /// benches model device-side build time this way so builds overlap on
  /// a single host core. Must be set before the first submit().
  void set_build_hook(std::function<void(std::uint64_t)> hook);

 private:
  struct Job {
    graph::TargetBatch roots;
    util::Rng rng;
    AdaptiveSampler* sampler_snapshot = nullptr;  ///< stale-θ hand-off (may be null)
  };
  /// What one build leaves for next(): the batch, or the exception it
  /// threw, plus its side-state deltas (valid either way).
  struct Result {
    Prepared prep;
    std::exception_ptr err;
    BuilderPool::SideState side;
  };
  /// One ring slot. Batch j's slot is ring_[j % capacity()]: it holds a
  /// queued job iff claimed_ ≤ j < submitted_, and a result iff `ready`
  /// (builds complete out of order under P > 1, so readiness is
  /// per-slot, not a counter). Slot j mod capacity cannot be reused
  /// before batch j is consumed (the capacity check on submit), which is
  /// also what keeps one build per slot context at a time.
  struct Slot {
    Job job;
    Result result;
    bool ready = false;
  };

  /// Builds batch `seq` on its pool slot, on the calling thread.
  Result build(Job job, std::uint64_t seq);
  void worker_loop(int workers);

  BuilderPool& pool_;
  int num_hops_;
  std::function<void(std::uint64_t)> hook_;

  mutable std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable result_ready_;
  std::vector<Slot> ring_;
  /// Monotone batch counters; slot of batch j is ring_[j % capacity()].
  /// Invariant: consumed_ ≤ claimed_ ≤ submitted_ ≤ consumed_ + capacity()
  /// and built_ ≤ claimed_. Workers claim at claimed_ (submission order)
  /// and may complete out of order; per-slot `ready` bridges the gap.
  std::uint64_t submitted_ = 0;
  std::uint64_t claimed_ = 0;
  std::uint64_t built_ = 0;
  std::uint64_t consumed_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace taser::core
