#include "core/batch_pipeline.h"

#include <omp.h>

#include <algorithm>

#include "obs/trace.h"
#include "tensor/counters.h"
#include "util/check.h"

namespace taser::core {

namespace {
/// Build-pipeline spans (lazy; interning locks once). The phase-level
/// spans (phase.NF / phase.AS / phase.FS) are emitted inside BatchBuilder
/// by its phase scopes and nest under build.batch via the per-thread RAII
/// stack.
struct BuildObs {
  obs::SpanName claim = obs::intern_span_name("build.claim");
  obs::SpanName batch = obs::intern_span_name("build.batch");
  obs::SpanName wait = obs::intern_span_name("build.wait");
};
const BuildObs& build_obs() {
  static const BuildObs o;
  return o;
}
}  // namespace

BatchPipeline::BatchPipeline(BuilderPool& pool, int num_hops, std::size_t depth,
                             int workers)
    : pool_(pool), num_hops_(num_hops), ring_(depth + 1) {
  TASER_CHECK_MSG(pool.num_slots() >= ring_.size(),
                  "BuilderPool has " << pool.num_slots() << " slots but the ring needs "
                      << ring_.size()
                      << " — every in-flight batch needs its own build context");
  if (depth == 0) return;  // next() builds inline on the caller's thread
  // More workers than ring slots can never run concurrently (in-flight ≤
  // capacity).
  const int n = std::clamp(workers, 1, static_cast<int>(ring_.size()));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) workers_.emplace_back([this, n] { worker_loop(n); });
}

BatchPipeline::~BatchPipeline() {
  request_stop();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

void BatchPipeline::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
}

void BatchPipeline::set_build_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  TASER_CHECK_MSG(submitted_ == 0, "set_build_hook after first submit");
  hook_ = std::move(hook);
}

BatchPipeline::Result BatchPipeline::build(Job job, std::uint64_t seq) {
  pool_.begin_build(seq, num_hops_);
  Result r;
  try {
    if (hook_) hook_(seq);
    tensor::ThreadOpCounterSnapshot snap;
    obs::TraceSpan batch_span(build_obs().batch, seq);
    util::WallTimer timer;
    r.prep.built = pool_.builder_for(seq).build(job.roots, num_hops_, r.prep.phases,
                                                job.rng, job.sampler_snapshot);
    const double build_ms = timer.seconds() * 1e3;
    // AS.sim: the modeled device time of the tensor work this thread
    // issued inside build() — the sampler's.
    r.prep.phases.add(phase::kASSim,
                      pool_.model().nn_time(snap.flops(), snap.launches()).seconds);
    pool_.count_build(build_ms);
  } catch (...) {
    r.err = std::current_exception();
  }
  // Valid even after a throwing build: partial deltas keep the shared
  // ledger consistent.
  r.side = pool_.end_build(seq);
  return r;
}

void BatchPipeline::worker_loop(int workers) {
  // The main thread's model compute runs full-size OpenMP teams
  // concurrently with our builds. Split the remaining half of the host
  // team across the active builders: propagation is the critical path
  // and keeps its full team (at the cost of oversubscription while
  // builds overlap), while the builds — usually the shorter stage —
  // yield. (Per-thread ICV: affects only this worker's parallel regions;
  // results are thread-count independent.)
  omp_set_num_threads(std::max(1, omp_get_max_threads() / (2 * workers)));
  for (;;) {
    Job job;
    std::uint64_t seq;
    {
      obs::TraceSpan claim_span(build_obs().claim);
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock, [this] { return stop_ || claimed_ < submitted_; });
      // Stop wins over queued work: jobs that are submitted but not yet
      // claimed are discarded, never built — teardown must not run
      // builds nobody will consume (their snapshots may already be
      // released by an unwinding caller).
      if (stop_) return;
      seq = claimed_++;
      job = std::move(ring_[seq % ring_.size()].job);
    }
    Result result = build(std::move(job), seq);
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = ring_[seq % ring_.size()];
      slot.result = std::move(result);
      slot.ready = true;
      ++built_;
    }
    result_ready_.notify_all();
  }
}

void BatchPipeline::submit(graph::TargetBatch roots, util::Rng rng,
                           AdaptiveSampler* sampler_snapshot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TASER_CHECK_MSG(submitted_ - consumed_ < ring_.size(),
                    "BatchPipeline ring full: all " << ring_.size() << " slots (depth "
                        << depth() << ") in flight — consume with next() before "
                        "submitting deeper");
    Slot& slot = ring_[submitted_ % ring_.size()];
    slot.job = Job{std::move(roots), rng, sampler_snapshot};
    slot.ready = false;
    ++submitted_;
  }
  job_ready_.notify_one();
}

BatchPipeline::Prepared BatchPipeline::next() {
  std::unique_lock<std::mutex> lock(mu_);
  TASER_CHECK_MSG(submitted_ > consumed_, "BatchPipeline::next() with nothing submitted");
  const std::uint64_t seq = consumed_;
  Slot& slot = ring_[seq % ring_.size()];
  Result result;
  if (workers_.empty()) {
    // Depth 0: the caller builds, on the same slot context a worker
    // would use, so inline runs are bit-identical to worker ones.
    Job job = std::move(slot.job);
    ++claimed_;
    ++built_;
    ++consumed_;
    lock.unlock();
    result = build(std::move(job), seq);
  } else {
    // Builds may complete out of order under P > 1 workers; batch seq is
    // ready exactly when its own slot is.
    {
      obs::TraceSpan wait_span(build_obs().wait, seq);
      result_ready_.wait(lock, [&slot] { return slot.ready; });
    }
    result = std::move(slot.result);
    slot.ready = false;
    ++consumed_;
    lock.unlock();
  }
  // Consumption-order fold, even for a failed build: its partial deltas
  // keep the shared ledger consistent.
  pool_.fold(result.side);
  if (result.err) std::rethrow_exception(result.err);
  return std::move(result.prep);
}

std::size_t BatchPipeline::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(submitted_ - consumed_);
}

std::uint64_t BatchPipeline::built_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

}  // namespace taser::core
