#include "serve/epoch_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace taser::serve {

namespace {
/// Epoch-lifecycle span names (lazy: interning locks once).
struct EpochObs {
  obs::SpanName catch_up = obs::intern_span_name("epoch.catch_up");
  obs::SpanName shard_replay = obs::intern_span_name("epoch.shard_replay");
  obs::SpanName compact = obs::intern_span_name("epoch.compact");
  obs::SpanName retire_wait = obs::intern_span_name("epoch.retire_wait");
  obs::SpanName swap = obs::intern_span_name("epoch.swap");
};
const EpochObs& epoch_obs() {
  static const EpochObs o;
  return o;
}
}  // namespace

/// catch_up's shard threads, started once per manager. run(fn) is one
/// wave: fn(0) on the calling thread, fn(s) for s in 1..S-1 on crew
/// thread s, and it returns once every shard has finished. A shard's
/// exception is captured and rethrown after the whole wave (lowest shard
/// first), so no shard is still writing when publish() unwinds. A mutex
/// and two condition variables rather than OpenMP: an idle libgomp team
/// spins, and tsan.supp masks gomp stacks, which would hide this path
/// from TSan.
class GraphEpochManager::ShardCrew {
 public:
  explicit ShardCrew(int num_shards) : errors_(static_cast<std::size_t>(num_shards)) {
    try {
      for (int s = 1; s < num_shards; ++s) threads_.emplace_back([this, s] { work(s); });
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ShardCrew() { stop(); }
  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  void run(const std::function<void(int)>& fn) {
    if (threads_.empty()) {
      fn(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      pending_ = threads_.size();
      ++wave_;
    }
    start_cv_.notify_all();
    try {
      fn(0);
      errors_[0] = nullptr;
    } catch (...) {
      errors_[0] = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
      job_ = nullptr;
    }
    for (const auto& e : errors_)
      if (e) std::rethrow_exception(e);
  }

 private:
  void work(int s) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      start_cv_.wait(lock, [&] { return stop_ || wave_ != seen; });
      if (stop_) return;
      seen = wave_;
      const std::function<void(int)>& fn = *job_;
      lock.unlock();
      std::exception_ptr error;
      try {
        fn(s);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      errors_[static_cast<std::size_t>(s)] = std::move(error);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::mutex mu_;
  std::condition_variable start_cv_;  ///< a wave started, or stop
  std::condition_variable done_cv_;   ///< the last crew shard finished
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t wave_ = 0;
  std::size_t pending_ = 0;  ///< crew shards still running this wave
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< per shard, this wave
  std::vector<std::thread> threads_;
};

GraphEpochManager::GraphEpochManager(graph::Dataset base, EpochConfig config)
    : config_(config),
      log_(std::move(base)),
      books_({"taser.epoch.published", "taser.epoch.compactions"},
             {"taser.epoch.publish_ms"}) {
  TASER_CHECK_MSG(config_.compact_threshold >= 0,
                  "compact_threshold must be >= 0 (got "
                      << config_.compact_threshold << ")");
  TASER_CHECK_MSG(config_.num_shards >= 1,
                  "num_shards must be >= 1 (got " << config_.num_shards << ")");
  TASER_CHECK_MSG(config_.modeled_apply_us >= 0.0,
                  "modeled_apply_us must be >= 0 (got "
                      << config_.modeled_apply_us << ")");
  sides_[0] = std::make_unique<graph::ShardedDynamicTCSR>(log_, config_.num_shards);
  sides_[1] = std::make_unique<graph::ShardedDynamicTCSR>(log_, config_.num_shards);
  // Both replicas start frozen: epoch 0 is the base snapshot, and the
  // write side thaws only inside publish() once it has retired.
  sides_[0]->set_frozen(true);
  sides_[1]->set_frozen(true);
  published_version_[0] = sides_[0]->version();
  published_version_[1] = sides_[1]->version();
  base_edges_ = static_cast<std::uint64_t>(log_.size());
  crew_ = std::make_unique<ShardCrew>(config_.num_shards);
}

GraphEpochManager::~GraphEpochManager() = default;

GraphEpochManager::ReadGuard::~ReadGuard() {
  if (mgr_ != nullptr) mgr_->release(side_);
}

GraphEpochManager::ReadGuard GraphEpochManager::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  const int s = current_;
  ++pins_[s];
  return ReadGuard(this, s, epoch_id_, published_version_[s], sides_[s].get());
}

void GraphEpochManager::release(int side) {
  std::lock_guard<std::mutex> lock(mu_);
  TASER_CHECK_MSG(pins_[side] > 0, "epoch pin underflow on replica " << side);
  if (--pins_[side] == 0) retire_cv_.notify_all();
}

void GraphEpochManager::ingest(graph::NodeId u, graph::NodeId v, graph::Time t,
                               std::vector<float> edge_feat) {
  // Full client-boundary validation here — these checks, then the log's
  // append (node range, time order, EdgeId range), all before any state
  // changes and on the producer's thread: an ingested event must never
  // be the thing that throws later inside publish() (where it would fail
  // the publishing thread, not the producer of the bad event).
  TASER_CHECK_MSG(std::isfinite(t), "streamed event (" << u << ", " << v << ") at t=" << t
                                                       << ": event time must be finite");
  TASER_CHECK_MSG(edge_feat.empty() ||
                      static_cast<std::int64_t>(edge_feat.size()) == edge_feat_dim(),
                  "streamed edge feature row has " << edge_feat.size()
                      << " floats, dataset expects " << edge_feat_dim());
  TASER_FAILPOINT("serve.ingest.apply");
  std::lock_guard<std::mutex> lock(mu_);
  log_.append(u, v, t, edge_feat.empty() ? nullptr : edge_feat.data());
}

std::uint64_t GraphEpochManager::publish() {
  TASER_CHECK_MSG(!publishing_.exchange(true, std::memory_order_acq_rel),
                  "concurrent publish() — publish runs on one thread at a time");
  struct PublishScope {
    std::atomic<bool>& flag;
    ~PublishScope() { flag.store(false, std::memory_order_release); }
  } scope{publishing_};

  int w;
  std::uint64_t target;
  {
    std::unique_lock<std::mutex> lock(mu_);
    target = streamed();
    w = 1 - current_;
    if (applied_[current_] == target) {
      // Nothing unpublished — the current epoch stays. But the *lagging*
      // replica may still be behind: before the PR 7 fix this branch
      // returned unconditionally, so once the stream went quiescent the
      // laggard never caught up on the inter-epoch tail (events above
      // min(applied_)). Catch it up now when it is unpinned (never block
      // a no-op publish on a straggling reader; its pin count can only
      // fall, so the next quiescent publish gets it).
      if (applied_[w] == target || pins_[w] != 0) return epoch_id_;
      lock.unlock();
      catch_up(w, target);
      const std::uint64_t version = sides_[w]->version();
      lock.lock();
      applied_[w] = target;
      published_version_[w] = version;
      return epoch_id_;
    }
    // RCU retirement: the write side may still be pinned by readers that
    // acquired it while it was the current epoch. It is reclaimed for
    // writing only once every one of them has released.
    {
      obs::TraceSpan wait_span(epoch_obs().retire_wait,
                               static_cast<std::uint64_t>(w));
      retire_cv_.wait(lock, [&] { return pins_[w] == 0; });
    }
    TASER_CHECK(pins_[w] == 0);
  }

  util::WallTimer publish_timer;
  catch_up(w, target);
  const std::uint64_t version = sides_[w]->version();

  std::uint64_t epoch;
  {
    obs::TraceSpan swap_span(epoch_obs().swap);
    std::lock_guard<std::mutex> lock(mu_);
    applied_[w] = target;
    published_version_[w] = version;
    current_ = w;
    epoch = ++epoch_id_;
    swap_span.set_tag(epoch);
  }
  books_.add(kPublished);
  books_.observe(kPublishMs, publish_timer.seconds() * 1e3);
  return epoch;
}

void GraphEpochManager::catch_up(int w, std::uint64_t target) {
  // Runs unlocked: the retired side is unreachable for readers (acquire
  // only pins `current_`), and log rows below `target` never change —
  // appends, under mu_ from any thread, land only above them.
  //
  // Fault containment: this function is safe to re-drive after a throw
  // anywhere inside it. The replica re-freezes on every exit path (scope
  // guard), and the replay is idempotent per shard (each shard clamps to
  // its applied_through watermark) — so the engine's ingest loop can
  // simply retry publish() after a fault and converge instead of serving
  // a permanently torn write side.
  TASER_FAILPOINT("serve.epoch.publish");
  // Nested under the engine's serve.publish span (same thread); the
  // crew threads' spans parent to it explicitly across the hop.
  obs::TraceSpan catch_up_span(epoch_obs().catch_up, target);
  const std::uint64_t catch_up_id = catch_up_span.id();
  graph::ShardedDynamicTCSR& g = *sides_[w];
  g.set_frozen(false);
  struct Refreeze {
    graph::ShardedDynamicTCSR& g;
    ~Refreeze() { g.set_frozen(true); }
  } refreeze{g};

  // Replay from the durable watermark: a faulted predecessor may have
  // indexed part of the slice already (per-shard clamps skip it).
  const auto e0 = static_cast<graph::EdgeId>(base_edges_ + applied_[w]);
  const auto e1 = static_cast<graph::EdgeId>(base_edges_ + target);

  // Index the slice into every shard in one crew wave — disjoint node
  // sets, disjoint state. The modeled apply cost (per owned direction)
  // sleeps concurrently across shards, standing in for per-event device
  // work exactly like the engine's modeled_device_ms stands in for
  // forward-pass time.
  crew_->run([&](int s) {
    // Cross-thread parentage: shards 1..S-1 run on crew threads, where
    // the RAII stack can't see catch_up — parent passed explicitly.
    obs::TraceSpan replay_span(epoch_obs().shard_replay,
                               static_cast<std::uint64_t>(s), catch_up_id);
    TASER_FAILPOINT("serve.epoch.shard_replay");
    const std::int64_t directions = g.apply_slice_to_shard(s, e0, e1);
    if (config_.modeled_apply_us > 0.0 && directions > 0) {
      const auto ns = static_cast<std::int64_t>(
          static_cast<double>(directions) * config_.modeled_apply_us * 1e3);
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
  });

  if (config_.compact_threshold > 0 && g.delta_edges() >= config_.compact_threshold) {
    crew_->run([&](int s) {
      obs::TraceSpan compact_span(epoch_obs().compact,
                                  static_cast<std::uint64_t>(s), catch_up_id);
      g.compact_shard(s);
    });
    books_.add(kCompactions);
  }
}

std::uint64_t GraphEpochManager::streamed() const {
  return static_cast<std::uint64_t>(log_.size()) - base_edges_;
}

std::uint64_t GraphEpochManager::unpublished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streamed() - applied_[current_];
}

std::uint64_t GraphEpochManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_id_;
}

std::uint64_t GraphEpochManager::events_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_[current_];
}

std::uint64_t GraphEpochManager::compactions() const {
  return books_.count(kCompactions);
}

std::size_t GraphEpochManager::log_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(streamed() - std::min(applied_[0], applied_[1]));
}

std::int64_t GraphEpochManager::pins(int side) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_[side];
}

}  // namespace taser::serve
