#pragma once

#include <functional>
#include <vector>

#include "gpusim/perf_model.h"
#include "util/rng.h"

namespace taser::gpusim {

/// Execution context handed to a kernel, one per block. Kernels are
/// written in a phase style: `for_each_thread` runs the lambda once per
/// thread id with an implicit barrier before and after (the functional
/// equivalent of the code between `__syncthreads()` calls in Algorithm 2
/// of the paper). Within a phase, threads execute sequentially in thread
/// id order, which makes shared-memory updates and atomics deterministic
/// while preserving per-thread work counting.
class BlockCtx {
 public:
  BlockCtx(int block_id, int block_dim, std::uint64_t seed)
      : block_id_(block_id), block_dim_(block_dim), seed_(seed) {}

  int block_id() const { return block_id_; }
  int block_dim() const { return block_dim_; }

  /// Shared-memory scratch: one allocation arena per block, reset when
  /// the block finishes. Returned storage is zero-initialised.
  std::uint32_t* shared_words(std::size_t count) {
    shared_.assign(count, 0);
    stats_.shared_accesses += count;  // cost of the memset
    return shared_.data();
  }

  /// Run `fn(thread_id)` for every thread in the block (barrier-to-barrier
  /// phase).
  void for_each_thread(const std::function<void(int)>& fn) {
    for (int t = 0; t < block_dim_; ++t) fn(t);
  }

  /// Phase executed by thread 0 only (the paper's `if j = 1` step).
  void single_thread(const std::function<void()>& fn) { fn(); }

  /// Deterministic per-thread RNG stream.
  util::Rng thread_rng(int thread_id) const {
    return util::Rng(seed_ ^ (static_cast<std::uint64_t>(block_id_) * 0x9e3779b97f4a7c15ULL) ^
                     (static_cast<std::uint64_t>(thread_id) * 0xd1b54a32d192ed03ULL));
  }

  /// Emulated atomicCAS on a shared-memory word: returns true when the
  /// expected value was seen and swapped.
  bool atomic_cas(std::uint32_t* word, std::uint32_t expected, std::uint32_t desired) {
    ++stats_.atomic_ops;
    if (*word == expected) {
      *word = desired;
      return true;
    }
    return false;
  }

  // ---- work counters (feed the performance model) ---------------------
  void count_instr(std::uint64_t n = 1) { stats_.thread_instructions += n; }
  void count_global_read(std::uint64_t bytes) { stats_.global_read_bytes += bytes; }
  void count_global_write(std::uint64_t bytes) { stats_.global_write_bytes += bytes; }
  void count_shared(std::uint64_t n = 1) { stats_.shared_accesses += n; }

  KernelStats& stats() { return stats_; }

 private:
  int block_id_;
  int block_dim_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> shared_;
  KernelStats stats_;
};

/// Result of one kernel launch: merged work counters and modeled time.
struct LaunchResult {
  KernelStats stats;
  SimDuration time;
};

/// The simulated device. Functionally executes kernels (blocks in
/// parallel on host threads), accounts simulated time in a ledger, and
/// offers transfer primitives that only account time (the caller moves
/// the actual bytes — host memory *is* device memory in the simulation).
class Device {
 public:
  explicit Device(DeviceSpec spec = rtx6000ada()) : model_(spec) {}

  const PerfModel& model() const { return model_; }
  const DeviceSpec& spec() const { return model_.spec(); }

  /// Launches `grid_dim` blocks of `block_dim` threads. `kernel` is
  /// invoked once per block with that block's context.
  LaunchResult launch(int grid_dim, int block_dim,
                      const std::function<void(BlockCtx&)>& kernel);

  /// Transfer / gather accounting. Each returns the modeled duration and
  /// adds it to the ledger.
  SimDuration account_h2d(std::uint64_t bytes);
  SimDuration account_zero_copy(std::uint64_t bytes);
  SimDuration account_vram_gather(std::uint64_t bytes);
  /// Adds an externally-modeled duration (e.g. the interpreter-overhead
  /// model of the original Python neighbor finder) to the ledger.
  SimDuration account(SimDuration d) {
    elapsed_ += d;
    return d;
  }

  /// Total simulated time accumulated on this device.
  SimDuration elapsed() const { return elapsed_; }
  void reset_elapsed() { elapsed_ = {}; }

  /// Reseed the deterministic kernel RNG sequence.
  void reseed(std::uint64_t seed) { seed_ = seed; }
  std::uint64_t rng_seed() const { return seed_; }

  /// Launch-counter plumbing for the multi-builder prefetch pool: every
  /// launch's kernel RNG seed is a function of (rng_seed, launch count),
  /// so a per-slot device can reproduce the exact sampling stream of a
  /// single shared device by positioning its counter at the value the
  /// serial stream would have reached for that batch. The counter value
  /// used by launch k (1-based since construction/reset) is k.
  std::uint64_t launch_count() const { return launch_counter_; }
  void set_launch_count(std::uint64_t count) { launch_counter_ = count; }

 private:
  PerfModel model_;
  SimDuration elapsed_;
  std::uint64_t seed_ = 0x5eed5eed5eedULL;
  std::uint64_t launch_counter_ = 0;
};

}  // namespace taser::gpusim
