#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adaptive_sampler.h"

namespace taser::core {

/// Fixed-size pool of frozen-θ AdaptiveSampler snapshots backing the
/// depth-K stale-θ prefetch ring (one generalisation step beyond the old
/// hard-coded two-buffer alternation).
///
/// Lifecycle contract:
///  - acquire(live) hands out slots in round-robin submission order,
///    overwriting the slot's parameter values with `live`'s (and copying
///    its generation tag — see AdaptiveSampler::generation()). The slot
///    is "pinned" from acquire until release.
///  - release(snapshot) unpins a slot. The caller must only release after
///    the batch built from the snapshot has finished its sample-loss
///    backward and gradient fold-back — i.e. once no live autograd graph
///    can touch the snapshot's parameters again.
///  - Recycling a still-pinned slot is a hard error (TASER_CHECK): it
///    means the ring ran further ahead than the pool depth and a build or
///    backward could observe torn parameters. Sizing rule: at ring depth
///    K (`prefetch_depth`) the trainer pins at most K + 1 snapshots at
///    once (submit of batch j through fold-back of batch j - K), so a
///    pool of K + 1 slots never trips this.
///  - Debug builds additionally poison a released slot's parameters with
///    quiet NaNs until its next acquire, so any late read through a stale
///    snapshot pointer surfaces as NaNs instead of silently reading the
///    previous batch's θ (`set_poison_on_release` overrides the default,
///    which is on iff NDEBUG is not defined).
class SamplerSnapshotPool {
 public:
  using Factory = std::function<std::unique_ptr<AdaptiveSampler>()>;

  /// Builds `num_slots` snapshot instances via `make` (their initial
  /// parameter values are irrelevant: every acquire overwrites them).
  SamplerSnapshotPool(std::size_t num_slots, const Factory& make);

  /// Pins the next round-robin slot, copies `live`'s parameters (and
  /// generation tag) into it, and returns it. Throws if the slot is
  /// still pinned by an in-flight batch.
  AdaptiveSampler* acquire(const AdaptiveSampler& live);

  /// Unpins a slot previously returned by acquire. `snapshot` must be a
  /// pool member and currently pinned.
  void release(AdaptiveSampler* snapshot);

  std::size_t size() const { return slots_.size(); }
  std::size_t pinned() const;
  std::uint64_t acquires() const { return acquires_; }

  void set_poison_on_release(bool on) { poison_on_release_ = on; }

 private:
  struct Slot {
    std::unique_ptr<AdaptiveSampler> sampler;
    bool pinned = false;
  };
  std::vector<Slot> slots_;
  std::size_t next_ = 0;
  std::uint64_t acquires_ = 0;
  bool poison_on_release_;
};

/// Move-only RAII pin on a SamplerSnapshotPool slot: acquires in the
/// constructor, releases in the destructor (or at an explicit reset()).
/// This is how the trainer holds snapshots — an exception unwinding
/// mid-epoch releases every in-flight pin automatically, so a caller
/// that catches and retries never hits the pool's "recycled while still
/// pinned" check with slots leaked by the failed epoch. Callers still
/// reset() explicitly on the success path, at the exact point the
/// batch's gradient fold-back completes (the release-ordering the
/// determinism contract specifies); the destructor is the unwind safety
/// net, not the primary release site.
class SnapshotLease {
 public:
  SnapshotLease() = default;
  SnapshotLease(SamplerSnapshotPool& pool, const AdaptiveSampler& live)
      : pool_(&pool), snapshot_(pool.acquire(live)) {}
  ~SnapshotLease() { reset(); }

  SnapshotLease(SnapshotLease&& other) noexcept
      : pool_(other.pool_), snapshot_(other.snapshot_) {
    other.pool_ = nullptr;
    other.snapshot_ = nullptr;
  }
  SnapshotLease& operator=(SnapshotLease&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      snapshot_ = other.snapshot_;
      other.pool_ = nullptr;
      other.snapshot_ = nullptr;
    }
    return *this;
  }
  SnapshotLease(const SnapshotLease&) = delete;
  SnapshotLease& operator=(const SnapshotLease&) = delete;

  AdaptiveSampler* get() const { return snapshot_; }
  explicit operator bool() const { return snapshot_ != nullptr; }

  /// Releases the pin now (idempotent).
  void reset() {
    if (snapshot_) pool_->release(snapshot_);
    pool_ = nullptr;
    snapshot_ = nullptr;
  }

 private:
  SamplerSnapshotPool* pool_ = nullptr;
  AdaptiveSampler* snapshot_ = nullptr;
};

}  // namespace taser::core
