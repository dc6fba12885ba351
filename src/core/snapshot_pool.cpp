#include "core/snapshot_pool.h"

#include "util/check.h"

namespace taser::core {

SamplerSnapshotPool::SamplerSnapshotPool(std::size_t num_slots, const Factory& make) {
  TASER_CHECK_MSG(num_slots > 0, "snapshot pool needs at least one slot");
  slots_.reserve(num_slots);
  for (std::size_t i = 0; i < num_slots; ++i) slots_.push_back(Slot{make(), false});
#ifndef NDEBUG
  poison_on_release_ = true;
#else
  poison_on_release_ = false;
#endif
}

AdaptiveSampler* SamplerSnapshotPool::acquire(const AdaptiveSampler& live) {
  Slot& slot = slots_[next_ % slots_.size()];
  TASER_CHECK_MSG(!slot.pinned,
                  "snapshot slot " << next_ % slots_.size() << " recycled while still "
                  "pinned by an in-flight batch — the prefetch ring ran deeper than the "
                  "pool (" << slots_.size() << " slots); grow the pool (it must hold "
                  "prefetch_depth+1 slots) or release each batch's snapshot after its "
                  "gradient fold-back");
  ++next_;
  ++acquires_;
  slot.pinned = true;
  slot.sampler->copy_parameters_from(live);
  return slot.sampler.get();
}

void SamplerSnapshotPool::release(AdaptiveSampler* snapshot) {
  for (auto& slot : slots_) {
    if (slot.sampler.get() != snapshot) continue;
    TASER_CHECK_MSG(slot.pinned, "releasing a snapshot that was never acquired");
    slot.pinned = false;
    // Debug aid: a released slot's values are dead until the next acquire
    // rewrites them. Poisoning turns any late read through a stale
    // pointer into NaNs instead of a silent read of old θ.
    if (poison_on_release_) slot.sampler->poison_parameters();
    return;
  }
  TASER_CHECK_MSG(false, "snapshot does not belong to this pool");
}

std::size_t SamplerSnapshotPool::pinned() const {
  std::size_t n = 0;
  for (const auto& slot : slots_)
    if (slot.pinned) ++n;
  return n;
}

}  // namespace taser::core
