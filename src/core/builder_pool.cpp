#include "core/builder_pool.h"

#include "util/check.h"

namespace taser::core {

BuilderPool::BuilderPool(const graph::Dataset& data, sampling::NeighborFinder& finder,
                         cache::FeatureSource& features, gpusim::Device& device,
                         AdaptiveSampler* sampler, const BuilderConfig& config,
                         std::size_t num_slots)
    : main_device_(device) {
  TASER_CHECK(num_slots >= 1);
  slots_.reserve(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    Slot slot;
    slot.device = std::make_unique<gpusim::Device>(device.spec());
    slot.device->reseed(device.rng_seed());
    slot.finder = finder.clone_for(slot.device.get());
    TASER_CHECK_MSG(slot.finder, "finder " << finder.name() << " cannot be replicated");
    slot.features = std::make_unique<cache::SlotFeatureSource>(features, data,
                                                               *slot.device);
    slot.builder = std::make_unique<BatchBuilder>(data, *slot.finder, *slot.features,
                                                  *slot.device, sampler, config);
    slots_.push_back(std::move(slot));
  }
}

BuilderPool::~BuilderPool() = default;

void BuilderPool::begin_epoch() {
  for (Slot& slot : slots_) {
    // The launch-seed stream is (seed, counter); aligning each slot
    // counter to the shared ledger's makes begin_build's positioning
    // reproduce the serial stream across epochs (the shared counter
    // advances between epochs via fold and any evaluation builds).
    slot.device->set_launch_count(main_device_.launch_count());
    slot.finder->begin_epoch();
  }
}

BatchBuilder& BuilderPool::builder_for(std::uint64_t seq) {
  return *slots_[seq % slots_.size()].builder;
}

void BuilderPool::begin_build(std::uint64_t seq, int num_hops) {
  Slot& slot = slots_[seq % slots_.size()];
  slot.finder->begin_build(seq, num_hops);
  slot.sim_before = slot.device->elapsed();
  slot.launches_before = slot.device->launch_count();
}

BuilderPool::SideState BuilderPool::end_build(std::uint64_t seq) {
  SideState side;
  Slot& slot = slots_[seq % slots_.size()];
  side.sim_delta = {slot.device->elapsed().seconds - slot.sim_before.seconds};
  side.launches = slot.device->launch_count() - slot.launches_before;
  return side;
}

void BuilderPool::fold(const SideState& side) {
  main_device_.account(side.sim_delta);
  main_device_.set_launch_count(main_device_.launch_count() + side.launches);
}

}  // namespace taser::core
