#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_builder.h"
#include "obs/metrics.h"

namespace taser::core {

/// Per-ring-slot build contexts for the multi-builder prefetch pipeline.
///
/// The P-worker BatchPipeline needs concurrent builds to touch no shared
/// mutable state, yet stay bit-identical to the one-worker build order.
/// This pool gives every ring slot its own full build context:
///
///   - a private gpusim::Device (same spec and RNG seed as the shared
///     one) so kernel launches and transfer accounting never race;
///   - a NeighborFinder replica (NeighborFinder::clone_for) repositioned
///     per build (begin_build) to reproduce the serial sampling stream
///     for that batch sequence number;
///   - a cache::SlotFeatureSource reading the shared feature content but
///     accounting device time slot-locally;
///   - a BatchBuilder with its own BuilderWorkspace — the zero-alloc
///     steady-state invariant holds per slot.
///
/// Batch `seq` always builds on slot `seq % num_slots()`; the pipeline's
/// ring-capacity bound guarantees batch seq and seq + num_slots are never
/// in flight together, so a slot context is used by one build at a time.
///
/// Determinism: builds themselves are pure given the positioned contexts.
/// The side-state a serial run would accumulate on the shared device —
/// its simulated-time ledger and launch count — is captured per build as
/// a delta (end_build) and folded into the shared device in
/// batch-consumption order (fold), so its ledger after batch k is a
/// function of k alone, independent of worker timing. Cache hits and
/// misses need no fold: every slot gather adds them to the shared cache's
/// books directly, and integer sums do not depend on order. The finder
/// must replicate (clone_for non-null); every training finder does.
class BuilderPool {
 public:
  BuilderPool(const graph::Dataset& data, sampling::NeighborFinder& finder,
              cache::FeatureSource& features, gpusim::Device& device,
              AdaptiveSampler* sampler, const BuilderConfig& config,
              std::size_t num_slots);
  ~BuilderPool();

  BuilderPool(const BuilderPool&) = delete;
  BuilderPool& operator=(const BuilderPool&) = delete;

  std::size_t num_slots() const { return slots_.size(); }

  /// Epoch boundary, called before the epoch's first build: synchronises
  /// every slot device's launch counter to the shared ledger's current
  /// value and lets each slot finder reset / capture its per-epoch base
  /// (NeighborFinder::begin_epoch).
  void begin_epoch();

  BatchBuilder& builder_for(std::uint64_t seq);
  /// The shared device's performance model (every slot device shares its
  /// spec).
  const gpusim::PerfModel& model() const { return main_device_.model(); }

  /// Positions slot `seq % num_slots()` (finder stream, device launch
  /// counter) so its upcoming build samples exactly what the serial
  /// single-builder order would for batch `seq`, and snapshots the slot
  /// ledgers for end_build's delta. Called on the building thread.
  void begin_build(std::uint64_t seq, int num_hops);

  /// Shared-device deltas one build produced on its slot context.
  struct SideState {
    gpusim::SimDuration sim_delta;  ///< slot device ledger growth
    std::uint64_t launches = 0;     ///< slot device launch-count growth
  };

  /// Collects the deltas of the build that just ran for `seq` (same
  /// thread as begin_build). Valid even after a throwing build — partial
  /// deltas keep the shared ledger consistent.
  SideState end_build(std::uint64_t seq);

  /// Folds one build's deltas into the shared device ledger. Callers
  /// invoke this in batch-consumption order — the fixed-order reduction
  /// the determinism contract rests on.
  void fold(const SideState& side);

  /// Books one finished build and its host wall time under
  /// `taser.build.{batches,build_ms}`. Safe from any builder thread.
  void count_build(double build_ms) {
    books_.add(0);
    books_.observe(0, build_ms);
  }

 private:
  struct Slot {
    std::unique_ptr<gpusim::Device> device;
    std::unique_ptr<sampling::NeighborFinder> finder;
    std::unique_ptr<cache::SlotFeatureSource> features;
    std::unique_ptr<BatchBuilder> builder;
    gpusim::SimDuration sim_before;
    std::uint64_t launches_before = 0;
  };

  gpusim::Device& main_device_;
  std::vector<Slot> slots_;
  obs::Scope books_{{"taser.build.batches"}, {"taser.build.build_ms"}};
};

}  // namespace taser::core
