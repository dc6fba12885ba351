#pragma once

#include "sampling/neighbor_finder.h"

namespace taser::sampling {

/// Reimplementation of the TGL parallel CPU neighbor finder (Zhou et al.
/// 2022; paper §II-C "Neighbor Finding"). A per-node pointer array tracks
/// the T-CSR prefix visible at the current batch snapshot; because
/// pointers only advance, *batch snapshots must be chronological* — the
/// exact restriction that makes the finder unusable under TASER's
/// randomly re-ordered adaptive mini-batches and motivates the GPU finder
/// (§III-C).
///
/// Usage per training batch: `begin_batch(max_root_time)` (throws if the
/// snapshot regresses), then any number of `sample` calls for that
/// batch's hops; hop-2 targets with earlier timestamps are served by a
/// bounded backward search inside the visible prefix, as TGL does within
/// one batch. Targets beyond the snapshot throw. Within a batch, targets
/// are processed in parallel with OpenMP.
class TglNeighborFinder : public NeighborFinder {
 public:
  TglNeighborFinder(const graph::TCSR& graph, std::uint64_t seed = 1);

  /// Advances the snapshot. `batch_time` must be non-decreasing across
  /// calls until reset().
  void begin_batch(Time batch_time) override;

  /// Samples within the current snapshot. For convenience, auto-begins a
  /// batch at the targets' max time when it is ahead of the snapshot
  /// (so chronological workloads can omit begin_batch).
  void sample_into(const TargetBatch& targets, std::int64_t budget, FinderPolicy policy,
                   SampledNeighbors& out) override;

  std::string name() const override { return "tgl-cpu"; }

  /// Resets pointers to the beginning of time (start of epoch).
  void reset();

  /// Multi-builder replication: replicas own their pointer array and
  /// snapshot clock (ptr advance depends only on the snapshot time, not
  /// on which intermediate batches a replica saw, so a replica that
  /// builds every P-th batch reaches the same visible prefix the shared
  /// finder would). begin_build repositions the per-batch RNG counter to
  /// the value a serial build order gives batch `seq` (one sample_into
  /// per hop). `device` is unused — this is a CPU finder.
  std::unique_ptr<NeighborFinder> clone_for(gpusim::Device* device) override {
    (void)device;
    return std::make_unique<TglNeighborFinder>(graph_, seed_);
  }
  void begin_epoch() override { reset(); }
  void begin_build(std::uint64_t seq, int num_hops) override {
    batch_counter_ = seq * static_cast<std::uint64_t>(num_hops);
  }

 private:
  const graph::TCSR& graph_;
  std::vector<std::int64_t> ptr_;  ///< per-node visible-prefix end
  Time snapshot_time_ = 0;
  std::uint64_t seed_;
  std::uint64_t batch_counter_ = 0;
};

}  // namespace taser::sampling
