#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/tcsr.h"
#include "graph/types.h"
#include "util/rng.h"

namespace taser::gpusim {
class Device;
}

namespace taser::sampling {

using graph::EdgeId;
using graph::NodeId;
using graph::TargetBatch;
using graph::Time;

/// Static sampling policy of a neighbor finder (paper §II-A plus the
/// TGAT inverse-timespan heuristic discussed in §I/§II-C).
enum class FinderPolicy { kUniform, kMostRecent, kInverseTimespan };

const char* to_string(FinderPolicy policy);

/// Result of one neighbor-finding call: a dense [num_targets x budget]
/// block. Slots beyond a target's `count` are padded with kInvalidNode /
/// kInvalidEdge and time 0.
struct SampledNeighbors {
  std::int64_t num_targets = 0;
  std::int64_t budget = 0;
  std::vector<NodeId> nbr;
  std::vector<Time> ts;
  std::vector<EdgeId> eid;
  std::vector<std::int32_t> count;  ///< valid entries per target

  /// Re-shapes and re-initialises the block (all slots invalid, counts
  /// zero). Reuses existing capacity: in steady state (same targets ×
  /// budget every batch) this performs no heap allocation, which is what
  /// lets callers recycle one SampledNeighbors across batches.
  void resize(std::int64_t targets, std::int64_t budget_per_target);

  std::int64_t slot(std::int64_t target, std::int64_t j) const {
    return target * budget + j;
  }
  /// Bytes a CPU finder must ship to the device for this result
  /// (neighbor id + timestamp + edge id per slot).
  std::uint64_t payload_bytes() const {
    return static_cast<std::uint64_t>(num_targets * budget) *
           (sizeof(NodeId) + sizeof(Time) + sizeof(EdgeId));
  }
};

/// Interface shared by the three finder generations (original / TGL CPU /
/// TASER GPU). Implementations must enforce the strict time restriction
/// tu < t and sample without replacement under kUniform.
class NeighborFinder {
 public:
  virtual ~NeighborFinder() = default;

  /// Declares the start of a new root mini-batch whose maximum root
  /// timestamp is `batch_time`. Finders built on monotone snapshot
  /// pointers (TGL) enforce chronological order here; all others ignore
  /// it. Trainers call this once per mini-batch before sampling hops.
  virtual void begin_batch(Time batch_time) { (void)batch_time; }

  /// Samples into a caller-provided block. `out` is resized (capacity-
  /// reusing) by the implementation; recycling the same `out` across
  /// batches keeps the hot loop allocation-free for finders that need no
  /// per-query scratch.
  virtual void sample_into(const TargetBatch& targets, std::int64_t budget,
                           FinderPolicy policy, SampledNeighbors& out) = 0;

  /// Convenience wrapper returning a fresh block.
  SampledNeighbors sample(const TargetBatch& targets, std::int64_t budget,
                          FinderPolicy policy) {
    SampledNeighbors out;
    sample_into(targets, budget, policy, out);
    return out;
  }

  virtual std::string name() const = 0;

  // ---- multi-builder prefetch support ---------------------------------
  // The P-worker prefetch ring (core::BuilderPool) replicates the finder
  // once per ring slot so concurrent builds never share finder state. A
  // replicated finder must be able to reproduce, for batch sequence
  // number `seq`, exactly what the single shared finder would have
  // sampled for that batch in a serial build order — that repositioning
  // is what keeps P builders bit-identical to one.

  /// Returns an independent replica sampling from the same graph, with
  /// any device interaction routed to `device` (per-slot simulated-time
  /// ledger). Every training finder (orig, TGL, GPU) replicates; the
  /// default nullptr marks a finder BuilderPool cannot train with (the
  /// serving-side dynamic finder).
  virtual std::unique_ptr<NeighborFinder> clone_for(gpusim::Device* device) {
    (void)device;
    return nullptr;
  }

  /// Epoch boundary for replicas and originals alike: reset monotone
  /// snapshot state (TGL) or capture the per-epoch base of a counter
  /// stream (GPU finder launch counter). Default: nothing to reset.
  virtual void begin_epoch() {}

  /// Positions per-build deterministic state so that the upcoming build
  /// of batch `seq` (0-based within the epoch, `num_hops` sample_into
  /// calls) draws exactly the random streams a serial single-finder
  /// build order would give it. Default: stateless finder, no-op.
  virtual void begin_build(std::uint64_t seq, int num_hops) {
    (void)seq;
    (void)num_hops;
  }
};

}  // namespace taser::sampling
