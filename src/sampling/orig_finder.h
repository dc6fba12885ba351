#pragma once

#include "gpusim/device.h"
#include "sampling/neighbor_finder.h"

namespace taser::sampling {

/// Faithful stand-in for the original TGAT/GraphMixer Python neighbor
/// finder: strictly sequential, re-materialises the candidate
/// neighborhood with fresh allocations on every query, and filters the
/// *entire* adjacency list by timestamp instead of binary-searching a
/// sorted prefix. This is the Fig. 1 / Fig. 3(a) baseline.
///
/// Being compiled C++, the functional execution is ~100x faster than the
/// interpreted original, which would silently erase the paper's
/// motivation. When a Device is supplied, an *interpreter-overhead
/// model* is therefore accounted on its ledger: ~5 µs of Python call
/// overhead per query plus ~100 ns per neighbor visited. The constants
/// are calibrated against the paper's own Fig. 1 numbers (Wikipedia,
/// n=10: 40.3 s NF over ≈5.2 M queries at average degree 34, i.e.
/// ≈7.8 µs per query; the model gives 5 µs + 34 × 100 ns = 8.4 µs).
///
/// Draws come from one sequential Rng seeded at construction. Training
/// builds reseed it per batch (begin_build) from (seed, epoch, seq), so
/// replicas reproduce each other's streams; a finder that never calls
/// begin_build keeps drawing from its constructor stream.
class OrigNeighborFinder : public NeighborFinder {
 public:
  explicit OrigNeighborFinder(const graph::TCSR& graph, std::uint64_t seed = 1,
                              gpusim::Device* device = nullptr)
      : graph_(graph), seed_(seed), rng_(seed), device_(device) {}

  void sample_into(const TargetBatch& targets, std::int64_t budget, FinderPolicy policy,
                   SampledNeighbors& out) override;

  std::string name() const override { return "orig-cpu"; }

  /// Multi-builder replication: the replica shares the graph, seed and
  /// epoch count, and accounts its interpreter overhead on `device`.
  std::unique_ptr<NeighborFinder> clone_for(gpusim::Device* device) override {
    auto replica = std::make_unique<OrigNeighborFinder>(graph_, seed_, device);
    replica->epoch_ = epoch_;
    return replica;
  }
  void begin_epoch() override { ++epoch_; }
  /// The build's stream is a pure function of (seed, epoch, seq): every
  /// hop of the build draws from it in order.
  void begin_build(std::uint64_t seq, int num_hops) override {
    (void)num_hops;
    rng_.reseed(util::mix_stream_key(util::mix_stream_key(seed_, epoch_), seq));
  }

  static constexpr double kInterpPerQueryUs = 5.0;
  static constexpr double kInterpPerNeighborNs = 100.0;

 private:
  const graph::TCSR& graph_;
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
  util::Rng rng_;
  gpusim::Device* device_;
};

}  // namespace taser::sampling
