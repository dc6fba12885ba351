#pragma once

#include <memory>
#include <string>

#include "cache/feature_store.h"
#include "cache/gpu_cache.h"

namespace taser::cache {

/// Where mini-batch features come from. The trainer is agnostic: the
/// baseline slices everything from host RAM (PCIe bulk copies), the
/// cached variant serves hot edge rows from simulated VRAM (Table III's
/// "+X% Cache" rows).
class FeatureSource {
 public:
  virtual ~FeatureSource() = default;
  virtual void gather_edges(const std::vector<EdgeId>& ids, float* out) = 0;
  virtual void gather_nodes(const std::vector<NodeId>& ids, float* out) = 0;
  virtual void end_epoch() {}
  virtual std::string name() const = 0;
  /// The cache behind this source, when there is one (benches read stats).
  virtual GpuFeatureCache* cache() { return nullptr; }
};

/// Baseline: every row sliced on the host and shipped over PCIe.
class PlainFeatureSource : public FeatureSource {
 public:
  PlainFeatureSource(const graph::Dataset& data, gpusim::Device& device)
      : store_(data, device) {}
  /// Serving: rows from an event log (HostFeatureStore's log binding).
  PlainFeatureSource(const graph::EventLog& log, gpusim::Device& device)
      : store_(log, device) {}

  void gather_edges(const std::vector<EdgeId>& ids, float* out) override {
    store_.gather_edge_feats(ids, out);
  }
  void gather_nodes(const std::vector<NodeId>& ids, float* out) override {
    store_.gather_node_feats(ids, out);
  }
  std::string name() const override { return "ram"; }

 private:
  HostFeatureStore store_;
};

/// TASER: edge rows via the dynamic GPU cache (Algorithm 3), node rows
/// VRAM-resident as in the paper.
class CachedFeatureSource : public FeatureSource {
 public:
  CachedFeatureSource(const graph::Dataset& data, gpusim::Device& device,
                      double cache_ratio, double epsilon = 0.5, std::uint64_t seed = 9)
      : store_(data, device), cache_(data, device, cache_ratio, epsilon, seed) {}

  void gather_edges(const std::vector<EdgeId>& ids, float* out) override {
    cache_.gather_edge_feats(ids, out);
  }
  void gather_nodes(const std::vector<NodeId>& ids, float* out) override {
    store_.gather_node_feats(ids, out);
  }
  void end_epoch() override { cache_.end_epoch(); }
  std::string name() const override { return "vram-cache"; }
  GpuFeatureCache* cache() override { return &cache_; }

 private:
  HostFeatureStore store_;
  GpuFeatureCache cache_;
};

/// Per-builder-slot facade for the multi-builder prefetch pool
/// (core::BuilderPool): serves the SAME feature content as the shared
/// source — including the shared GpuFeatureCache's cached set, which is
/// immutable intra-epoch — but accounts simulated transfer/gather time on
/// the slot's Device. Cache hits and misses go straight to the shared
/// cache's books: they are integer sums, so they need no
/// consumption-order fold to stay deterministic however builds
/// interleave across workers. Does NOT expose cache(): epoch-end
/// replacement must go through the shared source exactly once.
class SlotFeatureSource : public FeatureSource {
 public:
  SlotFeatureSource(FeatureSource& shared, const graph::Dataset& data,
                    gpusim::Device& slot_device)
      : shared_cache_(shared.cache()), store_(data, slot_device),
        device_(slot_device) {}

  void gather_edges(const std::vector<EdgeId>& ids, float* out) override {
    if (shared_cache_) {
      shared_cache_->gather_edge_feats_onto(ids, out, device_);
    } else {
      store_.gather_edge_feats(ids, out);
    }
  }
  void gather_nodes(const std::vector<NodeId>& ids, float* out) override {
    store_.gather_node_feats(ids, out);
  }
  std::string name() const override {
    return shared_cache_ ? "vram-cache.slot" : "ram.slot";
  }

 private:
  GpuFeatureCache* shared_cache_;  ///< null on the plain (RAM) path
  HostFeatureStore store_;
  gpusim::Device& device_;
};

}  // namespace taser::cache
