#pragma once

#include <vector>

#include "graph/dataset.h"
#include "graph/event_log.h"
#include "gpusim/device.h"

namespace taser::cache {

using graph::EdgeId;
using graph::NodeId;

/// Host-resident feature matrices with simulated transfer accounting —
/// the *baseline* feature-slicing path of the paper's Table III: every
/// mini-batch slices rows on the CPU and ships them over PCIe. Rows for
/// invalid ids (padding slots) are zero-filled and cost nothing.
class HostFeatureStore {
 public:
  HostFeatureStore(const graph::Dataset& data, gpusim::Device& device)
      : data_(data), device_(device) {}
  /// Serving: edge rows from the event log (base and streamed rows
  /// alike), node rows and dims from its base.
  HostFeatureStore(const graph::EventLog& log, gpusim::Device& device)
      : data_(log.base()), log_(&log), device_(device) {}

  std::int64_t edge_dim() const { return data_.edge_feat_dim; }
  std::int64_t node_dim() const { return data_.node_feat_dim; }

  /// Slices edge-feature rows into `out` ([ids.size() x edge_dim]) and
  /// accounts one bulk H2D transfer for the payload.
  void gather_edge_feats(const std::vector<EdgeId>& ids, float* out);

  /// Node features. The paper keeps node features fully VRAM-resident
  /// (they are small); modeled as a VRAM gather.
  void gather_node_feats(const std::vector<NodeId>& ids, float* out);

  const graph::Dataset& data() const { return data_; }

 private:
  const graph::Dataset& data_;
  const graph::EventLog* log_ = nullptr;  ///< edge rows come from here when set
  gpusim::Device& device_;
};

}  // namespace taser::cache
