#include "cache/feature_store.h"

#include <cstring>

namespace taser::cache {

namespace {

/// Copies the d floats at row_of(ids[i]) into row i of `out` (zeros for
/// padding ids); returns the rows copied. Rows are disjoint, so the
/// gather parallelises across ids with results identical to the serial
/// loop.
template <class RowOf>
std::uint64_t gather_rows(const std::vector<EdgeId>& ids, std::int64_t d, RowOf row_of,
                          float* out) {
  const auto n = static_cast<std::int64_t>(ids.size());
  std::uint64_t rows = 0;
#pragma omp parallel for schedule(static) reduction(+ : rows) if (n > 256)
  for (std::int64_t i = 0; i < n; ++i) {
    float* dst = out + i * d;
    if (ids[static_cast<std::size_t>(i)] == graph::kInvalidEdge) {
      std::memset(dst, 0, static_cast<std::size_t>(d) * sizeof(float));
      continue;
    }
    std::memcpy(dst, row_of(ids[static_cast<std::size_t>(i)]),
                static_cast<std::size_t>(d) * sizeof(float));
    ++rows;
  }
  return rows;
}

}  // namespace

void HostFeatureStore::gather_edge_feats(const std::vector<EdgeId>& ids, float* out) {
  const std::int64_t d = data_.edge_feat_dim;
  if (d == 0) return;
  const std::uint64_t rows =
      log_ != nullptr
          ? gather_rows(ids, d, [this](EdgeId e) { return log_->edge_feat(e); }, out)
          : gather_rows(ids, d, [this](EdgeId e) { return data_.edge_feat(e); }, out);
  const std::uint64_t bytes = rows * static_cast<std::uint64_t>(d) * sizeof(float);
  // Baseline slicing = host gather into a staging buffer + bulk H2D.
  device_.account(device_.model().host_slice_time(bytes));
  device_.account_h2d(bytes);
}

void HostFeatureStore::gather_node_feats(const std::vector<NodeId>& ids, float* out) {
  const std::int64_t d = data_.node_feat_dim;
  if (d == 0) return;
  const auto n = static_cast<std::int64_t>(ids.size());
  std::uint64_t rows = 0;
#pragma omp parallel for schedule(static) reduction(+ : rows) if (n > 256)
  for (std::int64_t i = 0; i < n; ++i) {
    float* dst = out + i * d;
    if (ids[static_cast<std::size_t>(i)] == graph::kInvalidNode) {
      std::memset(dst, 0, static_cast<std::size_t>(d) * sizeof(float));
      continue;
    }
    std::memcpy(dst, data_.node_feat(ids[static_cast<std::size_t>(i)]),
                static_cast<std::size_t>(d) * sizeof(float));
    ++rows;
  }
  device_.account_vram_gather(rows * static_cast<std::uint64_t>(d) * sizeof(float));
}

}  // namespace taser::cache
