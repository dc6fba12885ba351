#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "graph/dataset.h"
#include "util/check.h"

namespace taser::graph {

/// The serving event log: a base Dataset plus every streamed event row
/// (src, dst, ts and its edge-feature row), each stored once and read by
/// both replicas of a GraphEpochManager. EdgeIds are dense and global:
/// base rows are [0, base().num_edges()), streamed row i is
/// base().num_edges() + i.
///
/// Streamed rows live in chunks of kChunkRows rows that hang off a
/// directory allocated once at construction, so no chunk and no directory
/// entry ever moves: a row keeps its address from append to teardown, and
/// an append never copies an earlier row. Chunks and the directory are
/// allocated without value-initialisation, so a chunk's pages are first
/// touched when rows land in them and resident memory tracks the rows
/// actually stored.
///
/// Contract:
///   - One writer at a time: callers serialize `append` (the epoch
///     manager appends under its mutex, from any producer thread); a
///     second append overlapping the first throws.
///   - A row never changes once written.
///   - Readers touch only rows below a watermark the writer published to
///     them through a happens-before edge (the epoch manager's mutex, for
///     serving), so rows need no atomics. The row count is atomic only so
///     that the per-row bounds checks (TASER_DCHECK) never race the writer.
///   - `append` validates the row (node range, time order, EdgeId range)
///     before any state changes, so a rejected row leaves the log as it was.
class EventLog {
  static constexpr int kChunkBits = 12;

 public:
  /// Streamed rows per chunk.
  static constexpr std::int64_t kChunkRows = std::int64_t{1} << kChunkBits;
  /// Rows the log can hold: EdgeIds are int32 and a replay watermark is
  /// one past a row, so the last row id is INT32_MAX - 1.
  static constexpr std::int64_t kMaxRows = std::numeric_limits<EdgeId>::max();

  /// Takes the base rows by value; they stay rows [0, base().num_edges()).
  explicit EventLog(Dataset base);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The base dataset: dims, node features and the base rows. Never
  /// changes after construction.
  const Dataset& base() const { return base_; }
  std::int64_t num_nodes() const { return base_.num_nodes; }
  std::int64_t edge_feat_dim() const { return base_.edge_feat_dim; }
  /// Rows written, base included.
  std::int64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Appends one event row and returns its EdgeId. `edge_feat` points at
  /// edge_feat_dim() floats, or is null for a zero feature row. Rejects
  /// (throws, changing nothing) an out-of-range node, a time before the
  /// latest row's (events arrive in time order; an equal time is in
  /// order) and a row past kMaxRows.
  EdgeId append(NodeId u, NodeId v, Time t, const float* edge_feat = nullptr);

  NodeId src(EdgeId e) const {
    dcheck_row(e);
    return e < base_rows_ ? base_.src[static_cast<std::size_t>(e)] : chunk(e).src[slot(e)];
  }
  NodeId dst(EdgeId e) const {
    dcheck_row(e);
    return e < base_rows_ ? base_.dst[static_cast<std::size_t>(e)] : chunk(e).dst[slot(e)];
  }
  Time ts(EdgeId e) const {
    dcheck_row(e);
    return e < base_rows_ ? base_.ts[static_cast<std::size_t>(e)] : chunk(e).ts[slot(e)];
  }
  /// Row e's edge_feat_dim() floats.
  const float* edge_feat(EdgeId e) const {
    dcheck_row(e);
    return e < base_rows_ ? base_.edge_feat(e)
                          : chunk(e).feats.get() +
                                slot(e) * static_cast<std::size_t>(base_.edge_feat_dim);
  }

 private:
  struct Chunk {
    Time ts[kChunkRows];
    NodeId src[kChunkRows];
    NodeId dst[kChunkRows];
    std::unique_ptr<float[]> feats;  ///< [kChunkRows x edge_feat_dim]; null at dim 0
  };

  const Chunk& chunk(EdgeId e) const {
    return *dir_[static_cast<std::size_t>((e - base_rows_) >> kChunkBits)];
  }
  std::size_t slot(EdgeId e) const {
    return static_cast<std::size_t>((e - base_rows_) & (kChunkRows - 1));
  }
  void dcheck_row(EdgeId e) const {
    TASER_DCHECK_MSG(e >= 0 && e < size(),
                     "EventLog: row " << e << " out of range [0, " << size() << ")");
  }

  Dataset base_;
  std::int64_t base_rows_ = 0;
  /// Chunk i holds streamed rows [i * kChunkRows, (i + 1) * kChunkRows).
  /// Sized once for kMaxRows and never reallocated; an entry is set when
  /// its chunk's first row is appended and never read before.
  std::unique_ptr<Chunk*[]> dir_;
  std::atomic<std::int64_t> size_{0};
  std::atomic<bool> appending_{false};  ///< an append is in progress
  Time last_time_;  ///< the latest row's time (-inf for an empty log), writer-side
};

}  // namespace taser::graph
