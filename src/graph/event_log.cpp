#include "graph/event_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace taser::graph {

EventLog::EventLog(Dataset base)
    : base_(std::move(base)),
      base_rows_(base_.num_edges()),
      last_time_(base_.ts.empty() ? -std::numeric_limits<Time>::infinity()
                                  : base_.ts.back()) {
  TASER_CHECK_MSG(base_rows_ <= kMaxRows, "EventLog: " << base_rows_
                                              << " base rows exceed the EdgeId range ("
                                              << kMaxRows << " rows)");
  const std::int64_t max_chunks = (kMaxRows - base_rows_ + kChunkRows - 1) / kChunkRows;
  // For overwrite: the directory's pages, too, stay untouched until
  // chunks are added.
  dir_ = std::make_unique_for_overwrite<Chunk*[]>(static_cast<std::size_t>(max_chunks));
  size_.store(base_rows_, std::memory_order_release);
}

EventLog::~EventLog() {
  const std::int64_t chunks = (size() - base_rows_ + kChunkRows - 1) >> kChunkBits;
  for (std::int64_t i = 0; i < chunks; ++i) delete dir_[static_cast<std::size_t>(i)];
}

EdgeId EventLog::append(NodeId u, NodeId v, Time t, const float* edge_feat) {
  TASER_CHECK_MSG(!appending_.exchange(true, std::memory_order_acquire),
                  "concurrent EventLog::append — the log has one writer");
  struct WriterScope {
    std::atomic<bool>& flag;
    ~WriterScope() { flag.store(false, std::memory_order_release); }
  } writer{appending_};
  const std::int64_t e = size_.load(std::memory_order_relaxed);  // the writer's own count
  TASER_CHECK_MSG(e < kMaxRows, "EventLog::append: the log holds " << e
                                    << " rows, the EdgeId range's limit");
  TASER_CHECK_MSG(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes(),
                  "EventLog::append(" << u << ", " << v << "): node id out of range [0, "
                                      << num_nodes() << ")");
  TASER_CHECK_MSG(t >= last_time_, "EventLog::append at t="
                                       << t << " regresses behind the latest row t="
                                       << last_time_ << " — events must arrive in time order");
  const std::int64_t i = e - base_rows_;
  if ((i & (kChunkRows - 1)) == 0) {
    // Default-initialised: no page of the new chunk is written before its
    // rows land.
    auto fresh = std::make_unique_for_overwrite<Chunk>();
    if (edge_feat_dim() > 0)
      fresh->feats = std::make_unique_for_overwrite<float[]>(
          static_cast<std::size_t>(kChunkRows * edge_feat_dim()));
    dir_[static_cast<std::size_t>(i >> kChunkBits)] = fresh.release();
  }
  Chunk& c = *dir_[static_cast<std::size_t>(i >> kChunkBits)];
  const auto k = static_cast<std::size_t>(i & (kChunkRows - 1));
  c.src[k] = u;
  c.dst[k] = v;
  c.ts[k] = t;
  if (edge_feat_dim() > 0) {
    const auto d = static_cast<std::size_t>(edge_feat_dim());
    float* row = c.feats.get() + k * d;
    if (edge_feat != nullptr) {
      std::memcpy(row, edge_feat, d * sizeof(float));
    } else {
      std::fill_n(row, d, 0.f);
    }
  }
  last_time_ = t;
  size_.store(e + 1, std::memory_order_release);
  return static_cast<EdgeId>(e);
}

}  // namespace taser::graph
