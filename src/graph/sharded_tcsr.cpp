#include "graph/sharded_tcsr.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace taser::graph {

ShardedDynamicTCSR::ShardedDynamicTCSR(const EventLog& log, int num_shards)
    : log_(log), num_shards_(num_shards) {
  TASER_CHECK_MSG(num_shards_ >= 1,
                  "ShardedDynamicTCSR: num_shards must be >= 1, got " << num_shards_);
  shards_.reserve(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s)
    shards_.push_back(std::make_unique<DynamicTCSR>(log_, s, num_shards_));
}

std::int64_t ShardedDynamicTCSR::num_edges() const {
  EdgeId rows = shards_.front()->applied_through();
  for (const auto& s : shards_) rows = std::min(rows, s->applied_through());
  return rows;
}

Time ShardedDynamicTCSR::last_time() const {
  const std::int64_t rows = num_edges();
  return rows == 0 ? -std::numeric_limits<Time>::infinity()
                   : log_.ts(static_cast<EdgeId>(rows - 1));
}

std::int64_t ShardedDynamicTCSR::delta_edges() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->delta_edges();
  return total;
}

std::uint64_t ShardedDynamicTCSR::version() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->version();
  return total;
}

bool ShardedDynamicTCSR::writer_active() const {
  for (const auto& s : shards_)
    if (s->writer_active()) return true;
  return false;
}

void ShardedDynamicTCSR::set_frozen(bool frozen) {
  frozen_.store(frozen, std::memory_order_release);
  for (auto& s : shards_) s->set_frozen(frozen);
}

std::int64_t ShardedDynamicTCSR::apply_slice_to_shard(int s, EdgeId e0, EdgeId e1) {
  TASER_CHECK_MSG(!frozen(),
                  "apply_slice_to_shard on a frozen ShardedDynamicTCSR — this "
                  "replica is a published epoch; thaw via the publish path only");
  TASER_CHECK_MSG(s >= 0 && s < num_shards_, "apply_slice_to_shard: shard "
                                                 << s << " out of range [0, "
                                                 << num_shards_ << ")");
  TASER_CHECK_MSG(e0 >= 0 && e1 <= log_.size() && e0 <= e1,
                  "apply_slice_to_shard: slice [" << e0 << ", " << e1
                                                  << ") outside the log of "
                                                  << log_.size() << " rows");
  DynamicTCSR& g = *shards_[static_cast<std::size_t>(s)];
  // Clamp to the shard's replay watermark: re-driving a slice after a
  // mid-replay fault (the epoch manager's publish retry) skips rows this
  // shard already indexed instead of double-applying them.
  std::int64_t directions = 0;
  for (EdgeId e = std::max(e0, g.applied_through()); e < e1; ++e)
    directions += g.apply_event(e);
  return directions;
}

void ShardedDynamicTCSR::compact_shard(int s) {
  TASER_CHECK_MSG(s >= 0 && s < num_shards_,
                  "compact_shard: shard " << s << " out of range [0, "
                                          << num_shards_ << ")");
  shards_[static_cast<std::size_t>(s)]->compact();
}

void ShardedDynamicTCSR::compact() {
  for (int s = 0; s < num_shards_; ++s) compact_shard(s);
}

}  // namespace taser::graph
