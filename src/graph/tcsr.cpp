#include "graph/tcsr.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace taser::graph {

TCSR::TCSR(const Dataset& dataset) : TCSR(dataset, 0, 1) {}

TCSR::TCSR(const Dataset& dataset, int shard_id, int num_shards) {
  TASER_CHECK_MSG(num_shards >= 1 && shard_id >= 0 && shard_id < num_shards,
                  "TCSR shard (" << shard_id << ", " << num_shards
                                 << "): shard_id must lie in [0, num_shards)");
  num_nodes_ = dataset.num_nodes;
  const std::int64_t e = dataset.num_edges();

  // Counting pass. A direction lands in node x's list iff this shard
  // owns x; at num_shards == 1 every direction is kept (the classic
  // unfiltered construction).
  indptr_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  std::int64_t slots = 0;
  for (std::int64_t i = 0; i < e; ++i) {
    if (shard_of(dataset.src[i], num_shards) == shard_id) {
      ++indptr_[static_cast<std::size_t>(dataset.src[i]) + 1];
      ++slots;
    }
    if (shard_of(dataset.dst[i], num_shards) == shard_id) {
      ++indptr_[static_cast<std::size_t>(dataset.dst[i]) + 1];
      ++slots;
    }
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_nodes_); ++v)
    indptr_[v + 1] += indptr_[v];

  nbr_.resize(static_cast<std::size_t>(slots));
  nbr_ts_.resize(static_cast<std::size_t>(slots));
  nbr_eid_.resize(static_cast<std::size_t>(slots));

  // Fill pass. Events are already chronological, so writing them in edge
  // order leaves every per-node list sorted by timestamp — no per-node
  // sort is needed (this is what makes T-CSR construction linear).
  // Filtering only skips whole directions; the surviving directions keep
  // their relative order, so an owned node's list matches the unfiltered
  // build exactly.
  std::vector<std::int64_t> cursor(indptr_.begin(), indptr_.end() - 1);
  for (std::int64_t i = 0; i < e; ++i) {
    const auto eid = static_cast<EdgeId>(i);
    const NodeId u = dataset.src[i];
    const NodeId v = dataset.dst[i];
    const Time t = dataset.ts[i];
    if (shard_of(u, num_shards) == shard_id) {
      auto& cu = cursor[static_cast<std::size_t>(u)];
      nbr_[static_cast<std::size_t>(cu)] = v;
      nbr_ts_[static_cast<std::size_t>(cu)] = t;
      nbr_eid_[static_cast<std::size_t>(cu)] = eid;
      ++cu;
    }
    if (shard_of(v, num_shards) == shard_id) {
      auto& cv = cursor[static_cast<std::size_t>(v)];
      nbr_[static_cast<std::size_t>(cv)] = u;
      nbr_ts_[static_cast<std::size_t>(cv)] = t;
      nbr_eid_[static_cast<std::size_t>(cv)] = eid;
      ++cv;
    }
  }
}

TCSR::TCSR(std::vector<std::int64_t> indptr, std::vector<NodeId> nbr,
           std::vector<Time> nbr_ts, std::vector<EdgeId> nbr_eid)
    : num_nodes_(static_cast<std::int64_t>(indptr.size()) - 1),
      indptr_(std::move(indptr)),
      nbr_(std::move(nbr)),
      nbr_ts_(std::move(nbr_ts)),
      nbr_eid_(std::move(nbr_eid)) {
  TASER_CHECK_MSG(num_nodes_ >= 0 && indptr_.front() == 0 &&
                      indptr_.back() == static_cast<std::int64_t>(nbr_.size()) &&
                      nbr_ts_.size() == nbr_.size() && nbr_eid_.size() == nbr_.size(),
                  "TCSR: indptr and slot arrays disagree on the slot count");
}

std::int64_t TCSR::pivot(NodeId v, Time t) const {
  const auto first = nbr_ts_.begin() + begin(v);
  const auto last = nbr_ts_.begin() + end(v);
  return std::lower_bound(first, last, t) - nbr_ts_.begin();
}

}  // namespace taser::graph
