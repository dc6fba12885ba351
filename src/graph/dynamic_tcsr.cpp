#include "graph/dynamic_tcsr.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace taser::graph {

/// Marks the graph writer-busy for the scope of one mutation. A second
/// concurrent writer (or re-entrant mutation) trips the exchange check —
/// the single-writer half of the contract, asserted, not assumed.
class DynamicTCSR::WriteScope {
 public:
  explicit WriteScope(DynamicTCSR& g) : g_(g) {
    TASER_CHECK_MSG(!g_.frozen(),
                    "mutation of a frozen DynamicTCSR — this replica is a "
                    "published (or retirable) epoch; thaw it via the epoch "
                    "manager's publish path only");
    TASER_CHECK_MSG(!g_.writing_.exchange(true, std::memory_order_acq_rel),
                    "concurrent DynamicTCSR mutation — the streaming graph is "
                    "single-writer by contract");
  }
  ~WriteScope() {
    // Release ordering: the version bump below publishes the mutation.
    g_.version_.fetch_add(1, std::memory_order_release);
    g_.writing_.store(false, std::memory_order_release);
  }
  WriteScope(const WriteScope&) = delete;
  WriteScope& operator=(const WriteScope&) = delete;

 private:
  DynamicTCSR& g_;
};

DynamicTCSR::DynamicTCSR(const EventLog& log, int shard_id, int num_shards)
    : log_(log),
      shard_id_(shard_id),
      num_shards_(num_shards),
      base_(log.base(), shard_id, num_shards),
      delta_(static_cast<std::size_t>(log.num_nodes())),
      applied_through_(static_cast<EdgeId>(log.base().num_edges())) {
  TASER_CHECK_MSG(num_shards >= 1 && shard_id >= 0 && shard_id < num_shards,
                  "DynamicTCSR shard (" << shard_id << ", " << num_shards
                                        << "): shard_id must lie in [0, num_shards)");
}

int DynamicTCSR::apply_event(EdgeId eid) {
  TASER_CHECK_MSG(eid == applied_through_,
                  "apply_event: row " << eid << " out of order — this shard has "
                      "replayed through " << applied_through_
                      << "; slices must be driven gaplessly in log order "
                         "(apply_slice_to_shard clamps retries for you)");
  const NodeId u = log_.src(eid);
  const NodeId v = log_.dst(eid);
  const bool own_u = shard_of(u, num_shards_) == shard_id_;
  const bool own_v = shard_of(v, num_shards_) == shard_id_;
  // Unowned rows skip the writer guard entirely: that is what lets every
  // shard of a container scan the same log slice concurrently, each
  // touching only its own state. They still advance the replay watermark
  // (a plain shard-local member — only this shard's applier thread reads
  // or writes it).
  if (!own_u && !own_v) {
    applied_through_ = eid + 1;
    return 0;
  }
  WriteScope write(*this);
  const Time t = log_.ts(eid);
  if (own_u) delta_[static_cast<std::size_t>(u)].push_back({t, v, eid});
  if (own_v) delta_[static_cast<std::size_t>(v)].push_back({t, u, eid});
  ++delta_edge_count_;
  applied_through_ = eid + 1;
  return (own_u ? 1 : 0) + (own_v ? 1 : 0);
}

void DynamicTCSR::compact() {
  WriteScope write(*this);
  if (delta_edge_count_ == 0) return;
  // Merge, not rebuild: node v's new list is its base segment followed by
  // its delta list — the merged view itself, so compaction is invisible
  // to queries. One sequential pass over this graph's own slots; the
  // event log is never read. The base holds the directions of log rows
  // [0, b) and the delta those of rows [b, applied) in row order, which
  // is TCSR's fill order, so once every log row is applied (as after each
  // catch-up) the arrays equal TCSR(log, shard_id, num_shards) byte for
  // byte.
  const auto n = static_cast<std::size_t>(num_nodes());
  std::vector<std::int64_t> indptr(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    indptr[v + 1] = indptr[v] + base_.degree(static_cast<NodeId>(v)) +
                    static_cast<std::int64_t>(delta_[v].size());
  const auto slots = static_cast<std::size_t>(indptr[n]);
  std::vector<NodeId> nbr(slots);
  std::vector<Time> ts(slots);
  std::vector<EdgeId> eid(slots);
  std::size_t o = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto b0 = static_cast<std::size_t>(base_.begin(static_cast<NodeId>(v)));
    const auto b1 = static_cast<std::size_t>(base_.end(static_cast<NodeId>(v)));
    std::copy(base_.nbr().begin() + b0, base_.nbr().begin() + b1, nbr.begin() + o);
    std::copy(base_.nbr_ts().begin() + b0, base_.nbr_ts().begin() + b1, ts.begin() + o);
    std::copy(base_.nbr_eid().begin() + b0, base_.nbr_eid().begin() + b1, eid.begin() + o);
    o += b1 - b0;
    for (const DeltaEntry& d : delta_[v]) {
      nbr[o] = d.nbr;
      ts[o] = d.ts;
      eid[o] = d.eid;
      ++o;
    }
    delta_[v].clear();  // capacity retained for the next wave
  }
  base_ = TCSR(std::move(indptr), std::move(nbr), std::move(ts), std::move(eid));
  delta_edge_count_ = 0;
}

std::int64_t DynamicTCSR::pivot_count(NodeId v, Time t) const {
  check_node(v);
  const std::int64_t in_base = base_.pivot(v, t) - base_.begin(v);
  const auto& d = delta_[static_cast<std::size_t>(v)];
  // Delta timestamps all >= the node's base timestamps, so the merged
  // prefix below t is the base prefix plus the delta prefix.
  const auto it = std::lower_bound(
      d.begin(), d.end(), t,
      [](const DeltaEntry& e, Time when) { return e.ts < when; });
  return in_base + (it - d.begin());
}

}  // namespace taser::graph
