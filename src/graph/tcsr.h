#pragma once

#include "graph/dataset.h"

namespace taser::graph {

/// T-CSR (TGL, Zhou et al. 2022): CSR adjacency whose per-node neighbor
/// lists are sorted by edge timestamp ascending. The temporal
/// neighborhood N(v, t) of §II-A is then the prefix [indptr[v], pivot(v,t))
/// found with a binary search — the core primitive of all three neighbor
/// finders (§III-C).
///
/// Edges are inserted in both directions (the standard construction for
/// TGNN link prediction on interaction graphs); `nbr_eid` keeps the
/// originating EdgeId so both directions share the edge feature row.
class TCSR {
 public:
  explicit TCSR(const Dataset& dataset);

  /// Shard-filtered construction: keeps only the adjacency lists of nodes
  /// owned by `shard_id` under `shard_of(v, num_shards)`; unowned nodes
  /// get empty ranges. `indptr` still spans the full node space, so
  /// NodeIds (and the dense global EdgeIds) are unchanged — an owned
  /// node's list is byte-identical to the unfiltered build's list.
  /// (0, 1) is the unfiltered construction.
  TCSR(const Dataset& dataset, int shard_id, int num_shards);

  /// Adopts prebuilt arrays: `indptr` has num_nodes + 1 entries and each
  /// node's slots are already timestamp-ascending. DynamicTCSR::compact
  /// merges its base and delta into these.
  TCSR(std::vector<std::int64_t> indptr, std::vector<NodeId> nbr,
       std::vector<Time> nbr_ts, std::vector<EdgeId> nbr_eid);

  std::int64_t num_nodes() const { return num_nodes_; }

  std::int64_t degree(NodeId v) const {
    return indptr_[static_cast<std::size_t>(v) + 1] - indptr_[static_cast<std::size_t>(v)];
  }

  std::int64_t begin(NodeId v) const { return indptr_[static_cast<std::size_t>(v)]; }
  std::int64_t end(NodeId v) const { return indptr_[static_cast<std::size_t>(v) + 1]; }

  /// First adjacency index in [begin(v), end(v)) whose timestamp is >= t;
  /// neighbors strictly earlier than t live in [begin(v), pivot(v,t)).
  std::int64_t pivot(NodeId v, Time t) const;

  const std::vector<std::int64_t>& indptr() const { return indptr_; }
  const std::vector<NodeId>& nbr() const { return nbr_; }
  const std::vector<Time>& nbr_ts() const { return nbr_ts_; }
  const std::vector<EdgeId>& nbr_eid() const { return nbr_eid_; }

  NodeId nbr_at(std::int64_t i) const { return nbr_[static_cast<std::size_t>(i)]; }
  Time ts_at(std::int64_t i) const { return nbr_ts_[static_cast<std::size_t>(i)]; }
  EdgeId eid_at(std::int64_t i) const { return nbr_eid_[static_cast<std::size_t>(i)]; }

 private:
  std::int64_t num_nodes_ = 0;
  std::vector<std::int64_t> indptr_;
  std::vector<NodeId> nbr_;
  std::vector<Time> nbr_ts_;
  std::vector<EdgeId> nbr_eid_;
};

}  // namespace taser::graph
