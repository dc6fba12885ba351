// Serving subsystem conformance: streaming ingest/compaction equivalence
// (a graph grown one event at a time is query-identical to one built
// statically), the single-writer/snapshot-read asserts, the no-grad
// inference contract (bitwise-equal to the training-path forward, zero
// tape nodes, flat workspace), epoch-based reclamation (no epoch freed
// while a reader holds it; replicas query-identical across epoch
// boundaries and compactions), keyed per-request sampling streams
// (scores independent of micro-batch composition and worker count), and
// the sharded micro-batching engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "graph/event_log.h"
#include "graph/sharded_tcsr.h"
#include "graph/synthetic.h"
#include "obs/trace.h"
#include "sampling/dynamic_finder.h"
#include "sampling/orig_finder.h"
#include "serve/epoch_manager.h"
#include "serve/inference_session.h"
#include "serve/serving_engine.h"
#include "tensor/counters.h"
#include "tensor/ops.h"
#include "util/failpoint.h"

using namespace taser;
namespace fp = taser::util::failpoints;

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

graph::Dataset small_dataset(std::uint64_t seed = 5) {
  graph::SyntheticConfig cfg;
  cfg.num_src = 40;
  cfg.num_dst = 30;
  cfg.num_edges = 600;
  cfg.edge_feat_dim = 6;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

/// Keeps only the first `keep` events of `full` (features re-sliced).
graph::Dataset prefix_dataset(const graph::Dataset& full, std::int64_t keep) {
  graph::Dataset d = full;
  d.src.resize(static_cast<std::size_t>(keep));
  d.dst.resize(static_cast<std::size_t>(keep));
  d.ts.resize(static_cast<std::size_t>(keep));
  d.edge_feats.resize(static_cast<std::size_t>(keep * d.edge_feat_dim));
  d.train_end = std::min(d.train_end, keep);
  d.val_end = std::min(d.val_end, keep);
  return d;
}

/// Appends one event to `log`, then indexes every log row `g` has not
/// indexed yet into each of its shards: the serial single-writer catch-up
/// the graph-level tests drive (the epoch manager runs it as shard waves).
graph::EdgeId ingest(graph::EventLog& log, graph::ShardedDynamicTCSR& g, graph::NodeId u,
                     graph::NodeId v, graph::Time t, const float* feat = nullptr) {
  const graph::EdgeId eid = log.append(u, v, t, feat);
  for (int s = 0; s < g.num_shards(); ++s) g.apply_slice_to_shard(s, 0, eid + 1);
  return eid;
}

/// Streams events [from, full.num_edges()) of `full` into `log` and `g`,
/// compacting at every index in `compact_at`.
void stream_rest(graph::EventLog& log, graph::ShardedDynamicTCSR& g, const graph::Dataset& full,
                 std::int64_t from, std::initializer_list<std::int64_t> compact_at = {}) {
  for (std::int64_t e = from; e < full.num_edges(); ++e) {
    const float* feat = full.edge_feat_dim > 0 ? full.edge_feat(static_cast<graph::EdgeId>(e))
                                               : nullptr;
    const graph::EdgeId eid = ingest(log, g, full.src[e], full.dst[e], full.ts[e], feat);
    EXPECT_EQ(eid, static_cast<graph::EdgeId>(e));
    for (std::int64_t c : compact_at)
      if (e == c) g.compact();
  }
}

/// Feature row of event e as a vector (empty when the dataset has none).
std::vector<float> feat_row(const graph::Dataset& d, std::int64_t e) {
  if (d.edge_feat_dim == 0) return {};
  const float* f = d.edge_feat(static_cast<graph::EdgeId>(e));
  return std::vector<float>(f, f + d.edge_feat_dim);
}

/// Compares two containers' merged views (any shard counts) list by
/// list, and the log rows each one sees, row by row.
void expect_query_identical(const graph::ShardedDynamicTCSR& a,
                            const graph::ShardedDynamicTCSR& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const graph::EventLog& la = a.log();
  const graph::EventLog& lb = b.log();
  ASSERT_EQ(la.edge_feat_dim(), lb.edge_feat_dim());
  const auto d = static_cast<std::size_t>(la.edge_feat_dim());
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(la.src(e), lb.src(e)) << "row " << e;
    ASSERT_EQ(la.dst(e), lb.dst(e)) << "row " << e;
    ASSERT_EQ(la.ts(e), lb.ts(e)) << "row " << e;
    if (d > 0) {
      ASSERT_EQ(std::memcmp(la.edge_feat(e), lb.edge_feat(e), d * sizeof(float)), 0)
          << "row " << e;
    }
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    for (std::int64_t j = 0; j < a.degree(v); ++j) {
      ASSERT_EQ(a.nbr(v, j), b.nbr(v, j)) << "node " << v << " slot " << j;
      ASSERT_EQ(a.nbr_ts(v, j), b.nbr_ts(v, j)) << "node " << v << " slot " << j;
      ASSERT_EQ(a.nbr_eid(v, j), b.nbr_eid(v, j)) << "node " << v << " slot " << j;
    }
    // Pivot counts at every event timestamp of v (the boundary-sensitive
    // probes: ts < t is strict) plus one past-the-end time.
    for (std::int64_t j = 0; j < a.degree(v); ++j) {
      const graph::Time t = a.nbr_ts(v, j);
      EXPECT_EQ(a.pivot_count(v, t), b.pivot_count(v, t)) << "node " << v;
    }
    EXPECT_EQ(a.pivot_count(v, a.last_time() + 1), b.pivot_count(v, b.last_time() + 1));
  }
}

TEST(DynamicGraph, IncrementalEqualsStaticAcrossCompactions) {
  const graph::Dataset full = small_dataset();
  const std::int64_t cut = full.num_edges() * 2 / 3;

  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);
  graph::EventLog log(prefix_dataset(full, cut));
  graph::ShardedDynamicTCSR grown(log);
  // Two compactions at arbitrary points, plus a tail left in the delta.
  stream_rest(log, grown, full, cut, {cut + 37, cut + 120});
  ASSERT_GT(grown.delta_edges(), 0);

  expect_query_identical(grown, statically_built);

  // Compaction is invisible to queries: fold the rest in and re-compare.
  grown.compact();
  EXPECT_EQ(grown.delta_edges(), 0);
  expect_query_identical(grown, statically_built);
}

TEST(DynamicGraph, DuplicateTimestampAcrossIngestBoundary) {
  graph::Dataset full;
  full.name = "dup-ts";
  full.num_nodes = 4;
  // Three events share t=2; the base/delta split lands inside the tie.
  full.src = {0, 0, 1, 0, 2};
  full.dst = {1, 2, 2, 3, 3};
  full.ts = {1, 2, 2, 2, 3};
  full.train_end = full.val_end = full.num_edges();

  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);
  graph::EventLog log(prefix_dataset(full, 2));
  graph::ShardedDynamicTCSR grown(log);
  stream_rest(log, grown, full, 2);

  expect_query_identical(grown, statically_built);
  // Strictly-earlier semantics at the duplicated timestamp itself.
  EXPECT_EQ(grown.pivot_count(0, 2.0), 1);
  EXPECT_EQ(grown.pivot_count(0, 2.5), 3);
  EXPECT_EQ(grown.pivot_count(2, 2.0), 0);
  EXPECT_EQ(grown.pivot_count(2, 3.0), 2);
}

TEST(DynamicGraph, FinderSamplesIdenticalAtFixedSeed) {
  const graph::Dataset full = small_dataset(7);
  const std::int64_t cut = full.num_edges() / 2;
  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);
  graph::EventLog log(prefix_dataset(full, cut));
  graph::ShardedDynamicTCSR grown(log);
  stream_rest(log, grown, full, cut, {cut + 50});

  // Queries spread over the timeline, including early times served purely
  // from the base and late times reaching into the delta.
  graph::TargetBatch targets;
  for (std::int64_t e = 0; e < full.num_edges(); e += 23)
    targets.push(full.src[e], full.ts[e]);
  targets.push(full.dst[3], full.ts.back() + 1);

  for (auto policy : {sampling::FinderPolicy::kMostRecent,
                      sampling::FinderPolicy::kUniform,
                      sampling::FinderPolicy::kInverseTimespan}) {
    sampling::DynamicNeighborFinder fa(statically_built, 99);
    sampling::DynamicNeighborFinder fb(grown, 99);
    sampling::SampledNeighbors sa, sb;
    fa.begin_batch(full.ts.back() + 1);
    fb.begin_batch(full.ts.back() + 1);
    fa.sample_into(targets, 7, policy, sa);
    fb.sample_into(targets, 7, policy, sb);
    EXPECT_EQ(sa.nbr, sb.nbr) << to_string(policy);
    EXPECT_EQ(sa.ts, sb.ts) << to_string(policy);
    EXPECT_EQ(sa.eid, sb.eid) << to_string(policy);
    EXPECT_EQ(sa.count, sb.count) << to_string(policy);
  }
}

// DynamicNeighborFinder deliberately mirrors OrigNeighborFinder's pick
// semantics (newest-first prefix / partial Fisher–Yates / weighted
// without replacement, one Rng stream in target order). The two
// implementations live apart because the orig finder *models* the
// interpreted baseline (fresh allocations per query are part of what it
// measures); this test is the drift alarm that keeps them in sync.
TEST(DynamicGraph, MatchesOrigFinderSemanticsOnStaticGraph) {
  const graph::Dataset full = small_dataset(21);
  graph::TCSR tcsr(full);
  const graph::EventLog log(full);
  graph::ShardedDynamicTCSR dyn(log);

  graph::TargetBatch targets;
  for (std::int64_t e = 0; e < full.num_edges(); e += 31)
    targets.push(full.src[e], full.ts[e]);

  for (auto policy : {sampling::FinderPolicy::kMostRecent,
                      sampling::FinderPolicy::kUniform,
                      sampling::FinderPolicy::kInverseTimespan}) {
    sampling::OrigNeighborFinder fo(tcsr, 123);
    sampling::DynamicNeighborFinder fd(dyn, 123);
    sampling::SampledNeighbors so, sd;
    fd.begin_batch(full.ts.back());
    fo.sample_into(targets, 6, policy, so);
    fd.sample_into(targets, 6, policy, sd);
    EXPECT_EQ(so.nbr, sd.nbr) << to_string(policy);
    EXPECT_EQ(so.ts, sd.ts) << to_string(policy);
    EXPECT_EQ(so.eid, sd.eid) << to_string(policy);
    EXPECT_EQ(so.count, sd.count) << to_string(policy);
  }
}

TEST(DynamicGraph, SingleWriterSnapshotReadAsserts) {
  const graph::Dataset full = small_dataset(9);
  graph::EventLog log(prefix_dataset(full, full.num_edges() / 2));
  graph::ShardedDynamicTCSR g(log);
  sampling::DynamicNeighborFinder finder(g, 1);
  graph::TargetBatch targets;
  targets.push(full.src[0], full.ts.back());
  sampling::SampledNeighbors out;

  // Sampling without a version snapshot is an error.
  EXPECT_THROW(finder.sample_into(targets, 4, sampling::FinderPolicy::kMostRecent, out),
               std::runtime_error);

  finder.begin_batch(full.ts.back());
  finder.sample_into(targets, 4, sampling::FinderPolicy::kMostRecent, out);

  // A write inside the sampling window trips the version check...
  const std::uint64_t v0 = g.version();
  ingest(log, g, full.src[0], full.dst[0], full.ts.back() + 1);
  EXPECT_GT(g.version(), v0);
  EXPECT_THROW(finder.sample_into(targets, 4, sampling::FinderPolicy::kMostRecent, out),
               std::runtime_error);
  // ...and re-snapshotting after the write recovers.
  finder.begin_batch(full.ts.back() + 1);
  finder.sample_into(targets, 4, sampling::FinderPolicy::kMostRecent, out);

  // Ingest guards: time regression and unknown nodes are hard errors.
  EXPECT_THROW(ingest(log, g, 0, 1, full.ts.front() - 1), std::runtime_error);
  EXPECT_THROW(ingest(log, g, static_cast<graph::NodeId>(g.num_nodes()), 0,
                      full.ts.back() + 2),
               std::runtime_error);
}

TEST(DynamicGraph, FrozenReplicaRejectsMutation) {
  const graph::Dataset data = small_dataset(23);
  graph::EventLog log(data);
  graph::ShardedDynamicTCSR g(log);
  g.set_frozen(true);
  // A published epoch is immutable: both mutation entry points hard-fail
  // instead of racing concurrent readers.
  EXPECT_THROW(ingest(log, g, data.src[0], data.dst[0], data.ts.back() + 1),
               std::runtime_error);
  EXPECT_THROW(g.compact(), std::runtime_error);
  g.set_frozen(false);
  EXPECT_NO_THROW(ingest(log, g, data.src[0], data.dst[0], data.ts.back() + 1));
}

TEST(DynamicGraph, FinderEpochFenceDetectsMutationAfterAcquire) {
  const graph::Dataset data = small_dataset(25);
  graph::EventLog log(data);
  graph::ShardedDynamicTCSR g(log);
  sampling::DynamicNeighborFinder finder(g, 1);

  // Matching expectation passes and is one-shot.
  finder.expect_version(g.version());
  finder.begin_batch(data.ts.back());
  finder.begin_batch(data.ts.back());  // expectation consumed, no re-check

  // A write landing between epoch acquisition (version capture) and
  // sampling hard-fails the next begin_batch.
  const std::uint64_t stale = g.version();
  ingest(log, g, data.src[0], data.dst[0], data.ts.back() + 1);
  finder.expect_version(stale);
  EXPECT_THROW(finder.begin_batch(data.ts.back() + 1), std::runtime_error);
}

// Merged-view accessors take caller-supplied NodeIds straight from the
// request path; an out-of-range id must fail loudly instead of indexing
// delta_ out of bounds. Batch-granularity guards (degree / pivot_count)
// are always on; per-slot guards compile in whenever TASER_DEBUG_CHECKS
// is set (debug builds and the sanitizer CI jobs).
TEST(DynamicGraph, MergedViewAccessorsBoundsChecked) {
  const graph::Dataset data = small_dataset(45);
  const graph::EventLog log(data);
  const graph::ShardedDynamicTCSR g(log);
  const auto n = static_cast<graph::NodeId>(g.num_nodes());

  EXPECT_THROW(g.degree(n), std::runtime_error);
  EXPECT_THROW(g.degree(-1), std::runtime_error);
  EXPECT_THROW(g.pivot_count(n, data.ts.back()), std::runtime_error);
  EXPECT_THROW(g.pivot_count(-1, data.ts.back()), std::runtime_error);
#ifdef TASER_DEBUG_CHECKS
  EXPECT_THROW(g.nbr(n, 0), std::runtime_error);
  EXPECT_THROW(g.nbr_ts(-1, 0), std::runtime_error);
  EXPECT_THROW(g.nbr_eid(n, 0), std::runtime_error);
  const graph::NodeId v = data.src[0];
  ASSERT_GT(g.degree(v), 0);
  EXPECT_THROW(g.nbr(v, g.degree(v)), std::runtime_error);
  EXPECT_THROW(g.nbr(v, -1), std::runtime_error);
#endif
  // In-range queries still work after the failed probes.
  EXPECT_NO_THROW(g.degree(data.src[0]));
}

// ---- hash-partitioned shards -----------------------------------------------

// The tentpole conformance anchor: a sharded container's merged view is
// query-identical to a statically built one-shard container over the same
// log, at every shard count, through streaming ingest and compactions
// (which shards compact independently, at different effective
// thresholds).
TEST(ShardedGraph, MergedViewMatchesUnshardedAcrossShardCounts) {
  const graph::Dataset full = small_dataset(47);
  const std::int64_t cut = full.num_edges() * 2 / 3;
  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR reference(full_log);

  for (int num_shards : {1, 2, 4, 7}) {
    graph::EventLog log(prefix_dataset(full, cut));
    graph::ShardedDynamicTCSR sharded(log, num_shards);
    EXPECT_EQ(sharded.num_shards(), num_shards);
    for (std::int64_t e = cut; e < full.num_edges(); ++e) {
      const float* feat = full.edge_feat_dim > 0
                              ? full.edge_feat(static_cast<graph::EdgeId>(e))
                              : nullptr;
      const graph::EdgeId eid =
          ingest(log, sharded, full.src[e], full.dst[e], full.ts[e], feat);
      EXPECT_EQ(eid, static_cast<graph::EdgeId>(e));  // EdgeIds stay dense + global
      if (e == cut + 100) sharded.compact();
    }
    ASSERT_GT(sharded.delta_edges(), 0) << num_shards << " shards";
    expect_query_identical(sharded, reference);

    sharded.compact();
    EXPECT_EQ(sharded.delta_edges(), 0) << num_shards << " shards";
    expect_query_identical(sharded, reference);
  }
}

TEST(ShardedGraph, ShardOwnershipAndModeGuards) {
  const graph::Dataset data = small_dataset(49);
  graph::EventLog log(data);
  graph::ShardedDynamicTCSR sharded(log, 4);

  // Version is summed over shards and strictly grows per event.
  const std::uint64_t v0 = sharded.version();
  const graph::Time t1 = data.ts.back() + 1;
  ingest(log, sharded, data.src[0], data.dst[0], t1);
  EXPECT_GT(sharded.version(), v0);

  // Every node's list lives in exactly the shard shard_of names, and the
  // routed merged view agrees with asking the owner directly.
  for (graph::NodeId v : {data.src[0], data.dst[0]}) {
    const graph::DynamicTCSR& owner = sharded.shard_for(v);
    EXPECT_EQ(owner.shard_id(), graph::shard_of(v, 4));
    EXPECT_EQ(owner.degree(v), sharded.degree(v));
  }
  // shard_of is total over the node range and degenerates to 0 at S=1.
  for (graph::NodeId v = 0; v < data.num_nodes; ++v) {
    const int s = graph::shard_of(v, 4);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(graph::shard_of(v, 1), 0);
  }

  // Mode guard: a frozen sharded container rejects indexing (published
  // epochs stay immutable at any shard count).
  sharded.set_frozen(true);
  EXPECT_THROW(ingest(log, sharded, data.src[0], data.dst[0], t1 + 2), std::runtime_error);
  sharded.set_frozen(false);
  EXPECT_NO_THROW(ingest(log, sharded, data.src[0], data.dst[0], t1 + 2));
}

template <class T>
void expect_same_bytes(const std::vector<T>& a, const std::vector<T>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
  }
}

/// The rows `g` sees, copied out of its log: the input of a static TCSR
/// build over the log.
graph::Dataset visible_rows(const graph::ShardedDynamicTCSR& g) {
  graph::Dataset d;
  d.num_nodes = g.num_nodes();
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    d.src.push_back(g.log().src(e));
    d.dst.push_back(g.log().dst(e));
    d.ts.push_back(g.log().ts(e));
  }
  return d;
}

void expect_same_csr(const graph::TCSR& got, const graph::TCSR& want) {
  expect_same_bytes(got.indptr(), want.indptr(), "indptr");
  expect_same_bytes(got.nbr(), want.nbr(), "nbr");
  expect_same_bytes(got.nbr_ts(), want.nbr_ts(), "nbr_ts");
  expect_same_bytes(got.nbr_eid(), want.nbr_eid(), "nbr_eid");
}

// Merge compaction folds each node's base segment and delta list into a
// new base without reading the log; the arrays must be exactly those of a
// static build of the log, in every shard at every shard count. The stream
// carries a self-loop (both directions in one list), a run of equal
// timestamps (ties keep row order), compactions right after the self-loop
// and inside the run, and two compactions in a row, the second over an
// empty delta.
TEST(ShardedGraph, CompactionIsByteIdenticalToStaticBuild) {
  graph::Dataset full = small_dataset(53);
  const graph::Time t = full.ts.back() + 1;
  const graph::NodeId a = full.src[0], b = full.dst[0], c = full.dst[1];
  const std::int64_t loop_at = full.num_edges();
  for (const auto& [u, v, dt] : std::vector<std::tuple<graph::NodeId, graph::NodeId, double>>{
           {a, a, 0}, {a, b, 1}, {b, a, 1}, {a, a, 1}, {c, a, 1}, {b, c, 2}}) {
    full.src.push_back(u);
    full.dst.push_back(v);
    full.ts.push_back(t + dt);
    full.edge_feats.resize(full.edge_feats.size() + static_cast<std::size_t>(full.edge_feat_dim),
                           0.5f);
  }
  full.train_end = full.val_end = full.num_edges();
  const std::int64_t cut = full.num_edges() - 120;
  const std::int64_t compact_after[] = {cut + 40, loop_at, loop_at + 2};
  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);

  for (int num_shards : {1, 2, 4, 7}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    graph::EventLog log(prefix_dataset(full, cut));
    graph::ShardedDynamicTCSR sharded(log, num_shards);
    auto expect_static_bases = [&] {
      const graph::Dataset rows = visible_rows(sharded);
      for (int s = 0; s < num_shards; ++s)
        expect_same_csr(sharded.shard(s).base(), graph::TCSR(rows, s, num_shards));
    };
    for (std::int64_t e = cut; e < full.num_edges(); ++e) {
      ingest(log, sharded, full.src[e], full.dst[e], full.ts[e],
             full.edge_feat(static_cast<graph::EdgeId>(e)));
      for (std::int64_t at : compact_after)
        if (e == at) {
          sharded.compact();
          expect_static_bases();
        }
    }
    for (int round = 0; round < 2; ++round) {  // the second folds an empty delta
      sharded.compact();
      EXPECT_EQ(sharded.delta_edges(), 0);
      expect_static_bases();
    }
    expect_query_identical(sharded, statically_built);
  }
}

// ---- the event log ----------------------------------------------------------

/// Feature value j of streamed row e in the log tests (exact in float).
float row_value(std::int64_t e, std::int64_t j) { return static_cast<float>(e * 8 + j); }

// Rows read back bit-equal across chunk boundaries: base rows from the
// base dataset, streamed rows from the chunks, featureless appends as zero
// rows. A row's address never changes as later chunks are added.
TEST(EventLog, RowsReadBackBitEqualAcrossChunkBoundaries) {
  const graph::Dataset data = small_dataset(63);
  graph::EventLog log(data);
  const std::int64_t base = data.num_edges();
  const std::int64_t n = data.num_nodes;
  const std::int64_t d = data.edge_feat_dim;
  ASSERT_GT(d, 0);
  ASSERT_EQ(log.size(), base);

  std::vector<float> feat(static_cast<std::size_t>(d));
  auto append = [&](std::int64_t e) {
    for (std::int64_t j = 0; j < d; ++j) feat[static_cast<std::size_t>(j)] = row_value(e, j);
    const bool featureless = e % 5 == 0;
    return log.append(static_cast<graph::NodeId>(e % n), static_cast<graph::NodeId>(e * 7 % n),
                      data.ts.back() + static_cast<double>(e / 3),
                      featureless ? nullptr : feat.data());
  };
  // One streamed row first: its address is taken before the log grows.
  ASSERT_EQ(append(base), base);
  const float* base_row = log.edge_feat(0);
  const float* first_row = log.edge_feat(static_cast<graph::EdgeId>(base));
  const std::int64_t end = base + 2 * graph::EventLog::kChunkRows + 100;  // 2 boundaries
  for (std::int64_t e = base + 1; e < end; ++e) ASSERT_EQ(append(e), e);
  ASSERT_EQ(log.size(), end);
  EXPECT_EQ(log.ts(static_cast<graph::EdgeId>(log.size() - 1)),
            data.ts.back() + static_cast<double>((end - 1) / 3));

  EXPECT_EQ(log.edge_feat(0), base_row);
  EXPECT_EQ(log.edge_feat(static_cast<graph::EdgeId>(base)), first_row);
  for (std::int64_t e = 0; e < base; ++e) {
    const auto i = static_cast<graph::EdgeId>(e);
    ASSERT_EQ(log.src(i), data.src[static_cast<std::size_t>(e)]);
    ASSERT_EQ(log.dst(i), data.dst[static_cast<std::size_t>(e)]);
    ASSERT_EQ(log.ts(i), data.ts[static_cast<std::size_t>(e)]);
    ASSERT_EQ(std::memcmp(log.edge_feat(i), data.edge_feat(i),
                          static_cast<std::size_t>(d) * sizeof(float)),
              0);
  }
  for (std::int64_t e = base; e < end; ++e) {
    const auto i = static_cast<graph::EdgeId>(e);
    ASSERT_EQ(log.src(i), e % n) << "row " << e;
    ASSERT_EQ(log.dst(i), e * 7 % n) << "row " << e;
    ASSERT_EQ(log.ts(i), data.ts.back() + static_cast<double>(e / 3)) << "row " << e;
    for (std::int64_t j = 0; j < d; ++j)
      ASSERT_EQ(log.edge_feat(i)[j], e % 5 == 0 ? 0.f : row_value(e, j))
          << "row " << e << " feature " << j;
  }
}

// A rejected row changes nothing: the next valid row takes the EdgeId the
// rejected one would have had.
TEST(EventLog, AppendRejectsBadRowsBeforeAnyStateChanges) {
  const graph::Dataset data = small_dataset(65);
  graph::EventLog log(data);
  const graph::Time t = data.ts.back();
  const auto n = static_cast<graph::NodeId>(data.num_nodes);
  EXPECT_THROW(log.append(n, 0, t + 1), std::runtime_error);
  EXPECT_THROW(log.append(0, -1, t + 1), std::runtime_error);
  EXPECT_THROW(log.append(0, 1, t - 1), std::runtime_error);
  EXPECT_THROW(log.append(0, 1, std::nan("")), std::runtime_error);
  EXPECT_EQ(log.size(), data.num_edges());
  EXPECT_EQ(log.ts(static_cast<graph::EdgeId>(log.size() - 1)), t);
  EXPECT_EQ(log.append(0, 1, t), data.num_edges());  // an equal time is in order
#ifdef TASER_DEBUG_CHECKS
  // Per-row reads are bounds-checked in debug and sanitizer builds.
  const auto past = static_cast<graph::EdgeId>(log.size());
  EXPECT_THROW(log.src(past), std::runtime_error);
  EXPECT_THROW(log.ts(-1), std::runtime_error);
  EXPECT_THROW(log.edge_feat(past), std::runtime_error);
#endif
}

// One writer appends across a chunk boundary while a reader gathers the
// rows published to it (the watermark's release/acquire is the only
// ordering, as the epoch manager's mutex is in serving). The TSan CI job
// runs this suite on its own.
TEST(EventLog, ReaderGathersPublishedRowsWhileWriterAppends) {
  const graph::Dataset data = small_dataset(67);
  graph::EventLog log(data);
  const std::int64_t base = data.num_edges();
  const std::int64_t n = data.num_nodes;
  const std::int64_t d = data.edge_feat_dim;
  const std::int64_t end = base + graph::EventLog::kChunkRows + 500;
  std::atomic<std::int64_t> published{base};
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> passes{0};  ///< reader loop passes, for the writer's handshakes
  std::int64_t mismatches = 0, gathers = 0;

  std::thread reader([&] {
    gpusim::Device device;
    cache::PlainFeatureSource features(log, device);
    std::vector<graph::EdgeId> ids;
    std::vector<float> out;
    auto check = [&](std::int64_t lo, std::int64_t hi) {
      ids.clear();
      for (std::int64_t e = lo; e < hi; ++e) ids.push_back(static_cast<graph::EdgeId>(e));
      out.resize(ids.size() * static_cast<std::size_t>(d));
      features.gather_edges(ids, out.data());  // <= 256 ids: no OpenMP team
      ++gathers;
      for (std::int64_t e = lo; e < hi; ++e) {
        const auto i = static_cast<graph::EdgeId>(e);
        if (log.src(i) != e % n || log.ts(i) != data.ts.back() + static_cast<double>(e)) ++mismatches;
        for (std::int64_t j = 0; j < d; ++j)
          if (out[static_cast<std::size_t>((e - lo) * d + j)] != row_value(e, j)) ++mismatches;
      }
    };
    for (;;) {
      const bool last = done.load(std::memory_order_acquire);
      const std::int64_t hi = published.load(std::memory_order_acquire);
      check(std::max(base, hi - 64), hi);  // the newest published rows
      passes.fetch_add(1, std::memory_order_release);
      if (last) break;
    }
    for (std::int64_t lo = base; lo < end; lo += 256) check(lo, std::min(end, lo + 256));
  });

  // The writer waits for the reader to be running before it starts and
  // again just before it opens the second chunk, so the two overlap there.
  auto await_pass = [&] {
    const std::int64_t seen = passes.load(std::memory_order_acquire);
    while (passes.load(std::memory_order_acquire) == seen) std::this_thread::yield();
  };
  std::vector<float> feat(static_cast<std::size_t>(d));
  for (std::int64_t e = base; e < end; ++e) {
    if (e == base || e == base + graph::EventLog::kChunkRows) await_pass();
    for (std::int64_t j = 0; j < d; ++j) feat[static_cast<std::size_t>(j)] = row_value(e, j);
    log.append(static_cast<graph::NodeId>(e % n), static_cast<graph::NodeId>(e * 3 % n),
               data.ts.back() + static_cast<double>(e), feat.data());
    published.store(log.size(), std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(gathers, (end - base) / 256);
}

// ---- epoch-based reclamation ----------------------------------------------

TEST(EpochManager, PublishMakesIngestedEventsVisible) {
  const graph::Dataset full = small_dataset(27);
  const std::int64_t cut = full.num_edges() / 2;
  serve::GraphEpochManager mgr(prefix_dataset(full, cut));

  EXPECT_EQ(mgr.current_epoch(), 0u);
  EXPECT_EQ(mgr.unpublished(), 0u);
  EXPECT_EQ(mgr.publish(), 0u);  // nothing buffered: no-op, same epoch

  // Buffered events stay invisible until publish.
  for (std::int64_t e = cut; e < cut + 10; ++e)
    mgr.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
  EXPECT_EQ(mgr.unpublished(), 10u);
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), cut);
    EXPECT_EQ(g.epoch(), 0u);
  }

  EXPECT_EQ(mgr.publish(), 1u);
  EXPECT_EQ(mgr.unpublished(), 0u);
  EXPECT_EQ(mgr.events_published(), 10u);
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), cut + 10);
    EXPECT_EQ(g.epoch(), 1u);
    EXPECT_EQ(g.graph_version(), g.graph().version());
  }

  // Event validation fails the producer, at ingest time.
  EXPECT_THROW(mgr.ingest(static_cast<graph::NodeId>(mgr.num_nodes()), 0,
                          full.ts.back() + 1),
               std::runtime_error);
  EXPECT_THROW(mgr.ingest(full.src[0], full.dst[0], full.ts.front() - 1),
               std::runtime_error);
  EXPECT_THROW(mgr.ingest(full.src[0], full.dst[0], full.ts.back() + 1,
                          std::vector<float>(3, 0.f)),
               std::runtime_error);
}

TEST(EpochManager, ReplicasQueryIdenticalToStaticAcrossEpochsAndCompactions) {
  const graph::Dataset full = small_dataset(29);
  const std::int64_t cut = full.num_edges() / 3;
  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);

  // Incremental ≡ static must hold at every shard count, S in {1, 2, 4}.
  for (int num_shards : {1, 2, 4}) {
    serve::EpochConfig ec;
    ec.compact_threshold = 64;  // several publish-time compactions on the way
    ec.num_shards = num_shards;
    serve::GraphEpochManager mgr(prefix_dataset(full, cut), ec);

    // Stream the rest in uneven chunks, publishing between them; pins taken
    // and dropped along the way exercise the pin bookkeeping and log trim.
    std::int64_t e = cut;
    const std::int64_t chunks[] = {1, 17, 90, 3, 150, full.num_edges()};
    for (std::int64_t upto : chunks) {
      std::optional<serve::GraphEpochManager::ReadGuard> pin;
      if (upto % 2 == 1) pin.emplace(mgr.acquire());
      for (; e < std::min(upto, full.num_edges()); ++e)
        mgr.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
      pin.reset();
      mgr.publish();
    }
    EXPECT_GE(mgr.compactions(), 1u);
    EXPECT_EQ(mgr.events_published(), static_cast<std::uint64_t>(full.num_edges() - cut));

    // The current epoch equals the statically built graph...
    {
      auto g = mgr.acquire();
      expect_query_identical(g.graph(), statically_built);
    }
    // ...and the other replica (which lags by the final chunk) catches up at
    // the next publish — the fresh current epoch was the laggard a moment
    // ago, and must now be query-identical to a static build of the same
    // extended log.
    graph::EventLog plus_log(full);
    graph::ShardedDynamicTCSR static_plus(plus_log);
    ingest(plus_log, static_plus, full.src[0], full.dst[0], full.ts.back() + 1);
    mgr.ingest(full.src[0], full.dst[0], full.ts.back() + 1);
    mgr.publish();
    {
      auto g = mgr.acquire();
      expect_query_identical(g.graph(), static_plus);
    }
  }
}

// Quiescent-stream convergence (the PR 7 idle-stream retention fix):
// when nothing is buffered, publish() still catches the lagging replica
// up — if it is unpinned — and trims the log, instead of returning
// immediately and retaining the inter-epoch tail forever.
TEST(EpochManager, IdlePublishCatchesUpLaggardAndTrimsLog) {
  const graph::Dataset full = small_dataset(41);
  const std::int64_t cut = full.num_edges() / 2;
  for (int num_shards : {1, 4}) {
    serve::EpochConfig ec;
    ec.num_shards = num_shards;
    serve::GraphEpochManager mgr(prefix_dataset(full, cut), ec);

    for (std::int64_t e = cut; e < cut + 10; ++e)
      mgr.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    EXPECT_EQ(mgr.publish(), 1u);
    // The laggard replica has not applied the batch: the tail is retained.
    EXPECT_EQ(mgr.log_size(), 10u);

    // A quiescent second publish must converge the system — laggard caught
    // up, log empty — WITHOUT bumping the epoch. Before the fix this
    // returned at the has-nothing-to-publish check and the 10 entries (and
    // their feature payloads) were pinned in memory until the next real
    // publish, i.e. forever on an idle stream.
    EXPECT_EQ(mgr.publish(), 1u);
    EXPECT_EQ(mgr.log_size(), 0u);
    EXPECT_EQ(mgr.current_epoch(), 1u);
    expect_query_identical(mgr.side(0), mgr.side(1));

    // A pinned laggard is skipped, not waited on: idle publish() must stay
    // non-blocking (it is called from the serving hot path via drain)...
    {
      auto pin = mgr.acquire();
      mgr.ingest(full.src[cut + 10], full.dst[cut + 10], full.ts.back() + 1);
      EXPECT_EQ(mgr.publish(), 2u);  // flips; `pin` now holds the laggard
      EXPECT_EQ(mgr.publish(), 2u);  // idle + laggard pinned: no-op, no hang
      EXPECT_EQ(mgr.log_size(), 1u);
    }
    // ...and caught up once the straggler releases.
    EXPECT_EQ(mgr.publish(), 2u);
    EXPECT_EQ(mgr.log_size(), 0u);
    expect_query_identical(mgr.side(0), mgr.side(1));
  }
}

// ReadGuard is move-only; a moved-from guard must not release the pin it
// no longer owns (a double-release would let publish() retire an epoch a
// live reader still holds — the exact use-after-free the pin exists to
// prevent).
TEST(EpochManager, ReadGuardMoveDoesNotDoubleRelease) {
  const graph::Dataset data = small_dataset(43);
  serve::GraphEpochManager mgr(data);
  {
    serve::GraphEpochManager::ReadGuard a = mgr.acquire();
    const int side = a.side();
    const std::uint64_t epoch = a.epoch();
    const std::uint64_t version = a.graph_version();
    EXPECT_EQ(mgr.pins(side), 1);

    // A move chain transfers the one pin; it never re-pins or releases.
    serve::GraphEpochManager::ReadGuard b = std::move(a);
    EXPECT_EQ(mgr.pins(side), 1);
    serve::GraphEpochManager::ReadGuard c = std::move(b);
    EXPECT_EQ(mgr.pins(side), 1);

    // The surviving guard carries the full epoch identity.
    EXPECT_EQ(c.side(), side);
    EXPECT_EQ(c.epoch(), epoch);
    EXPECT_EQ(c.graph_version(), version);
    EXPECT_EQ(c.graph().num_nodes(), data.num_nodes);
    // Scope end destroys c, b, a — pins must balance to zero exactly.
  }
  EXPECT_EQ(mgr.pins(0), 0);
  EXPECT_EQ(mgr.pins(1), 0);

  // Moved-from guard dying BEFORE the live one: its destructor must be a
  // no-op while the live guard still holds the pin.
  {
    std::optional<serve::GraphEpochManager::ReadGuard> a(mgr.acquire());
    serve::GraphEpochManager::ReadGuard b = std::move(*a);
    a.reset();
    EXPECT_EQ(mgr.pins(b.side()), 1);
    EXPECT_EQ(b.graph().num_nodes(), data.num_nodes);
  }
  EXPECT_EQ(mgr.pins(0), 0);
  EXPECT_EQ(mgr.pins(1), 0);
}

TEST(EpochManager, EpochRetiresOnlyAfterEveryReaderReleases) {
  const graph::Dataset full = small_dataset(31);
  const std::int64_t cut = full.num_edges() / 2;
  serve::GraphEpochManager mgr(prefix_dataset(full, cut));

  // Pin epoch 0 (replica 0). The first publish writes the *other* replica
  // and must not block.
  std::optional<serve::GraphEpochManager::ReadGuard> pin(mgr.acquire());
  const int pinned_side = pin->side();
  EXPECT_EQ(mgr.pins(pinned_side), 1);

  mgr.ingest(full.src[cut], full.dst[cut], full.ts[cut], feat_row(full, cut));
  EXPECT_EQ(mgr.publish(), 1u);
  // The pinned epoch-0 view is untouched by the publish.
  EXPECT_EQ(pin->graph().num_edges(), cut);
  EXPECT_EQ(pin->graph().version(), pin->graph_version());

  // The second publish needs the pinned replica back — it must block
  // until the straggling reader releases, never reclaim underneath it.
  mgr.ingest(full.src[cut + 1], full.dst[cut + 1], full.ts[cut + 1],
             feat_row(full, cut + 1));
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    mgr.publish();
    published.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load(std::memory_order_acquire))
      << "publish() reclaimed an epoch that a reader still holds";
  EXPECT_EQ(mgr.current_epoch(), 1u);
  EXPECT_EQ(pin->graph().num_edges(), cut);  // still intact

  pin.reset();  // last release retires the epoch
  publisher.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  EXPECT_EQ(mgr.current_epoch(), 2u);
  EXPECT_EQ(mgr.pins(0), 0);
  EXPECT_EQ(mgr.pins(1), 0);
}

// ---- the shard crew ----------------------------------------------------------

/// Threads of this process (Linux /proc), or 0 when it cannot be read.
/// Polls briefly for `want`: a joined thread can linger in the listing for
/// a moment after pthread_join returns.
std::size_t live_threads(std::size_t want = 0) {
  namespace fs = std::filesystem;
  std::size_t n = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::error_code ec;
    n = 0;
    for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
         it.increment(ec))
      ++n;
    if (ec) return 0;
    if (want == 0 || n == want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return n;
}

// A shard that throws mid-replay — on the publishing thread or on a crew
// thread — surfaces from publish() once, after the whole wave; the next
// publish must not see a stale error, and it converges to the static
// graph.
TEST(EpochManager, ShardReplayFaultRethrowsOnceAndRetryConverges) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoint harness compiled out";
  const graph::Dataset full = small_dataset(57);
  const std::int64_t cut = full.num_edges() / 2;
  const graph::EventLog full_log(full);
  const graph::ShardedDynamicTCSR statically_built(full_log);
  for (std::uint64_t faulty_shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << faulty_shards << " faulty shards");
    serve::EpochConfig ec;
    ec.num_shards = 4;
    ec.compact_threshold = 64;
    serve::GraphEpochManager mgr(prefix_dataset(full, cut), ec);
    for (std::int64_t e = cut; e < full.num_edges(); ++e)
      mgr.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    {
      fp::FailpointConfig cfg;
      cfg.max_fires = faulty_shards;
      fp::ScopedFailpoint arm("serve.epoch.shard_replay", cfg);
      EXPECT_THROW(mgr.publish(), fp::FailpointError);
      EXPECT_EQ(fp::fires("serve.epoch.shard_replay"), faulty_shards);
      EXPECT_EQ(mgr.current_epoch(), 0u);
      EXPECT_EQ(mgr.unpublished(), static_cast<std::uint64_t>(full.num_edges() - cut));
      EXPECT_EQ(mgr.publish(), 1u);  // retry with the point still armed, spent
    }
    {
      auto g = mgr.acquire();
      expect_query_identical(g.graph(), statically_built);
    }
    EXPECT_EQ(mgr.publish(), 1u);  // idle: the laggard catches up too
    EXPECT_EQ(mgr.log_size(), 0u);
    expect_query_identical(mgr.side(0), mgr.side(1));
  }
}

// The crew is started once by the constructor and joined by the
// destructor — also when the manager never published, or when its last
// publish faulted. S = 1 starts no thread.
TEST(EpochManager, ShardCrewJoinsOnDestruction) {
  const graph::Dataset data = small_dataset(59);
  const std::size_t before = live_threads();
  if (before == 0) GTEST_SKIP() << "/proc/self/task unreadable";
  serve::EpochConfig ec;
  ec.num_shards = 4;
  {
    serve::GraphEpochManager mgr(data, ec);
    EXPECT_EQ(live_threads(before + 3), before + 3);
  }
  EXPECT_EQ(live_threads(before), before);
  {
    serve::GraphEpochManager mgr(data);
    EXPECT_EQ(live_threads(), before);
  }
  if (fp::compiled_in()) {
    serve::GraphEpochManager mgr(data, ec);
    mgr.ingest(data.src[0], data.dst[0], data.ts.back() + 1);
    fp::FailpointConfig cfg;  // every shard of every wave throws
    fp::ScopedFailpoint arm("serve.epoch.shard_replay", cfg);
    EXPECT_THROW(mgr.publish(), fp::FailpointError);
    EXPECT_THROW(mgr.publish(), fp::FailpointError);
    EXPECT_EQ(live_threads(), before + 3);
  }
  EXPECT_EQ(live_threads(before), before);
}

// Every wave runs on the same S threads: the shard_replay spans of many
// publishes carry at most S distinct trace tids (a thread started per
// wave would get a fresh tid each time).
TEST(EpochManager, ShardReplaySpansComeFromAtMostSThreads) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const graph::Dataset full = small_dataset(61);
  const std::int64_t cut = full.num_edges() - 50;
  serve::EpochConfig ec;
  ec.num_shards = 4;
  serve::GraphEpochManager mgr(prefix_dataset(full, cut), ec);
  obs::clear_spans();
  obs::set_trace_enabled(true);
  for (std::int64_t e = cut; e < full.num_edges(); ++e) {
    mgr.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    mgr.publish();
  }
  obs::set_trace_enabled(false);
  const std::uint32_t replay = obs::intern_span_name("epoch.shard_replay").id;
  std::set<std::uint32_t> tids;
  std::size_t spans = 0;
  for (const obs::SpanRecord& r : obs::collect_spans())
    if (r.name_id == replay) {
      ++spans;
      tids.insert(r.tid);
    }
  EXPECT_EQ(spans, 50u * 4);
  EXPECT_LE(tids.size(), 4u);
  obs::clear_spans();
}

// ---- no-grad inference path ------------------------------------------------

serve::SessionConfig tiny_session_config() {
  serve::SessionConfig sc;
  sc.backbone = core::BackboneKind::kGraphMixer;
  sc.n_neighbors = 5;
  sc.hidden_dim = 16;
  sc.time_dim = 8;
  return sc;
}

std::vector<serve::LinkQuery> tiny_queries(const graph::Dataset& data, std::size_t n) {
  std::vector<serve::LinkQuery> qs;
  const graph::Time now = data.ts.back() + 1;
  for (std::size_t i = 0; i < n; ++i)
    qs.push_back({data.src[static_cast<std::int64_t>(i * 13) % data.num_edges()],
                  data.dst[static_cast<std::int64_t>(i * 7) % data.num_edges()], now});
  return qs;
}

/// Stream keys first, first + 1, ... — the engine keys its i-th submitted
/// request by seq i.
std::vector<std::uint64_t> seq_keys(std::size_t n, std::uint64_t first = 0) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = first + i;
  return keys;
}

TEST(NoGradInference, BitwiseEqualsTrainingPathForwardWithZeroTapeNodes) {
  const graph::Dataset data = small_dataset(11);
  const std::string ckpt = temp_path("servable.ckpt");

  // Reference model pair (the "training side"), randomly initialised.
  util::Rng init(123);
  models::ModelConfig mc;
  mc.node_feat_dim = data.node_feat_dim;
  mc.edge_feat_dim = data.edge_feat_dim;
  mc.hidden_dim = 16;
  mc.time_dim = 8;
  mc.num_neighbors = 5;
  models::GraphMixerModel ref_model(mc, init);
  models::EdgePredictor ref_predictor(16, init);
  serve::save_servable(ref_model, ref_predictor, ckpt);

  serve::GraphEpochManager mgr(data);
  serve::InferenceSession session(mgr, tiny_session_config());
  session.load_checkpoint(ckpt);

  const auto queries = tiny_queries(data, 12);
  std::vector<float> served;
  session.score_links(queries, seq_keys(queries.size()).data(), served);

  // Training-path reference: identical machinery (merged-view finder,
  // workspace builder, same time_scale), grad mode ON, training=true. The
  // most-recent policy draws nothing, so the finder's unkeyed stream
  // samples what the session's keyed streams did.
  const graph::EventLog log2(data);
  graph::ShardedDynamicTCSR g2(log2);
  sampling::DynamicNeighborFinder finder(g2, 1);
  gpusim::Device device;
  cache::PlainFeatureSource features(log2, device);
  core::BuilderConfig bc;
  bc.n = 5;
  bc.m = 5;
  bc.policy = sampling::FinderPolicy::kMostRecent;
  bc.time_scale = log2.base().mean_inter_event_gap();
  core::BatchBuilder builder(log2.base(), finder, features, device, nullptr, bc);

  graph::TargetBatch roots;
  for (const auto& q : queries) roots.push(q.src, q.t);
  for (const auto& q : queries) roots.push(q.dst, q.t);
  util::Rng rng(42);
  util::PhaseAccumulator phases;
  const std::uint64_t tape0 = tensor::OpCounters::thread_tape_nodes();
  auto built = builder.build(roots, ref_model.num_hops(), phases, rng);
  tensor::Tensor h = ref_model.compute_embeddings(built.inputs);
  const auto B = static_cast<std::int64_t>(queries.size());
  std::vector<std::int64_t> si(queries.size()), di(queries.size());
  for (std::int64_t i = 0; i < B; ++i) {
    si[static_cast<std::size_t>(i)] = i;
    di[static_cast<std::size_t>(i)] = B + i;
  }
  tensor::Tensor logits = ref_predictor.forward(tensor::index_select0(h, si),
                                                tensor::index_select0(h, di));
  // The training path tapes its forward; the serving path must not have.
  EXPECT_GT(tensor::OpCounters::thread_tape_nodes(), tape0);

  ASSERT_EQ(logits.numel(), static_cast<std::int64_t>(served.size()));
  const float* ref = logits.data();
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_EQ(served[i], ref[i]) << "query " << i;  // bitwise, not approx
  std::remove(ckpt.c_str());
}

TEST(NoGradInference, RepeatedRequestsKeepTapeAndWorkspaceFlat) {
  const graph::Dataset data = small_dataset(13);
  serve::GraphEpochManager mgr(data);
  serve::InferenceSession session(mgr, tiny_session_config());

  const auto queries = tiny_queries(data, 8);
  const auto keys = seq_keys(queries.size());
  std::vector<float> out;
  session.score_links(queries, keys.data(), out);  // warm-up: shapes stabilise
  session.score_links(queries, keys.data(), out);

  const std::uint64_t ws0 = session.workspace_alloc_events();
  const std::uint64_t tape0 = tensor::OpCounters::tape_nodes();
  std::vector<float> first = out;
  for (int k = 0; k < 20; ++k) {
    session.score_links(queries, keys.data(), out);
    EXPECT_EQ(out, first);  // same keys: replays are bitwise-stable
  }
  EXPECT_EQ(session.workspace_alloc_events(), ws0)
      << "steady-state serving must not grow the builder arena";
  EXPECT_EQ(tensor::OpCounters::tape_nodes(), tape0)
      << "no-grad serving must not allocate tape nodes";
  EXPECT_EQ(session.forwards(), 22u);

  // Malformed calls fail before pinning an epoch or running a forward: no
  // key array, an out-of-range node, a non-finite query time.
  EXPECT_THROW(session.score_links(queries, nullptr, out), std::runtime_error);
  auto bad = queries;
  bad[3].dst = static_cast<graph::NodeId>(data.num_nodes);
  EXPECT_THROW(session.score_links(bad, keys.data(), out), std::runtime_error);
  for (graph::Time t : {std::nan(""), std::numeric_limits<graph::Time>::infinity(),
                        -std::numeric_limits<graph::Time>::infinity()}) {
    bad = queries;
    bad[5].t = t;
    EXPECT_THROW(session.score_links(bad, keys.data(), out), std::runtime_error) << t;
  }
  EXPECT_EQ(session.forwards(), 22u);
  EXPECT_EQ(mgr.pins(0) + mgr.pins(1), 0);
  session.score_links(queries, keys.data(), out);
  EXPECT_EQ(out, first);
}

// ---- keyed per-request sampling streams ------------------------------------

// With stream keys armed, a query's samples are a pure function of its
// key + frontier + graph — the batch it rides in is irrelevant. This is
// the property that makes stochastic policies safe to coalesce.
TEST(KeyedStreams, ScoreIndependentOfBatchComposition) {
  const graph::Dataset data = small_dataset(33);
  serve::GraphEpochManager mgr(data);

  // TGAT is multi-hop: its deeper frontiers exercise the parent→child key
  // chaining, not just the root keys.
  struct Case {
    core::BackboneKind backbone;
    sampling::FinderPolicy policy;
  };
  const Case cases[] = {
      {core::BackboneKind::kGraphMixer, sampling::FinderPolicy::kUniform},
      {core::BackboneKind::kGraphMixer, sampling::FinderPolicy::kInverseTimespan},
      {core::BackboneKind::kTgat, sampling::FinderPolicy::kUniform},
  };
  for (const Case& c : cases) {
    const auto policy = c.policy;
    serve::SessionConfig sc = tiny_session_config();
    sc.backbone = c.backbone;
    sc.policy = policy;
    serve::InferenceSession session(mgr, sc);

    const auto queries = tiny_queries(data, 12);
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < queries.size(); ++i)
      keys.push_back(1000 + 17 * i);

    // One full batch...
    std::vector<float> batched;
    session.score_links(queries, keys.data(), batched);

    // ...vs singletons with the same keys, in scrambled order.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t j = (i * 5 + 3) % queries.size();
      std::vector<float> one;
      session.score_links({queries[j]}, &keys[j], one);
      EXPECT_EQ(one[0], batched[j]) << "query " << j << " policy " << to_string(policy);
    }

    // Keyed replay is exactly reproducible.
    std::vector<float> replay;
    session.score_links(queries, keys.data(), replay);
    EXPECT_EQ(replay, batched);
  }
}

// SessionConfig::time_scale = 0 derives the ∆t normalisation from the
// log's base, which streamed events never change: a session built after a
// stream scores exactly like one built before it.
TEST(NoGradInference, DerivedTimeScaleDoesNotDependOnWhenTheSessionIsBuilt) {
  const graph::Dataset data = small_dataset(69);
  serve::GraphEpochManager mgr(data);
  const serve::SessionConfig sc = tiny_session_config();  // time_scale = 0
  serve::InferenceSession before(mgr, sc);

  // Events far apart in time: the grown log's mean gap is not the base's.
  graph::Time t = data.ts.back();
  for (std::int64_t k = 0; k < 300; ++k) {
    t += 5000.0;
    const std::int64_t e = k % data.num_edges();
    mgr.ingest(data.src[static_cast<std::size_t>(e)], data.dst[static_cast<std::size_t>(e)], t,
               feat_row(data, e));
  }
  mgr.publish();
  mgr.publish();  // idle: the other replica catches up too
  ASSERT_EQ(mgr.log_size(), 0u);
  serve::InferenceSession after(mgr, sc);

  auto queries = tiny_queries(data, 16);
  for (auto& q : queries) q.t = t + 1;
  const auto keys = seq_keys(queries.size());
  std::vector<float> a, b;
  before.score_links(queries, keys.data(), a);
  after.score_links(queries, keys.data(), b);
  EXPECT_EQ(a, b);
}

// ---- sharded micro-batching engine -----------------------------------------

/// Saves a fresh random servable bundle and returns its path.
std::string make_ckpt(const char* name, std::uint64_t seed) {
  const std::string ckpt = temp_path(name);
  util::Rng init(seed);
  models::ModelConfig mc;
  const graph::Dataset data = small_dataset(17);
  mc.node_feat_dim = data.node_feat_dim;
  mc.edge_feat_dim = data.edge_feat_dim;
  mc.hidden_dim = 16;
  mc.time_dim = 8;
  mc.num_neighbors = 5;
  models::GraphMixerModel m(mc, init);
  models::EdgePredictor p(16, init);
  serve::save_servable(m, p, ckpt);
  return ckpt;
}

// Conformance anchor: a 1-worker engine answers bit-identically to a
// direct session over an epoch manager built from the same log, scoring
// the same queries one at a time keyed by the engine's submission seqs.
TEST(ServingEngine, SingleWorkerMatchesDirectSessionBitwise) {
  const graph::Dataset data = small_dataset(17);
  const std::string ckpt = make_ckpt("engine.ckpt", 5);
  const auto queries = tiny_queries(data, 8);

  // Reference answers: one direct session, one query at a time.
  serve::GraphEpochManager ref_graphs(data);
  serve::InferenceSession ref(ref_graphs, tiny_session_config());
  ref.load_checkpoint(ckpt);
  const auto keys = seq_keys(queries.size());
  std::vector<float> expected;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<float> one;
    ref.score_links({queries[i]}, &keys[i], one);
    expected.push_back(one[0]);
  }

  // Engine path: all 8 coalesce into one micro-batch (max_batch == burst
  // size, generous delay so the slowest CI machine still coalesces).
  serve::GraphEpochManager mgr(data);
  serve::EngineConfig ec;
  ec.num_workers = 1;
  ec.max_batch = static_cast<std::int64_t>(queries.size());
  ec.max_delay_ms = 2000;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);
  engine.load_checkpoint(ckpt);

  std::vector<std::future<float>> futures;
  for (const auto& q : queries) futures.push_back(engine.submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;

  engine.drain();
  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.requests, queries.size());
  EXPECT_EQ(s.batches, 1u);  // the whole burst coalesced
  EXPECT_DOUBLE_EQ(s.mean_batch_occupancy, static_cast<double>(queries.size()));
  EXPECT_GT(s.qps, 0.0);
  EXPECT_GE(s.p95_ms, s.p50_ms);
  ASSERT_EQ(s.worker_requests.size(), 1u);
  EXPECT_EQ(s.worker_requests[0], queries.size());
  std::remove(ckpt.c_str());
}

// The headline determinism claim: worker count and micro-batch size
// change latency and throughput, never answers — for stochastic sampling
// policies included.
TEST(ServingEngine, WorkerCountAndBatchingInvariantScores) {
  const graph::Dataset data = small_dataset(17);
  const auto queries = tiny_queries(data, 24);

  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;  // stochastic on purpose

  struct Variant {
    std::int64_t workers;
    std::int64_t max_batch;
  };
  const Variant variants[] = {{1, 24}, {4, 5}, {2, 1}};

  std::vector<std::vector<float>> scores;
  for (const Variant& v : variants) {
    serve::GraphEpochManager mgr(data);
    serve::EngineConfig ec;
    ec.num_workers = v.workers;
    ec.max_batch = v.max_batch;
    ec.max_delay_ms = 1.0;
    serve::ServingEngine engine(mgr, sc, ec);
    std::vector<std::future<float>> futures;
    for (const auto& q : queries) futures.push_back(engine.submit(q));
    std::vector<float>& got = scores.emplace_back();
    for (auto& f : futures) got.push_back(f.get());
    engine.drain();
  }
  for (std::size_t v = 1; v < scores.size(); ++v)
    EXPECT_EQ(scores[v], scores[0]) << "variant " << v
        << " diverged from the 1-worker reference";
}

// Shard count is an ingest-throughput knob, never a semantics knob: the
// same query stream over the same event stream scores bit-identically at
// S in {1, 2, 4} (keyed sampling streams make this hold for stochastic
// policies too). PostDrainScoresMatchStaticGraphSession ties every shard
// count to a direct session over a statically built graph.
TEST(ServingEngine, ShardCountInvariantScores) {
  const graph::Dataset full = small_dataset(17);
  const std::int64_t cut = full.num_edges() / 2;

  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;  // stochastic on purpose
  sc.time_scale = 1.0;  // pin: engine sessions derive theirs from the prefix

  std::vector<std::vector<float>> scores;
  for (int num_shards : {1, 2, 4}) {
    serve::EpochConfig epoch_cfg;
    epoch_cfg.compact_threshold = 60;  // compaction cadence differs per shard
    epoch_cfg.num_shards = num_shards;
    serve::GraphEpochManager mgr(prefix_dataset(full, cut), epoch_cfg);
    serve::EngineConfig ec;
    ec.num_workers = 2;
    ec.max_batch = 6;
    ec.max_delay_ms = 1.0;
    serve::ServingEngine engine(mgr, sc, ec);

    for (std::int64_t e = cut; e < full.num_edges(); ++e)
      engine.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
    engine.drain();

    const auto queries = tiny_queries(full, 16);
    std::vector<std::future<float>> futures;
    for (const auto& q : queries) futures.push_back(engine.submit(q));
    std::vector<float>& got = scores.emplace_back();
    for (auto& f : futures) got.push_back(f.get());
    engine.drain();
  }
  for (std::size_t v = 1; v < scores.size(); ++v)
    EXPECT_EQ(scores[v], scores[0]) << "shard count variant " << v
        << " diverged from the 1-shard reference";
}

TEST(ServingEngine, StreamsEventsThroughEpochsAndAutoCompacts) {
  const graph::Dataset data = small_dataset(19);
  serve::EpochConfig epoch_cfg;
  epoch_cfg.compact_threshold = 8;
  serve::GraphEpochManager mgr(data, epoch_cfg);
  serve::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch = 4;
  ec.max_delay_ms = 1.0;
  serve::ServingEngine engine(mgr, tiny_session_config(), ec);

  const std::int64_t edges_before = data.num_edges();
  std::vector<float> feat(static_cast<std::size_t>(data.edge_feat_dim), 0.5f);
  graph::Time t = data.ts.back();
  std::vector<std::future<float>> futures;
  for (int k = 0; k < 24; ++k) {
    t += 1.0;
    engine.ingest(data.src[static_cast<std::size_t>(k) % data.src.size()],
                  data.dst[static_cast<std::size_t>(k) % data.dst.size()], t, feat);
    // Interleave queries with the event stream; each micro-batch pins
    // whatever epoch is current when it runs.
    futures.push_back(engine.submit({data.src[0], data.dst[0], t + 0.5}));
  }
  for (auto& f : futures) f.get();
  engine.drain();

  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.events_ingested, 24u);
  EXPECT_EQ(s.requests, 24u);
  EXPECT_GE(s.epochs_published, 1u);
  {
    // drain() guarantees publication: all 24 events visible right now.
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), edges_before + 24);
    EXPECT_EQ(g.graph().pivot_count(data.src[0], t + 1), g.graph().degree(data.src[0]));
  }
  EXPECT_GE(s.compactions, 1u);

  // Malformed traffic fails the *caller*, never a worker or the ingest
  // thread: a dead worker would leave every later future unresolved.
  EXPECT_THROW(engine.submit({static_cast<graph::NodeId>(mgr.num_nodes()), 0, t + 2}),
               std::runtime_error);
  EXPECT_THROW(engine.ingest(data.src[0], data.dst[0], t - 100), std::runtime_error);
  EXPECT_THROW(engine.ingest(data.src[0], data.dst[0], t + 2,
                             std::vector<float>(3, 0.f)),  // wrong feature width
               std::runtime_error);
  // Non-finite times: a query at ±inf or NaN would score from an empty or
  // unbounded neighbourhood, and an event at +inf would stall the stream
  // (every later finite event "regresses" behind it).
  const graph::Time inf = std::numeric_limits<graph::Time>::infinity();
  for (graph::Time bad : {std::nan(""), inf, -inf})
    EXPECT_THROW(engine.submit({data.src[0], data.dst[0], bad}), std::runtime_error) << bad;
  for (graph::Time bad : {std::nan(""), inf})
    EXPECT_THROW(engine.ingest(data.src[0], data.dst[0], bad, feat), std::runtime_error)
        << bad;
  // The engine still serves after rejecting them, and the rejected events
  // left the ordering guard alone: the next finite event publishes.
  EXPECT_NO_THROW(engine.submit({data.src[0], data.dst[0], t + 2}).get());
  EXPECT_NO_THROW(engine.ingest(data.src[0], data.dst[0], t + 2, feat));
  engine.drain();
  EXPECT_EQ(engine.stats().events_ingested, 25u);
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), edges_before + 25);
    EXPECT_EQ(g.graph().last_time(), t + 2);
  }
}

// Scores under interleaved ingest equal a statically built graph's
// answers once everything is drained — the incremental ≡ static
// equivalence lifted through epochs, worker shards, graph shards and
// compactions. The reference is a direct session over a manager built
// from the full log, keyed by the engine's submission seqs, so a
// stochastic policy must draw the same neighbours on both sides.
TEST(ServingEngine, PostDrainScoresMatchStaticGraphSession) {
  const graph::Dataset full = small_dataset(35);
  const std::int64_t cut = full.num_edges() / 2;
  const auto queries = tiny_queries(full, 10);
  const auto keys = seq_keys(queries.size());

  for (auto policy : {sampling::FinderPolicy::kMostRecent, sampling::FinderPolicy::kUniform}) {
    for (int num_shards : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << to_string(policy) << ", " << num_shards
                                        << " shards");
      serve::SessionConfig sc = tiny_session_config();
      sc.policy = policy;
      sc.time_scale = 1.0;  // pin: engine sessions derive theirs from the prefix

      serve::EpochConfig epoch_cfg;
      epoch_cfg.compact_threshold = 100;
      epoch_cfg.num_shards = num_shards;
      serve::GraphEpochManager mgr(prefix_dataset(full, cut), epoch_cfg);
      serve::EngineConfig ec;
      ec.num_workers = 2;
      ec.max_batch = 6;
      ec.max_delay_ms = 1.0;
      serve::ServingEngine engine(mgr, sc, ec);

      for (std::int64_t e = cut; e < full.num_edges(); ++e)
        engine.ingest(full.src[e], full.dst[e], full.ts[e], feat_row(full, e));
      engine.drain();

      std::vector<std::future<float>> futures;
      for (const auto& q : queries) futures.push_back(engine.submit(q));

      serve::GraphEpochManager static_graphs(full);
      serve::InferenceSession ref(static_graphs, sc);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        std::vector<float> one;
        ref.score_links({queries[i]}, &keys[i], one);
        EXPECT_EQ(futures[i].get(), one[0]) << "query " << i;
      }
      EXPECT_GE(mgr.compactions(), 1u);
    }
  }
}

// Concurrency fuzz: hammer submit/ingest/stats/drain from several client
// threads across worker counts. Nothing here checks exact scores (epoch
// staleness is workload-dependent); it checks that every future resolves
// finite, every event publishes, counters stay coherent, and no epoch is
// reclaimed while held (the session asserts the version fence on every
// micro-batch — a torn view would throw and fail the future).
void run_submit_ingest_drain_stress(std::int64_t workers, int num_shards) {
  SCOPED_TRACE(::testing::Message() << workers << " workers, " << num_shards
                                    << " shards");
  const graph::Dataset data = small_dataset(37);
  serve::EpochConfig epoch_cfg;
  epoch_cfg.compact_threshold = 50;
  epoch_cfg.num_shards = num_shards;
  serve::GraphEpochManager mgr(data, epoch_cfg);
  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;
  serve::EngineConfig ec;
  ec.num_workers = workers;
  ec.max_batch = 8;
  ec.max_delay_ms = 0.2;
  serve::ServingEngine engine(mgr, sc, ec);

  constexpr int kClients = 3;
  constexpr int kPerClient = 60;
  constexpr int kEvents = 120;
  const graph::Time t_query = data.ts.back() + kEvents + 10;

  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<float>>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const auto idx = static_cast<std::size_t>(c * kPerClient + i);
        futures[static_cast<std::size_t>(c)].push_back(engine.submit(
            {data.src[idx % data.src.size()], data.dst[idx % data.dst.size()],
             t_query}));
        if (i % 16 == 0) (void)engine.stats();
      }
    });
  }
  // One event producer (the engine's ingest() is externally-ordered by
  // time, so a single producer mirrors the real deployment).
  std::thread producer([&] {
    graph::Time t = data.ts.back();
    for (int k = 0; k < kEvents; ++k) {
      t += 1.0;
      engine.ingest(data.src[static_cast<std::size_t>(k) % data.src.size()],
                    data.dst[static_cast<std::size_t>(k) % data.dst.size()], t);
      if (k == kEvents / 2) engine.drain();  // drain while traffic flows
    }
  });
  for (auto& th : clients) th.join();
  producer.join();

  for (auto& fs : futures)
    for (auto& f : fs) EXPECT_TRUE(std::isfinite(f.get()));
  engine.drain();

  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.events_ingested, static_cast<std::uint64_t>(kEvents));
  EXPECT_GE(s.epochs_published, 1u);
  std::uint64_t per_worker_total = 0;
  ASSERT_EQ(s.worker_requests.size(), static_cast<std::size_t>(workers));
  for (std::uint64_t r : s.worker_requests) per_worker_total += r;
  EXPECT_EQ(per_worker_total, s.requests);
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), data.num_edges() + kEvents);
  }
  EXPECT_EQ(mgr.pins(0), 0);
  EXPECT_EQ(mgr.pins(1), 0);
}

TEST(ServingEngineStress, ConcurrentSubmitIngestDrain) {
  for (std::int64_t workers : {1, 2, 4})
    run_submit_ingest_drain_stress(workers, /*num_shards=*/1);
}

// Same fuzz with sharded replicas: publish-time catch-up now runs S
// replay threads concurrently with reader pins and the drain-in-flight
// traffic — the configuration the TSan CI job targets for the parallel
// ingest path.
TEST(ServingEngineStress, ConcurrentSubmitIngestDrainSharded) {
  for (int num_shards : {2, 4})
    run_submit_ingest_drain_stress(/*workers=*/2, num_shards);
}

// ingest() appends on the producer's thread, so several producers append
// concurrently: at one timestamp (ties are in time order) they serialize
// on the front lock and the manager's mutex, every event lands in the
// log exactly once, and the log's one-writer check never fires — while
// queries pin epochs and the ingest thread publishes.
TEST(ServingEngineStress, ConcurrentProducersAppendEachEventOnce) {
  const graph::Dataset data = small_dataset(37);
  serve::EpochConfig epoch_cfg;
  epoch_cfg.compact_threshold = 50;
  epoch_cfg.num_shards = 2;
  serve::GraphEpochManager mgr(data, epoch_cfg);
  serve::SessionConfig sc = tiny_session_config();
  sc.policy = sampling::FinderPolicy::kUniform;
  serve::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch = 8;
  ec.max_delay_ms = 0.2;
  serve::ServingEngine engine(mgr, sc, ec);
  const std::int64_t log_before = mgr.log().size();

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 80;
  constexpr int kEvents = kProducers * kPerProducer;
  constexpr int kQueries = 60;
  const graph::Time t_event = data.ts.back() + 1;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // The feature row names its producer, so the log shows whose rows
      // landed.
      const std::vector<float> feat(static_cast<std::size_t>(data.edge_feat_dim),
                                    static_cast<float>(p));
      for (int k = 0; k < kPerProducer; ++k) {
        const auto idx = static_cast<std::size_t>(p * kPerProducer + k);
        engine.ingest(data.src[idx % data.src.size()], data.dst[idx % data.dst.size()],
                      t_event, feat);
      }
    });
  }
  std::vector<std::future<float>> futures;
  for (int i = 0; i < kQueries; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    futures.push_back(engine.submit(
        {data.src[idx % data.src.size()], data.dst[idx % data.dst.size()], t_event + 1}));
  }
  for (auto& th : producers) th.join();
  for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get()));
  engine.drain();

  const serve::ServingStats s = engine.stats();
  EXPECT_EQ(s.events_ingested, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(s.event_queue_depth, 0);
  ASSERT_EQ(mgr.log().size(), log_before + kEvents);
  std::vector<int> rows_of(kProducers, 0);
  for (std::int64_t e = log_before; e < log_before + kEvents; ++e) {
    const float p = mgr.log().edge_feat(static_cast<graph::EdgeId>(e))[0];
    ASSERT_TRUE(p == 0.f || p == 1.f || p == 2.f) << "row " << e;
    ++rows_of[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(rows_of, std::vector<int>(kProducers, kPerProducer));
  {
    auto g = mgr.acquire();
    EXPECT_EQ(g.graph().num_edges(), data.num_edges() + kEvents);
  }
}

}  // namespace
