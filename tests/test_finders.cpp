// Neighbor finders: strict temporal restriction, without-replacement
// uniform sampling, most-recent correctness, cross-finder agreement, the
// TGL chronological-order contract, and uniformity of the GPU bitmap
// sampler. Shared properties run as parameterized suites over all three
// finder generations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "graph/synthetic.h"
#include "gpusim/device.h"
#include "sampling/gpu_finder.h"
#include "sampling/orig_finder.h"
#include "sampling/tgl_finder.h"

using namespace taser;
using namespace taser::sampling;
using graph::Dataset;
using graph::TargetBatch;
using graph::TCSR;

namespace {

struct FinderFixture {
  Dataset data;
  std::unique_ptr<TCSR> graph;
  gpusim::Device device;

  explicit FinderFixture(std::int64_t edges = 4000) {
    graph::SyntheticConfig cfg;
    cfg.num_src = 120;
    cfg.num_dst = 60;
    cfg.num_edges = edges;
    cfg.edge_feat_dim = 0;
    cfg.seed = 5;
    data = generate_synthetic(cfg);
    graph = std::make_unique<TCSR>(data);
  }

  std::unique_ptr<NeighborFinder> make(const std::string& kind) {
    if (kind == "orig") return std::make_unique<OrigNeighborFinder>(*graph);
    if (kind == "tgl") return std::make_unique<TglNeighborFinder>(*graph);
    return std::make_unique<GpuNeighborFinder>(*graph, device);
  }

  /// Chronologically ordered batch of root targets taken from edges.
  TargetBatch chrono_batch(std::int64_t from_edge, std::int64_t count) const {
    TargetBatch batch;
    for (std::int64_t i = from_edge; i < from_edge + count; ++i) {
      batch.push(data.src[static_cast<std::size_t>(i)], data.ts[static_cast<std::size_t>(i)]);
      batch.push(data.dst[static_cast<std::size_t>(i)], data.ts[static_cast<std::size_t>(i)]);
    }
    return batch;
  }
};

class AllFindersTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Finders, AllFindersTest,
                         ::testing::Values("orig", "tgl", "gpu"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(AllFindersTest, StrictTimeRestriction) {
  FinderFixture fx;
  auto finder = fx.make(GetParam());
  auto batch = fx.chrono_batch(2000, 200);
  for (auto policy : {FinderPolicy::kUniform, FinderPolicy::kMostRecent}) {
    auto result = finder->sample(batch, 10, policy);
    for (std::int64_t i = 0; i < result.num_targets; ++i)
      for (std::int64_t j = 0; j < result.count[static_cast<std::size_t>(i)]; ++j) {
        const auto s = static_cast<std::size_t>(result.slot(i, j));
        ASSERT_NE(result.nbr[s], graph::kInvalidNode);
        ASSERT_LT(result.ts[s], batch.times[static_cast<std::size_t>(i)])
            << finder->name() << " target " << i;
      }
  }
}

TEST_P(AllFindersTest, CountIsMinOfBudgetAndNeighborhood) {
  FinderFixture fx;
  auto finder = fx.make(GetParam());
  auto batch = fx.chrono_batch(3000, 150);
  const std::int64_t budget = 12;
  auto result = finder->sample(batch, budget, FinderPolicy::kUniform);
  for (std::int64_t i = 0; i < result.num_targets; ++i) {
    const graph::NodeId v = batch.nodes[static_cast<std::size_t>(i)];
    const std::int64_t avail =
        fx.graph->pivot(v, batch.times[static_cast<std::size_t>(i)]) - fx.graph->begin(v);
    EXPECT_EQ(result.count[static_cast<std::size_t>(i)], std::min<std::int64_t>(budget, avail))
        << finder->name();
  }
}

TEST_P(AllFindersTest, UniformSamplesWithoutReplacement) {
  FinderFixture fx;
  auto finder = fx.make(GetParam());
  auto batch = fx.chrono_batch(3500, 120);
  auto result = finder->sample(batch, 8, FinderPolicy::kUniform);
  for (std::int64_t i = 0; i < result.num_targets; ++i) {
    std::set<graph::EdgeId> eids;
    for (std::int64_t j = 0; j < result.count[static_cast<std::size_t>(i)]; ++j) {
      const auto s = static_cast<std::size_t>(result.slot(i, j));
      // The bipartite generator produces no self loops, so each adjacency
      // entry of a node carries a distinct edge id.
      EXPECT_TRUE(eids.insert(result.eid[s]).second)
          << finder->name() << ": duplicate edge in target " << i;
    }
  }
}

TEST_P(AllFindersTest, MostRecentReturnsLatestDescending) {
  FinderFixture fx;
  auto finder = fx.make(GetParam());
  auto batch = fx.chrono_batch(3800, 80);
  auto result = finder->sample(batch, 6, FinderPolicy::kMostRecent);
  for (std::int64_t i = 0; i < result.num_targets; ++i) {
    const graph::NodeId v = batch.nodes[static_cast<std::size_t>(i)];
    const std::int64_t pivot = fx.graph->pivot(v, batch.times[static_cast<std::size_t>(i)]);
    for (std::int64_t j = 0; j < result.count[static_cast<std::size_t>(i)]; ++j) {
      const auto s = static_cast<std::size_t>(result.slot(i, j));
      EXPECT_EQ(result.eid[s], fx.graph->eid_at(pivot - 1 - j)) << finder->name();
      if (j > 0) {
        EXPECT_GE(result.ts[static_cast<std::size_t>(result.slot(i, j - 1))], result.ts[s]);
      }
    }
  }
}

TEST_P(AllFindersTest, PaddingStaysInvalidAndEmptyNeighborhoodsHandled) {
  FinderFixture fx;
  auto finder = fx.make(GetParam());
  TargetBatch batch;
  batch.push(0, 0.0);  // before any event: empty neighborhood
  batch.push(fx.data.src[3000], fx.data.ts[3000]);
  auto result = finder->sample(batch, 5, FinderPolicy::kUniform);
  EXPECT_EQ(result.count[0], 0);
  for (std::int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(result.nbr[static_cast<std::size_t>(result.slot(0, j))], graph::kInvalidNode);
    EXPECT_EQ(result.eid[static_cast<std::size_t>(result.slot(0, j))], graph::kInvalidEdge);
  }
}

TEST(FinderAgreement, MostRecentIdenticalAcrossAllThree) {
  FinderFixture fx;
  auto orig = fx.make("orig");
  auto tgl = fx.make("tgl");
  auto gpu = fx.make("gpu");
  auto batch = fx.chrono_batch(3600, 100);
  auto a = orig->sample(batch, 7, FinderPolicy::kMostRecent);
  auto b = tgl->sample(batch, 7, FinderPolicy::kMostRecent);
  auto c = gpu->sample(batch, 7, FinderPolicy::kMostRecent);
  EXPECT_EQ(a.eid, b.eid);
  EXPECT_EQ(a.eid, c.eid);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.count, c.count);
}

TEST(TglFinder, RejectsOutOfOrderBatches) {
  FinderFixture fx;
  TglNeighborFinder finder(*fx.graph);
  auto late = fx.chrono_batch(3000, 10);
  auto early = fx.chrono_batch(100, 10);
  Time late_max = *std::max_element(late.times.begin(), late.times.end());
  Time early_max = *std::max_element(early.times.begin(), early.times.end());
  finder.begin_batch(late_max);
  finder.sample(late, 5, FinderPolicy::kUniform);
  // A shuffled (earlier) root batch regresses the snapshot — rejected.
  EXPECT_THROW(finder.begin_batch(early_max), std::runtime_error);
  finder.reset();  // new epoch: early batch fine again
  EXPECT_NO_THROW(finder.begin_batch(early_max));
  EXPECT_NO_THROW(finder.sample(early, 5, FinderPolicy::kUniform));
}

TEST(TglFinder, AllowsEarlierHop2TargetsWithinVisiblePrefix) {
  FinderFixture fx;
  TglNeighborFinder finder(*fx.graph);
  auto roots = fx.chrono_batch(3000, 20);
  auto hop1 = finder.sample(roots, 5, FinderPolicy::kUniform);
  // Hop-2 lookups use sampled-neighbor timestamps (earlier than roots) —
  // must work despite the monotone pointer because the batch max time is
  // still governed by chronology of *root* batches.
  TargetBatch hop2;
  bool any = false;
  for (std::int64_t i = 0; i < hop1.num_targets; ++i)
    for (std::int64_t j = 0; j < hop1.count[static_cast<std::size_t>(i)]; ++j) {
      const auto s = static_cast<std::size_t>(hop1.slot(i, j));
      hop2.push(hop1.nbr[s], hop1.ts[s]);
      any = true;
    }
  ASSERT_TRUE(any);
  auto result = finder.sample(hop2, 5, FinderPolicy::kUniform);
  for (std::int64_t i = 0; i < result.num_targets; ++i)
    for (std::int64_t j = 0; j < result.count[static_cast<std::size_t>(i)]; ++j)
      ASSERT_LT(result.ts[static_cast<std::size_t>(result.slot(i, j))],
                hop2.times[static_cast<std::size_t>(i)]);
}

// ---- kOrig per-build streams -----------------------------------------------
// Training builds reseed the original finder per batch from (seed, epoch,
// seq), which is what lets BuilderPool replicate it like the others.

constexpr FinderPolicy kAllPolicies[] = {FinderPolicy::kUniform, FinderPolicy::kMostRecent,
                                         FinderPolicy::kInverseTimespan};

void expect_same_draws(const SampledNeighbors& a, const SampledNeighbors& b) {
  EXPECT_EQ(a.nbr, b.nbr);
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.eid, b.eid);
  EXPECT_EQ(a.count, b.count);
}

TEST(OrigFinder, FreshReplicaDrawsWhatTheSerialInstanceDraws) {
  FinderFixture fx;
  const auto batch = fx.chrono_batch(3000, 60);
  const int kHops = 2;
  for (auto policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    OrigNeighborFinder serial(*fx.graph, 9, &fx.device);
    serial.begin_epoch();
    for (std::uint64_t seq = 0; seq < 4; ++seq) {
      // `serial` has already built seqs 0..seq-1; the replica is new.
      gpusim::Device replica_device;
      auto replica = serial.clone_for(&replica_device);
      ASSERT_NE(replica, nullptr);
      serial.begin_build(seq, kHops);
      replica->begin_build(seq, kHops);
      for (int hop = 0; hop < kHops; ++hop)
        expect_same_draws(serial.sample(batch, 6, policy),
                          replica->sample(batch, 6, policy));
      EXPECT_GT(replica_device.elapsed().seconds, 0.0)
          << "replica must account interpreter overhead on its own device";
    }
  }
}

TEST(OrigFinder, BeginEpochChangesTheBuildStream) {
  FinderFixture fx;
  const auto batch = fx.chrono_batch(3000, 60);
  for (auto policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    OrigNeighborFinder finder(*fx.graph, 9);
    finder.begin_build(2, 2);
    const auto first = finder.sample(batch, 6, policy);
    finder.begin_build(2, 2);
    expect_same_draws(first, finder.sample(batch, 6, policy));  // same (epoch, seq)
    finder.begin_epoch();
    finder.begin_build(2, 2);
    const auto next_epoch = finder.sample(batch, 6, policy);
    if (policy == FinderPolicy::kMostRecent) {
      expect_same_draws(first, next_epoch);  // draws nothing
    } else {
      EXPECT_NE(first.eid, next_epoch.eid);
    }
  }
}

TEST(OrigFinder, WithoutBeginBuildKeepsTheConstructorStream) {
  // Evaluation and the serving equivalence test sample without
  // begin_build: epochs must not move that stream.
  FinderFixture fx;
  const auto batch = fx.chrono_batch(3000, 60);
  for (auto policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    OrigNeighborFinder fresh(*fx.graph, 9);
    OrigNeighborFinder epoched(*fx.graph, 9);
    epoched.begin_epoch();
    epoched.begin_epoch();
    for (int call = 0; call < 2; ++call)
      expect_same_draws(fresh.sample(batch, 6, policy), epoched.sample(batch, 6, policy));
  }
}

TEST(GpuFinder, SupportsArbitraryBatchOrder) {
  FinderFixture fx;
  GpuNeighborFinder finder(*fx.graph, fx.device);
  auto late = fx.chrono_batch(3500, 10);
  auto early = fx.chrono_batch(200, 10);
  EXPECT_NO_THROW(finder.sample(late, 5, FinderPolicy::kUniform));
  EXPECT_NO_THROW(finder.sample(early, 5, FinderPolicy::kUniform));  // TGL would throw
}

TEST(GpuFinder, AccruesSimulatedTime) {
  FinderFixture fx;
  GpuNeighborFinder finder(*fx.graph, fx.device);
  fx.device.reset_elapsed();
  auto batch = fx.chrono_batch(3000, 100);
  finder.sample(batch, 10, FinderPolicy::kUniform);
  const double t1 = fx.device.elapsed().seconds;
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(finder.last_kernel_time().seconds, 0.0);
  finder.sample(batch, 10, FinderPolicy::kUniform);
  EXPECT_GT(fx.device.elapsed().seconds, t1);
}

TEST(GpuFinder, UniformSamplingIsActuallyUniform) {
  // One high-degree node, many repetitions: every eligible neighbor should
  // be drawn with frequency ~ budget/degree.
  graph::Dataset d;
  d.name = "star";
  d.num_nodes = 41;
  for (int i = 0; i < 40; ++i) {
    d.src.push_back(0);
    d.dst.push_back(static_cast<graph::NodeId>(1 + i));
    d.ts.push_back(static_cast<double>(i + 1));
  }
  d.apply_chrono_split();
  d.validate();
  TCSR g(d);
  gpusim::Device device;
  GpuNeighborFinder finder(g, device);

  std::map<graph::NodeId, int> freq;
  const int kTrials = 3000;
  const std::int64_t kBudget = 8;
  TargetBatch batch;
  batch.push(0, 1000.0);  // all 40 neighbors eligible
  for (int trial = 0; trial < kTrials; ++trial) {
    auto result = finder.sample(batch, kBudget, FinderPolicy::kUniform);
    ASSERT_EQ(result.count[0], kBudget);
    for (std::int64_t j = 0; j < kBudget; ++j)
      ++freq[result.nbr[static_cast<std::size_t>(result.slot(0, j))]];
  }
  const double expected = static_cast<double>(kTrials) * kBudget / 40.0;  // 600
  ASSERT_EQ(freq.size(), 40u);
  for (const auto& [node, count] : freq)
    EXPECT_NEAR(count, expected, expected * 0.2) << "node " << node;
}

TEST(GpuFinder, BitmapCollisionsCountedAsAtomics) {
  // budget close to degree → heavy collisions → atomic count exceeds take.
  graph::Dataset d;
  d.num_nodes = 11;
  for (int i = 0; i < 10; ++i) {
    d.src.push_back(0);
    d.dst.push_back(static_cast<graph::NodeId>(1 + i));
    d.ts.push_back(static_cast<double>(i + 1));
  }
  d.apply_chrono_split();
  TCSR g(d);
  gpusim::Device device;
  GpuNeighborFinder finder(g, device);
  TargetBatch batch;
  batch.push(0, 100.0);
  finder.sample(batch, 9, FinderPolicy::kUniform);
  // 9 of 10 slots: expect some retries; at least 9 atomics happened.
  // (Indirectly verified through the device ledger being nonzero and the
  // kernel not hanging; the exact count is stochastic.)
  EXPECT_GT(device.elapsed().seconds, 0.0);
}

}  // namespace
