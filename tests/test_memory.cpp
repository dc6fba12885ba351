// Live-heap budgets of the training graphs: the bytes a MixerBlock node
// and a sampler selection keep for their backward, that nothing of a
// training step outlives train_epoch(), and that evaluation tapes nothing.
// And of serving: a streamed event costs one log row plus its index slots.
// Bytes are counted by a replacement operator new/delete, local to this
// binary: every allocation carries a 16-byte header with its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/adaptive_sampler.h"
#include "core/trainer.h"
#include "graph/event_log.h"
#include "graph/synthetic.h"
#include "nn/mixer.h"
#include "serve/epoch_manager.h"
#include "tensor/counters.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
constexpr std::size_t kHeader = 16;  // keeps malloc's 16-byte alignment

void* counted_alloc(std::size_t n) {
  if (n > SIZE_MAX - kHeader) throw std::bad_alloc();
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
  const auto bytes = static_cast<std::int64_t>(n);
  const std::int64_t live = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof n);
  g_live.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace taser;
namespace tt = taser::tensor;
using tt::Tensor;

constexpr double kMB = 1e6;

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

/// Restarts the peak at the current live heap; returns that baseline.
std::int64_t reset_peak() {
  const std::int64_t now = live_bytes();
  g_peak.store(now, std::memory_order_relaxed);
  return now;
}

std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

/// What MixerBlock's node keeps for its backward at [B, T, C], in floats:
/// its output and x1, the token-MLP pre-activation [B, C, Ht], the
/// channel-MLP pre-activation [B·T, 4C] and two layer norms' (mean, rstd)
/// rows. x is its parent's, not the node's.
std::int64_t mixer_saved_floats(std::int64_t B, std::int64_t T, std::int64_t C) {
  const std::int64_t Ht = std::max<std::int64_t>(T / 2, 2);
  return 2 * B * T * C + B * C * Ht + B * T * 4 * C + 2 * 2 * B * T;
}

/// Node bookkeeping (shapes, parent lists, closures) on top of the
/// buffers: a few hundred bytes per node.
constexpr std::int64_t kNodeSlack = 256 * 1024;

TEST(MemoryBudget, MixerBlockTapeIsItsSavedSet) {
  // The sampler trunk at train-taser's hop 1 and GraphMixer's block at
  // train-mixer's batch. (The unfused composition kept eleven activation
  // buffers: 71.7 MB and 115.9 MB.)
  const std::int64_t shapes[][3] = {{1920, 10, 58}, {1800, 10, 100}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << "[" << s[0] << ", " << s[1] << ", " << s[2] << "]");
    util::Rng rng(1);
    nn::MixerBlock mixer(s[1], s[2], rng);
    Tensor x = Tensor::randn({s[0], s[1], s[2]}, rng, 1.f, true);
    mixer.forward(x);  // warm-up: thread-local GEMM pack buffers
    const std::int64_t before = reset_peak();
    Tensor y = mixer.forward(x);
    const std::int64_t tape = live_bytes() - before;
    const std::int64_t forward_transient = peak_bytes() - before - tape;
    const std::int64_t budget = 4 * mixer_saved_floats(s[0], s[1], s[2]);
    reset_peak();
    tt::sum_all(y).backward();
    const std::int64_t backward_transient = peak_bytes() - before - tape;
    std::printf("[%lld, %lld, %lld]: tape %.1f MB (saved-set arithmetic %.1f MB), forward "
                "transient %.1f MB, backward transient %.1f MB\n",
                static_cast<long long>(s[0]), static_cast<long long>(s[1]),
                static_cast<long long>(s[2]), tape / kMB, budget / kMB,
                forward_transient / kMB, backward_transient / kMB);
    EXPECT_LE(tape, budget + kNodeSlack);
    EXPECT_GE(tape, budget);
  }
}

/// A candidate hop with every slot valid: T targets, m candidates each,
/// de-dim edge features and no node features (train-taser's data).
core::CandidateSet full_candidates(std::int64_t T, std::int64_t m, std::int64_t de,
                                   util::Rng& rng) {
  core::CandidateSet c;
  c.targets = T;
  c.m = m;
  c.edge_dim = de;
  c.raw.resize(T, m);
  c.edge_feats.resize(static_cast<std::size_t>(T * m * de));
  for (auto& v : c.edge_feats) v = rng.next_normal();
  c.delta_t.assign(static_cast<std::size_t>(T * m), 0.f);
  c.freq.assign(static_cast<std::size_t>(T * m), 1.f);
  c.identity.assign(static_cast<std::size_t>(T * m * m), 0.f);
  c.mask.assign(static_cast<std::size_t>(T * m), 1.f);
  for (std::int64_t i = 0; i < T; ++i) {
    c.raw.count[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(m);
    for (std::int64_t j = 0; j < m; ++j) {
      const auto s = static_cast<std::size_t>(i * m + j);
      c.delta_t[s] = static_cast<float>(j + 1);
      c.raw.nbr[s] = static_cast<graph::NodeId>(j);
      c.raw.ts[s] = 100.0 - static_cast<double>(j);
      c.raw.eid[s] = static_cast<graph::EdgeId>(s);
      c.identity[s * static_cast<std::size_t>(m) + static_cast<std::size_t>(j)] = 1.f;
    }
  }
  return c;
}

TEST(MemoryBudget, SamplerSelectTapeIsItsSavedSet) {
  // AdaptiveSampler::select at train-taser's shapes: edge features 64,
  // encoder dim 16 (neighbor width 16 + 16 + 16 + m = 58), GATv2 head
  // width 16, m = 10 candidates, n = 5 picks; hop 1 has T = 1920 targets
  // (3·128 roots × 5), hop 0 has T = 384. (Unfused trunk: 91.9 MB and
  // 18.4 MB.)
  const std::int64_t m = 10, n = 5, de = 64, d = 16, h = 16, W = 3 * d + m;
  core::EncoderConfig ec;
  ec.edge_feat_dim = de;
  ec.dim = d;
  ec.m = m;
  util::Rng rng(2);
  core::AdaptiveSampler sampler(ec, core::DecoderKind::kGatV2, h, rng);
  for (const std::int64_t T : {1920, 384}) {
    SCOPED_TRACE(testing::Message() << "T = " << T);
    const core::CandidateSet cands = full_candidates(T, m, de, rng);
    sampler.select(cands, n, rng);  // warm-up: sampler and GEMM scratch
    const std::int64_t N = T * m;
    // The graph select() leaves, buffer by buffer (floats). The concat's
    // constant inputs (TE(∆t), FE(freq), identity) and the decoder's
    // padding mask term are not kept: they take no grad, and neither the
    // concat's backward nor the masking add's reads them.
    const std::int64_t expected =
        N * de                           // edge features, w_edge's input
        + 2 * N * d                      // w_edge output and its GELU pre-activation
        + N * W                          // z, the trunk's input
        + mixer_saved_floats(T, m, W)    // the trunk
        + 2 * T * d + 2 * T * h          // z_v, proj_v(z_v) and its reshape
        + 3 * N * h                      // proj_u(zt), + hv, LeakyReLU
        + 6 * N                          // score, reshape, sum, softmax, log,
                                         // flat reshape
        + 2 * T * n;                     // gathered log-probs and their reshape
    // The selection's plain fields: neighbor, time and edge per pick, the
    // pick mask and slot.
    const std::int64_t fields =
        T * n * static_cast<std::int64_t>(sizeof(graph::NodeId) + sizeof(graph::Time) +
                                          sizeof(graph::EdgeId) + sizeof(float) +
                                          sizeof(std::int64_t)) +
        T * static_cast<std::int64_t>(sizeof(std::int32_t));
    const std::int64_t budget = 4 * expected + fields;
    const std::int64_t before = reset_peak();
    core::SelectionResult sel = sampler.select(cands, n, rng);
    const std::int64_t tape = live_bytes() - before;
    const std::int64_t transient = peak_bytes() - before - tape;
    reset_peak();
    tt::sum_all(sel.log_probs_selected).backward();
    const std::int64_t backward_transient = peak_bytes() - before - tape;
    std::printf("select T=%lld: tape %.1f MB (arithmetic %.1f MB), forward transient %.1f MB, "
                "backward transient %.1f MB\n",
                static_cast<long long>(T), tape / kMB, budget / kMB, transient / kMB,
                backward_transient / kMB);
    EXPECT_LE(tape, budget + kNodeSlack);
    EXPECT_GE(tape, budget);
  }
}

/// train-taser's configuration (bench/suite/README.md), a few batches per
/// epoch.
core::TrainerConfig taser_config() {
  core::TrainerConfig c;
  c.backbone = core::BackboneKind::kTgat;
  c.finder = core::FinderKind::kGpu;
  c.cache_ratio = 0.2;
  c.ada_batch = true;
  c.ada_neighbor = true;
  c.prefetch_mode = core::PrefetchMode::kStaleTheta;
  c.prefetch_depth = 2;
  c.decoder = core::DecoderKind::kGatV2;
  c.batch_size = 128;
  c.n_neighbors = 5;
  c.m_candidates = 10;
  c.hidden_dim = 32;
  c.time_dim = 16;
  c.sampler_dim = 16;
  c.decoder_hidden = 16;
  c.max_eval_edges = 150;
  c.max_iters_per_epoch = 4;
  c.seed = 7;
  return c;
}

graph::Dataset taser_data() {
  graph::SyntheticConfig sc = graph::wikipedia_like(0.02, 64);
  sc.seed = 1;
  return graph::generate_synthetic(sc);
}

TEST(MemoryBudget, NoTrainingGraphOutlivesTheEpoch) {
  // After train_epoch() only what persists across epochs may stay: the
  // ring slots' build workspaces, the feature cache, the optimizers'
  // moments. One batch's sampler graph alone is about 60 MB here
  // (SamplerSelectTapeIsItsSavedSet), its model graph as much again;
  // keeping the last batch's selections and records held 248.5 MB.
  const graph::Dataset data = taser_data();
  const std::int64_t before = live_bytes();
  core::Trainer trainer(data, taser_config());
  const std::int64_t constructed = live_bytes() - before;
  trainer.train_epoch();
  const std::int64_t after_epoch = live_bytes() - before;
  trainer.train_epoch();
  const std::int64_t after_second = live_bytes() - before;
  std::printf("live heap: %.1f MB after construction, %.1f MB after one epoch, %.1f MB after "
              "two\n",
              constructed / kMB, after_epoch / kMB, after_second / kMB);
  EXPECT_LT(after_epoch - constructed, std::int64_t{32'000'000});
  // Steady state: a second epoch adds no retained state.
  EXPECT_LT(after_second - after_epoch, std::int64_t{1'000'000});
}

TEST(MemoryBudget, EvaluationTapesNothing) {
  const graph::Dataset data = taser_data();
  core::Trainer trainer(data, taser_config());
  trainer.train_epoch();
  const std::uint64_t nodes = tt::OpCounters::thread_tape_nodes();
  const std::int64_t before = reset_peak();
  trainer.evaluate_val_mrr();
  std::printf("evaluation: started at %.1f MB of live heap, peaked %.1f MB above it\n",
              before / kMB, (peak_bytes() - before) / kMB);
  EXPECT_EQ(tt::OpCounters::thread_tape_nodes(), nodes);
}

// The serving event log stores each streamed row once, for both epoch
// replicas: a manager's live heap grows by one row (src, dst, ts and the
// feature row) plus both replicas' compacted index slots per event, and
// the log never copies a row to grow. (With a row per replica, a pending
// queue entry per event and doubling vectors, growth was 427 B per event
// on this stream, and the peak rose 7.4 MB above the end.)
TEST(MemoryBudget, ServingLogStoresEachRowOnce) {
  graph::SyntheticConfig sc = graph::movielens_like(0.01, 32);
  sc.seed = 1;
  const graph::Dataset data = graph::generate_synthetic(sc);
  serve::EpochConfig ec;  // serve-ingest's epoch settings
  ec.num_shards = 4;
  ec.compact_threshold = 2000;
  serve::GraphEpochManager mgr(data, ec);
  constexpr std::int64_t kEvents = 120000, kBlock = 1000;
  const std::int64_t d = data.edge_feat_dim;
  const std::int64_t before = reset_peak();
  graph::Time t = data.ts.back();
  for (std::int64_t k = 0; k < kEvents; ++k) {
    const auto e = static_cast<graph::EdgeId>(k % data.num_edges());
    const float* row = data.edge_feat(e);
    t += 1.0;
    mgr.ingest(data.src[static_cast<std::size_t>(e)], data.dst[static_cast<std::size_t>(e)], t,
               std::vector<float>(row, row + d));
    if ((k + 1) % kBlock == 0) mgr.publish();
  }
  mgr.publish();  // idle: the lagging replica indexes the last block too
  ASSERT_EQ(mgr.log_size(), 0u);
  const std::int64_t growth = live_bytes() - before;
  const std::int64_t peak_over_end = peak_bytes() - live_bytes();

  const std::int64_t row_bytes = 2 * sizeof(graph::NodeId) + sizeof(graph::Time) +
                                 d * static_cast<std::int64_t>(sizeof(float));
  // A compacted index slot: neighbor, time and EdgeId.
  const std::int64_t slot_bytes = sizeof(graph::NodeId) + sizeof(graph::Time) +
                                  sizeof(graph::EdgeId);
  const std::int64_t per_event = row_bytes + 2 * 2 * slot_bytes;  // 2 replicas x 2 directions
  const std::int64_t chunk = graph::EventLog::kChunkRows * row_bytes;
  // The delta lists keep their capacity across compactions (a few entries
  // per node).
  constexpr std::int64_t kMargin = 1'000'000;
  // One replica's compaction holds its new shard arrays beside the old:
  // S indptr arrays and a slot per direction of every row.
  const std::int64_t rows = data.num_edges() + kEvents;
  const std::int64_t transient =
      ec.num_shards * (data.num_nodes + 1) * static_cast<std::int64_t>(sizeof(std::int64_t)) +
      2 * rows * slot_bytes;
  std::printf("serving log: %lld events grew the live heap %.1f MB (%.0f B per event; a row and "
              "its slots are %lld B), peak %.1f MB above the end (compaction transient %.1f MB, "
              "chunk %.2f MB)\n",
              static_cast<long long>(kEvents), growth / kMB,
              static_cast<double>(growth) / static_cast<double>(kEvents),
              static_cast<long long>(per_event), peak_over_end / kMB, transient / kMB,
              chunk / kMB);
  EXPECT_LE(growth, kEvents * per_event + chunk + kMargin);
  EXPECT_LE(peak_over_end, transient + chunk);
}

}  // namespace
