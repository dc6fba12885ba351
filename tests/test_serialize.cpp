// Checkpointing: round-trip fidelity, strict name/shape validation,
// cross-model restore for the backbone TGNNs, and a save that faults
// mid-write leaving the previous checkpoint intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "models/graphmixer.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "util/failpoint.h"

using namespace taser;
using namespace taser::nn;

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, RoundTripRestoresExactBytes) {
  util::Rng rng(1);
  Mlp a(4, 8, 2, rng);
  const std::string path = temp_path("mlp.ckpt");
  save_parameters(a, path);

  Mlp b(4, 8, 2, rng);  // different init
  bool differed = false;
  auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (pa[i].to_vector() != pb[i].to_vector()) differed = true;
  ASSERT_TRUE(differed);

  load_parameters(b, path);
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].to_vector(), pb[i].to_vector());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(2);
  Mlp a(4, 8, 2, rng);
  const std::string path = temp_path("mlp2.ckpt");
  save_parameters(a, path);
  Mlp wrong(4, 6, 2, rng);  // different hidden width
  EXPECT_THROW(load_parameters(wrong, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsUnknownFormatVersion) {
  util::Rng rng(6);
  Mlp m(4, 8, 2, rng);
  const std::string path = temp_path("future.ckpt");
  save_parameters(m, path);
  // Bump the version field (bytes 4..8, after the magic) to a future one.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4, SEEK_SET);
    const std::uint32_t future_version = 99;
    std::fwrite(&future_version, sizeof(future_version), 1, f);
    std::fclose(f);
  }
  try {
    load_parameters(m, path);
    FAIL() << "future format version must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format version 99"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsLegacyUnversionedMagic) {
  const std::string path = temp_path("legacy.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const std::uint32_t legacy_magic = 0x54535231;  // "TSR1": pre-version layout
    std::fwrite(&legacy_magic, sizeof(legacy_magic), 1, f);
    const std::uint64_t count = 0;
    std::fwrite(&count, sizeof(count), 1, f);
    std::fclose(f);
  }
  util::Rng rng(7);
  Mlp m(2, 2, 2, rng);
  try {
    load_parameters(m, path);
    FAIL() << "legacy unversioned checkpoints must be rejected, not misparsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("pre-versioned"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptHugeDimensions) {
  // A corrupt entry claiming 2^32 x 2^32 wraps numel to 0 if dims are
  // unchecked — the reader would read zero floats and misparse everything
  // after. It must fail with a clear corrupt-checkpoint error instead.
  const std::string path = temp_path("hugedims.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const std::uint32_t magic = 0x54535232;  // "TSR2"
    std::fwrite(&magic, sizeof(magic), 1, f);
    const std::uint32_t version = 2;
    std::fwrite(&version, sizeof(version), 1, f);
    const std::uint64_t count = 1;
    std::fwrite(&count, sizeof(count), 1, f);
    const char name[] = "w";
    const std::uint64_t name_len = 1;
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fwrite(name, 1, 1, f);
    const std::uint64_t rank = 2;
    std::fwrite(&rank, sizeof(rank), 1, f);
    const std::uint64_t dim = 1ull << 32;  // dim * dim wraps u64 numel to 0
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fclose(f);
  }
  util::Rng rng(8);
  Mlp m(2, 2, 2, rng);
  try {
    load_parameters(m, path);
    FAIL() << "huge corrupt dimensions must be rejected, not wrapped";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt checkpoint"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  util::Rng rng(3);
  Mlp m(2, 2, 2, rng);
  EXPECT_THROW(load_parameters(m, path), std::runtime_error);
  std::remove(path.c_str());
}

// A save that fails mid-write throws and leaves the last good checkpoint
// as it was: the bytes go to a temp file that is renamed over the target
// only once complete, and the failed save removes it.
TEST(Serialize, FaultMidSaveKeepsThePreviousCheckpoint) {
  if (!util::failpoints::compiled_in())
    GTEST_SKIP() << "failpoint harness compiled out (-DTASER_FAILPOINTS=OFF)";
  util::Rng rng(8);
  Mlp a(4, 8, 2, rng);
  Mlp b(4, 8, 2, rng);  // different init
  const std::string dir = std::string(::testing::TempDir()) + "/mid_save";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mlp.ckpt";
  save_parameters(a, path);
  {
    util::failpoints::FailpointConfig cfg;
    cfg.first_hit = 2;  // after the first parameter is written
    cfg.max_fires = 1;
    util::failpoints::ScopedFailpoint arm("nn.save.write", cfg);
    EXPECT_THROW(save_parameters(b, path), util::failpoints::FailpointError);
    EXPECT_EQ(util::failpoints::fires("nn.save.write"), 1u);
  }

  Mlp restored(4, 8, 2, rng);
  load_parameters(restored, path);
  auto pa = a.parameters(), pr = restored.parameters();
  ASSERT_EQ(pa.size(), pr.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].to_vector(), pr[i].to_vector()) << "parameter " << i;
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    left.push_back(entry.path().filename().string());
  EXPECT_EQ(left, std::vector<std::string>{"mlp.ckpt"}) << "a temp file was left behind";
  std::filesystem::remove_all(dir);
}

TEST(Serialize, BackboneModelRoundTripPreservesOutputs) {
  util::Rng rng(4);
  models::ModelConfig mc;
  mc.edge_feat_dim = 6;
  mc.hidden_dim = 12;
  mc.time_dim = 8;
  mc.num_neighbors = 4;
  models::GraphMixerModel a(mc, rng);
  models::GraphMixerModel b(mc, rng);

  models::BatchInputs inputs;
  inputs.num_roots = 3;
  models::HopInputs hop;
  hop.targets = 3;
  hop.width = 4;
  hop.edge_feats = tensor::Tensor::randn({3, 4, 6}, rng);
  hop.delta_t = tensor::Tensor::rand_uniform({3, 4}, rng, 0.f, 2.f);
  hop.mask = tensor::Tensor::ones({3, 4});
  inputs.hops.push_back(hop);

  const std::string path = temp_path("mixer.ckpt");
  save_parameters(a, path);
  load_parameters(b, path);
  auto ha = a.compute_embeddings(inputs).to_vector();
  auto hb = b.compute_embeddings(inputs).to_vector();
  EXPECT_EQ(ha, hb);
  std::remove(path.c_str());
}

}  // namespace
