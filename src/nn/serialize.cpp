#include "nn/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace taser::nn {

namespace {

// Versioned container header: magic identifies the file family, the
// format-version field after it gates layout changes — readers reject
// versions they do not understand instead of misparsing the payload
// (serving checkpoints must outlive the binary that wrote them). The
// pre-versioned layout used magic "TSR1" with no version field; it is
// recognised and rejected with a re-save hint rather than a generic
// "not a checkpoint" error.
constexpr std::uint32_t kMagic = 0x54535232;        // "TSR2"
constexpr std::uint32_t kLegacyMagic = 0x54535231;  // "TSR1" (unversioned)
constexpr std::uint32_t kFormatVersion = 2;

void write_bytes(std::FILE* f, const void* data, std::size_t n) {
  TASER_CHECK_MSG(std::fwrite(data, 1, n, f) == n,
                  "checkpoint write failed: " << std::strerror(errno));
}

void write_u64(std::FILE* f, std::uint64_t v) { write_bytes(f, &v, sizeof(v)); }

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_string(std::FILE* f, const std::string& s) {
  write_u64(f, s.size());
  write_bytes(f, s.data(), s.size());
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  TASER_CHECK_MSG(n < (1u << 20), "corrupt checkpoint: name length " << n);
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}

}  // namespace

void save_parameters(const Module& module, const std::string& path) {
  // Crash-safe replace: the checkpoint is written to a sibling temp file,
  // forced to disk, and only then renamed over `path` (atomic within one
  // file system). Until the rename the previous checkpoint at `path` is
  // untouched; a failure before it (a full disk, an injected fault)
  // removes the temp file, and a crash leaves at most a stray temp file.
  static std::atomic<std::uint64_t> saves{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(saves++);
  struct TempFile {
    const std::string& name;
    std::FILE* f;
    bool owned = false;  ///< created by this save and not yet renamed
    ~TempFile() {
      if (f != nullptr) std::fclose(f);
      if (owned) std::remove(name.c_str());
    }
  } temp{tmp, std::fopen(tmp.c_str(), "wbx")};  // x: fail rather than reuse a file
  TASER_CHECK_MSG(temp.f != nullptr,
                  "cannot open " << tmp << " for writing: " << std::strerror(errno));
  temp.owned = true;
  const std::uint32_t header[2] = {kMagic, kFormatVersion};
  write_bytes(temp.f, header, sizeof(header));

  const auto named = module.named_parameters();
  write_u64(temp.f, named.size());
  for (const auto& [name, tensor] : named) {
    TASER_FAILPOINT("nn.save.write");
    write_string(temp.f, name);
    const auto& shape = tensor.shape();
    write_u64(temp.f, shape.size());
    for (auto d : shape) write_u64(temp.f, static_cast<std::uint64_t>(d));
    write_bytes(temp.f, tensor.data(), static_cast<std::size_t>(tensor.numel()) * sizeof(float));
  }
  TASER_CHECK_MSG(std::fflush(temp.f) == 0 && ::fsync(::fileno(temp.f)) == 0,
                  "cannot flush " << tmp << ": " << std::strerror(errno));
  std::FILE* f = std::exchange(temp.f, nullptr);
  TASER_CHECK_MSG(std::fclose(f) == 0, "cannot close " << tmp << ": " << std::strerror(errno));
  TASER_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot rename " << tmp << " over " << path << ": " << std::strerror(errno));
  temp.owned = false;
}

ParameterBundle read_parameters(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TASER_CHECK_MSG(is.good(), "cannot open " << path);
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  TASER_CHECK_MSG(magic != kLegacyMagic,
                  path << " is a pre-versioned (TSR1) checkpoint; re-save it with "
                          "this build to gain the format-version header");
  TASER_CHECK_MSG(magic == kMagic, path << " is not a TASER checkpoint");
  std::uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  TASER_CHECK_MSG(version == kFormatVersion,
                  path << " uses checkpoint format version " << version
                       << "; this build reads version " << kFormatVersion
                       << " only — upgrade the serving binary, not the checkpoint");

  ParameterBundle bundle;
  const std::uint64_t count = read_u64(is);
  TASER_CHECK_MSG(count < (1u << 20), "corrupt checkpoint: parameter count " << count);
  bundle.entries.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    ParameterBundle::Entry entry;
    entry.name = read_string(is);
    const std::uint64_t rank = read_u64(is);
    TASER_CHECK_MSG(rank < 16, "corrupt checkpoint: rank " << rank << " for '"
                                                           << entry.name << "'");
    entry.shape.resize(rank);
    // Bound each dimension and the running element count: a corrupt dim
    // must fail with a clear error here, not wrap numel (2^32 x 2^32 → 0
    // reads zero floats and misparses everything after) or overflow the
    // byte count handed to read(). Each factor and the running product
    // stay ≤ 2^31, so the u64 multiply below cannot wrap before the check.
    constexpr std::uint64_t kMaxNumel = 1ull << 31;
    std::uint64_t numel = 1;
    for (auto& d : entry.shape) {
      const std::uint64_t raw = read_u64(is);
      TASER_CHECK_MSG(raw <= kMaxNumel, "corrupt checkpoint: dimension "
                                            << raw << " for '" << entry.name
                                            << "'");
      d = static_cast<std::int64_t>(raw);
      numel *= raw;
      TASER_CHECK_MSG(numel <= kMaxNumel, "corrupt checkpoint: '"
                                              << entry.name << "' claims "
                                              << numel << " elements");
    }
    entry.data.resize(numel);
    is.read(reinterpret_cast<char*>(entry.data.data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    TASER_CHECK_MSG(is.good(), "truncated checkpoint at '" << entry.name << "'");
    bundle.entries.push_back(std::move(entry));
  }
  return bundle;
}

void install_parameters(Module& module, const ParameterBundle& bundle) {
  auto named = module.named_parameters();
  std::map<std::string, Tensor> by_name(named.begin(), named.end());
  TASER_CHECK_MSG(bundle.entries.size() == by_name.size(),
                  "checkpoint has " << bundle.entries.size()
                                    << " parameters, model expects "
                                    << by_name.size());
  // Two passes — validate EVERYTHING, then copy: a name or shape mismatch
  // must leave the module untouched, not half-overwritten (the
  // all-or-nothing load contract).
  for (const auto& entry : bundle.entries) {
    auto it = by_name.find(entry.name);
    TASER_CHECK_MSG(it != by_name.end(), "unknown parameter '" << entry.name << "'");
    TASER_CHECK_MSG(entry.shape == it->second.shape(),
                    "shape mismatch for '" << entry.name << "': checkpoint "
                                           << tensor::shape_str(entry.shape)
                                           << " vs model "
                                           << tensor::shape_str(it->second.shape()));
  }
  for (const auto& entry : bundle.entries) {
    Tensor& t = by_name.find(entry.name)->second;
    std::copy(entry.data.begin(), entry.data.end(), t.data());
  }
}

void load_parameters(Module& module, const std::string& path) {
  install_parameters(module, read_parameters(path));
}

}  // namespace taser::nn
