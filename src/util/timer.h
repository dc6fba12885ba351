#pragma once

#include <array>
#include <chrono>
#include <string>

#include "obs/trace.h"

namespace taser::util {

/// Monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = clock::now(); }
  /// Seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The runtime-breakdown phases (paper Table III / Fig. 1): wall-time
/// entries plus their ".sim" twins (simulated device time accrued in the
/// same phase). A small closed enum, interned at compile time, so the
/// hot-path accumulator is a flat array add — the former
/// map<std::string, double> heap-allocated a node (and rebalanced) per
/// *new* key and hashed/compared strings per add, inside the build loop.
enum class Phase : std::uint8_t {
  kNF = 0,   // neighbor finding (wall)
  kNFSim,    // finder kernels / index H2D
  kAS,       // adaptive sampling (wall)
  kASSim,    // modeled sampler device compute
  kFS,       // feature slicing (wall)
  kFSSim,    // transfers / gathers
  kPP,       // propagation (wall)
  kPPSim,    // modeled backbone device compute
  kCount
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// Canonical display name (the former string keys, unchanged).
inline const char* phase_name(Phase p) {
  static constexpr const char* kNames[kPhaseCount] = {
      "NF", "NF.sim", "AS", "AS.sim", "FS", "FS.sim", "PP", "PP.sim"};
  return kNames[static_cast<std::size_t>(p)];
}

/// Interned trace-span name for a phase ("phase.NF", …). Lazily interned
/// once per process; ScopedPhase emits spans under these so the runtime
/// breakdown is visible in Chrome traces too.
inline obs::SpanName phase_span_name(Phase p) {
  static const std::array<obs::SpanName, kPhaseCount> names = [] {
    std::array<obs::SpanName, kPhaseCount> a{};
    for (std::size_t i = 0; i < kPhaseCount; ++i)
      a[i] = obs::intern_span_name(std::string("phase.") +
                                   phase_name(static_cast<Phase>(i)));
    return a;
  }();
  return names[static_cast<std::size_t>(p)];
}

/// Accumulates per-phase durations (NF / AS / FS / PP breakdowns) in a
/// fixed array — add() is branch-free index arithmetic, no allocation,
/// no string compare. Not thread-safe; each worker keeps its own and
/// merges.
class PhaseAccumulator {
 public:
  void add(Phase phase, double seconds) {
    totals_[static_cast<std::size_t>(phase)] += seconds;
  }
  double total(Phase phase) const {
    return totals_[static_cast<std::size_t>(phase)];
  }
  void merge(const PhaseAccumulator& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) totals_[i] += other.totals_[i];
  }
  void clear() { totals_.fill(0.0); }

 private:
  std::array<double, kPhaseCount> totals_{};
};

/// RAII helper: times a scope and adds it to an accumulator under
/// `phase`, and emits a matching trace span when tracing is enabled.
class ScopedPhase {
 public:
  ScopedPhase(PhaseAccumulator& acc, Phase phase)
      : acc_(acc), phase_(phase), span_(phase_span_name(phase)) {}
  ~ScopedPhase() { acc_.add(phase_, timer_.seconds()); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseAccumulator& acc_;
  Phase phase_;
  obs::TraceSpan span_;
  WallTimer timer_;
};

}  // namespace taser::util
