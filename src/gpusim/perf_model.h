#pragma once

#include <cstdint>

#include "gpusim/device_spec.h"

namespace taser::gpusim {

/// Work counted during the functional execution of a kernel. The
/// counters are incremented by kernel code through BlockCtx.
struct KernelStats {
  std::uint64_t thread_instructions = 0;  ///< abstract ALU ops across all threads
  std::uint64_t global_read_bytes = 0;
  std::uint64_t global_write_bytes = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t atomic_ops = 0;
  /// Longest single block's instruction count — bounds the tail when the
  /// grid underfills the machine.
  std::uint64_t max_block_instructions = 0;

  void merge(const KernelStats& other) {
    thread_instructions += other.thread_instructions;
    global_read_bytes += other.global_read_bytes;
    global_write_bytes += other.global_write_bytes;
    shared_accesses += other.shared_accesses;
    atomic_ops += other.atomic_ops;
    if (other.max_block_instructions > max_block_instructions)
      max_block_instructions = other.max_block_instructions;
  }
};

/// Simulated durations are plain seconds, but typed so call sites cannot
/// silently mix modeled and measured values.
struct SimDuration {
  double seconds = 0;
  SimDuration& operator+=(const SimDuration& o) {
    seconds += o.seconds;
    return *this;
  }
};

inline SimDuration operator+(SimDuration a, SimDuration b) {
  return {a.seconds + b.seconds};
}

/// Roofline-style conversion from counted work to simulated device time:
/// a kernel takes max(compute, memory, atomic serialisation, longest
/// block) plus a fixed launch overhead. Deliberately simple — the claims
/// we reproduce (orders-of-magnitude finder gaps, cache removing the
/// PCIe bottleneck) are bandwidth/parallelism arguments, which a roofline
/// captures; cycle-accurate simulation would add nothing but noise.
class PerfModel {
 public:
  explicit PerfModel(DeviceSpec spec) : spec_(spec) {}

  const DeviceSpec& spec() const { return spec_; }

  SimDuration kernel_time(const KernelStats& stats) const {
    const double compute = static_cast<double>(stats.thread_instructions) /
                           spec_.total_issue_per_sec();
    const double memory =
        static_cast<double>(stats.global_read_bytes + stats.global_write_bytes) /
        (spec_.vram_gbps * 1e9);
    // Shared memory is ~10x VRAM bandwidth.
    const double shared = static_cast<double>(stats.shared_accesses) * 4.0 /
                          (spec_.vram_gbps * 1e10);
    const double atomics = static_cast<double>(stats.atomic_ops) *
                           spec_.atomic_cost_cycles /
                           (spec_.clock_ghz * 1e9 * spec_.num_sms);
    const double tail = static_cast<double>(stats.max_block_instructions) /
                        spec_.sm_issue_per_sec();
    double body = compute;
    body = body < memory ? memory : body;
    body = body < shared ? shared : body;
    body = body < atomics ? atomics : body;
    body = body < tail ? tail : body;
    return {spec_.kernel_launch_us * 1e-6 + body};
  }

  /// Bulk host-to-device copy.
  SimDuration h2d_time(std::uint64_t bytes) const {
    return {spec_.transfer_latency_us * 1e-6 +
            static_cast<double>(bytes) / (spec_.pcie_gbps * 1e9)};
  }

  /// Fine-grained zero-copy reads over PCIe (UVM): latency-bound.
  SimDuration zero_copy_time(std::uint64_t bytes) const {
    return {static_cast<double>(bytes) / (spec_.pcie_random_gbps * 1e9)};
  }

  /// Host-side row gather (baseline slicing path): random DRAM reads
  /// into a staging buffer before the bulk H2D copy.
  SimDuration host_slice_time(std::uint64_t bytes) const {
    return {static_cast<double>(bytes) / (spec_.host_slice_gbps * 1e9)};
  }

  /// On-device gather from VRAM (cache hits).
  SimDuration vram_gather_time(std::uint64_t bytes) const {
    return {static_cast<double>(bytes) / (spec_.vram_gbps * 1e9)};
  }

  /// Neural-network compute: `flops` of dense work issued as `launches`
  /// kernels. Effective throughput is a fraction of peak (mixed small
  /// GEMMs and elementwise kernels never reach peak); launch overhead
  /// dominates for small models, exactly as on real hardware.
  SimDuration nn_time(std::uint64_t flops, std::uint64_t launches) const {
    // ~2 fp ops per lane per cycle at ~45% efficiency.
    const double eff_flops = spec_.total_issue_per_sec() * 2.0 * 0.45;
    return {static_cast<double>(launches) * spec_.kernel_launch_us * 1e-6 +
            static_cast<double>(flops) / eff_flops};
  }

 private:
  DeviceSpec spec_;
};

}  // namespace taser::gpusim
