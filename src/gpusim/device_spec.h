#pragma once

#include <string>

namespace taser::gpusim {

/// Parameters of the simulated accelerator. Defaults are taken from the
/// paper's testbed (NVIDIA RTX 6000 Ada, 48GB GDDR6, PCIe 4.0 x16); the
/// performance model (perf_model.h) converts counted kernel work into
/// simulated time using these constants. Everything here is a *model*:
/// modeled device time comes from a roofline over these constants and is
/// reported beside measured host wall time, never in place of it.
struct DeviceSpec {
  std::string name = "rtx6000ada-sim";
  int num_sms = 142;
  int max_threads_per_sm = 1536;
  int warp_size = 32;
  double clock_ghz = 2.5;
  /// fp32/int lanes per SM per cycle (dual-issue CUDA cores).
  double issue_per_sm_per_cycle = 128.0;
  /// Peak VRAM bandwidth (GB/s).
  double vram_gbps = 960.0;
  /// Effective PCIe 4.0 x16 bandwidth for bulk copies (GB/s).
  double pcie_gbps = 25.0;
  /// Effective bandwidth of fine-grained zero-copy (UVM) reads over
  /// PCIe — latency-bound random access, far below bulk copy rate.
  double pcie_random_gbps = 6.0;
  /// Effective bandwidth of the host-side row gather that precedes a
  /// bulk H2D copy in the baseline feature-slicing path (random-access
  /// DRAM reads + pinned-buffer writes).
  double host_slice_gbps = 8.0;
  /// Fixed kernel launch overhead (microseconds).
  double kernel_launch_us = 5.0;
  /// Fixed per-transfer latency (microseconds) added to every H2D/D2H.
  double transfer_latency_us = 8.0;
  /// Extra cycles charged per atomic operation.
  double atomic_cost_cycles = 20.0;
  /// VRAM capacity in bytes (used by caches to size themselves).
  double vram_bytes = 48.0 * (1ull << 30);

  double total_issue_per_sec() const {
    return static_cast<double>(num_sms) * issue_per_sm_per_cycle * clock_ghz * 1e9;
  }
  double sm_issue_per_sec() const { return issue_per_sm_per_cycle * clock_ghz * 1e9; }
};

/// The paper's GPU.
inline DeviceSpec rtx6000ada() { return DeviceSpec{}; }

/// A deliberately small GPU (useful in tests to make modeled effects big).
inline DeviceSpec tiny_gpu() {
  DeviceSpec spec;
  spec.name = "tiny-sim";
  spec.num_sms = 4;
  spec.vram_gbps = 50.0;
  spec.pcie_gbps = 4.0;
  spec.pcie_random_gbps = 1.0;
  return spec;
}

}  // namespace taser::gpusim
