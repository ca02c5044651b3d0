/// \file device.hpp
/// \brief Simulated GPU device (substitution for the NVIDIA A100 of paper
///        Section 6): explicit host/device memory spaces, kernel launches,
///        and cudaEvent-style timers driven by an analytic timing model.
///
/// Kernels execute *functionally* on the host so their numerical output
/// is real; the *device time* they would take is computed from a
/// bandwidth/compute roofline model calibrated to the paper's published
/// A100 measurements (see EXPERIMENTS.md for the calibration).
///
/// One kernel body, two drivers: spec::execute runs every field-equation
/// kernel's own per-PE StencilKernel — the body the fabric runs — and
/// records one launch per hook sweep with the flops and bytes the kernel
/// charged; baseline:: runs the paper's hand-written RAJA/CUDA TPFA
/// through launch_3d for Table 1's calibrated comparison.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf::gpusim {

/// Static description of a device's performance envelope.
struct DeviceSpec {
  std::string name = "sim-gpu";
  f64 dram_bandwidth_bytes_per_s = 1.555e12;  ///< A100-40GB HBM2e
  f64 peak_fp32_flops = 19.5e12;              ///< A100 FP32 (non-TC)
  f64 kernel_launch_overhead_s = 4.0e-6;
  f64 pcie_bandwidth_bytes_per_s = 25.0e9;    ///< host<->device copies
  u64 memory_bytes = 40ull * 1024 * 1024 * 1024;
  /// Fraction of nominal DRAM bandwidth a well-tuned streaming kernel
  /// sustains (ERT-style measured ceiling vs. datasheet).
  f64 achievable_bandwidth_fraction = 0.92;
};

/// An A100-40GB-like device.
[[nodiscard]] DeviceSpec a100_spec();

/// Estimated resource usage of one kernel launch, supplied by the caller
/// (the launch harness computes it from the cells processed).
struct KernelTraffic {
  f64 dram_bytes = 0.0;
  f64 flops = 0.0;
};

/// A typed allocation in the simulated device memory.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(usize count) : storage_(count) {}

  [[nodiscard]] usize size() const noexcept { return storage_.size(); }
  [[nodiscard]] usize bytes() const noexcept {
    return storage_.size() * sizeof(T);
  }
  [[nodiscard]] T* data() noexcept { return storage_.data(); }
  [[nodiscard]] const T* data() const noexcept { return storage_.data(); }
  [[nodiscard]] std::span<T> span() noexcept { return storage_; }
  [[nodiscard]] std::span<const T> span() const noexcept { return storage_; }

 private:
  std::vector<T> storage_;
};

/// A point on the device timeline (cudaEvent analog).
struct DeviceEvent {
  f64 timeline_s = 0.0;
};

/// The simulated device: memory accounting plus a busy-timeline that
/// kernel launches and copies append to.
class Device {
 public:
  explicit Device(DeviceSpec spec = a100_spec()) : spec_(std::move(spec)) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

  /// Allocates device memory (throws if the 40 GB capacity is exceeded —
  /// the paper notes it sizes meshes to fit device memory wholesale).
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(usize count, const char* tag = "") {
    const usize bytes = count * sizeof(T);
    FVF_REQUIRE_MSG(allocated_ + bytes <= spec_.memory_bytes,
                    "device out of memory allocating " << bytes << " B ("
                                                       << tag << ")");
    allocated_ += bytes;
    return DeviceBuffer<T>(count);
  }

  /// Host -> device copy: data is copied and the PCIe time appended.
  template <typename T>
  void copy_to_device(std::span<const T> host, DeviceBuffer<T>& device) {
    FVF_REQUIRE(host.size() == device.size());
    std::copy(host.begin(), host.end(), device.data());
    const f64 bytes = static_cast<f64>(host.size_bytes());
    h2d_bytes_ += host.size_bytes();
    timeline_s_ += bytes / spec_.pcie_bandwidth_bytes_per_s;
  }

  template <typename T>
  void copy_to_host(const DeviceBuffer<T>& device, std::span<T> host) {
    FVF_REQUIRE(host.size() == device.size());
    std::copy(device.data(), device.data() + device.size(), host.begin());
    const f64 bytes = static_cast<f64>(host.size_bytes());
    d2h_bytes_ += host.size_bytes();
    timeline_s_ += bytes / spec_.pcie_bandwidth_bytes_per_s;
  }

  /// Appends one kernel execution to the device timeline: the roofline
  /// duration max(bytes/BW, flops/peak) plus launch overhead.
  f64 record_kernel(const KernelTraffic& traffic) {
    const f64 bw = spec_.dram_bandwidth_bytes_per_s *
                   spec_.achievable_bandwidth_fraction;
    const f64 mem_time = traffic.dram_bytes / bw;
    const f64 compute_time = traffic.flops / spec_.peak_fp32_flops;
    const f64 duration =
        spec_.kernel_launch_overhead_s + std::max(mem_time, compute_time);
    timeline_s_ += duration;
    ++kernels_launched_;
    return duration;
  }

  /// cudaEventRecord analog.
  [[nodiscard]] DeviceEvent record_event() const noexcept {
    return DeviceEvent{timeline_s_};
  }
  /// cudaEventElapsedTime analog (seconds, not milliseconds).
  [[nodiscard]] static f64 elapsed_seconds(DeviceEvent start,
                                           DeviceEvent stop) noexcept {
    return stop.timeline_s - start.timeline_s;
  }

  [[nodiscard]] u64 kernels_launched() const noexcept {
    return kernels_launched_;
  }
  [[nodiscard]] usize allocated_bytes() const noexcept { return allocated_; }
  [[nodiscard]] usize h2d_bytes() const noexcept { return h2d_bytes_; }
  [[nodiscard]] usize d2h_bytes() const noexcept { return d2h_bytes_; }

 private:
  DeviceSpec spec_;
  usize allocated_ = 0;
  usize h2d_bytes_ = 0;
  usize d2h_bytes_ = 0;
  u64 kernels_launched_ = 0;
  f64 timeline_s_ = 0.0;
};

}  // namespace fvf::gpusim
