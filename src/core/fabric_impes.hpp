/// \file fabric_impes.hpp
/// \brief The full IMPES loop with BOTH kernels on the simulated
///        wafer-scale engine: each window solves the lagged-mobility
///        pressure system with the fabric CG solver (cg_program.hpp) and
///        advances saturations with the fabric transport program
///        (transport_program.hpp). The host only re-assembles the lagged
///        coefficients between windows — the same role the paper's host
///        machine plays ("only used to schedule the workload",
///        Section 7.1). The same driver runs the same two kernels on the
///        fabric-free executor for the gpusim backend.
///
/// This realizes the paper's Section 9 future work end to end:
/// "developing nonlinear and linear solvers on a dataflow architecture
/// can broaden the scope of FV applications".
#pragma once

#include <vector>

#include "common/array3d.hpp"
#include "core/cg_program.hpp"
#include "core/transport_program.hpp"
#include "physics/problem.hpp"

namespace fvf::core {

struct FabricImpesOptions {
  TransportFluid fluid{};
  f64 porosity = 0.2;
  f32 cfl = 0.5f;
  Coord3 anchor_cell{0, 0, 0};
  f64 anchor_pressure = 20.0e6;
  CgKernelOptions cg{.max_iterations = 1500, .relative_tolerance = 1e-5f};
  i32 max_substeps_per_window = 5000;
  /// Launch options of both fabric launches of every window (the gpusim
  /// backend ignores them).
  dataflow::HarnessOptions harness{};
};

/// Per-window statistics.
struct FabricImpesWindow {
  i32 cg_iterations = 0;
  bool cg_converged = false;
  i32 transport_substeps = 0;
  f64 device_seconds = 0.0;  ///< simulated fabric time (CG + transport)
  u64 hazards = 0;  ///< memory hazards flagged (CG + transport), when on
  /// Full fabric accounting of the window, accumulated over both
  /// launches (dataflow::accumulate: CG solve + transport advance).
  /// Empty for a gpusim window.
  dataflow::RunInfo fabric{};
  /// GPU accounting of a gpusim window (CG solve + transport advance);
  /// empty for a fabric window.
  gpusim::GpuRunInfo gpu{};
};

/// IMPES driver: pressure and transport both on the fabric, or both on
/// the fabric-free executor.
class FabricImpesSimulator {
 public:
  FabricImpesSimulator(const physics::FlowProblem& problem,
                       FabricImpesOptions options);

  /// Registers a constant-rate injection of the non-wetting phase.
  void add_well(Coord3 cell, f64 volume_rate);

  /// Advances one IMPES window on `backend`: one pressure solve +
  /// explicit transport to `seconds` of simulated time.
  [[nodiscard]] FabricImpesWindow advance_window(
      f64 seconds, spec::Backend backend = spec::Backend::Wse);

  /// Replaces the simulator state with checkpointed fields (both on the
  /// problem's extents). The host carries no other per-window state, so
  /// a simulator restored from the fields saved after window k advances
  /// bit-identically to one that ran windows 1..k itself — the
  /// checkpoint/restore contract of long scenario-service jobs.
  void restore_state(const Array3<f32>& saturation,
                     const Array3<f32>& pressure);

  [[nodiscard]] const Array3<f32>& saturation() const noexcept {
    return saturation_;
  }
  [[nodiscard]] const Array3<f32>& pressure() const noexcept {
    return pressure_;
  }
  /// Non-wetting phase volume in place [m^3].
  [[nodiscard]] f64 co2_in_place() const;

 private:
  /// The lagged-mobility SPD pressure system of the current state,
  /// Jacobi-scaled, with its scaled rhs: phase-potential upwinding on the
  /// previous pressure, gravity source terms, and an anchor penalty that
  /// pins the incompressible system's pressure level.
  [[nodiscard]] ScaledSystem pressure_system(Array3<f32>& scaled_rhs) const;
  /// The transport kernel of a window of `seconds`.
  [[nodiscard]] TransportKernelOptions transport_kernel(f64 seconds) const;

  const physics::FlowProblem& problem_;
  FabricImpesOptions options_;
  Array3<f32> saturation_;
  Array3<f32> pressure_;
  Array3<f32> well_rate_;
};

}  // namespace fvf::core
