/// \file transport_program.hpp
/// \brief Explicit two-phase saturation transport as a dataflow program —
///        together with the fabric CG pressure solve (cg_program.hpp)
///        this puts the full IMPES loop on the simulated wafer-scale
///        engine, the paper's "nonlinear and linear solvers on a dataflow
///        architecture" future work (Section 9).
///
/// Per sub-step, every PE:
///   1. exchanges its [saturation | pressure] column with all ten
///      neighbors (cardinal + diagonal halo, Figure 5/6 machinery),
///   2. computes the non-wetting phase flux through each face with
///      phase-potential upwinding and accumulates dS,
///   3. contributes its local CFL bound to a fabric-wide MIN all-reduce,
///   4. applies the globally agreed dt and either finishes the window or
///      starts the next sub-step.
///
/// The global minimum makes every PE take the identical dt, so the
/// distributed explicit integration is deterministic and terminates
/// uniformly. A host mirror (transport_reference_host) replicates the
/// arithmetic operation-for-operation in f32 for bitwise validation.
///
/// Like TPFA, the program is expressed as a `fvf::spec` stencil program:
/// `make_transport_spec` declares the static-halo exchange, the dt
/// MIN-reduction, and the per-PE memory layout; the physics arrives as
/// the (file-local) TransportKernel's round callbacks.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/array3d.hpp"
#include "physics/problem.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

/// Fluid/rock constants of the transport kernel (f32, as on the PE).
struct TransportFluid {
  f32 viscosity_wetting = 5.0e-4f;
  f32 viscosity_nonwetting = 5.5e-5f;
  f32 density_wetting = 1050.0f;
  f32 density_nonwetting = 700.0f;
  f32 corey_exponent = 2.0f;
  f32 gravity = 9.80665f;  ///< 0 disables the gravity term
};

/// The per-face two-phase flux in f32 — shared verbatim by the PE
/// kernel and the host mirror so the two agree bit-for-bit.
struct TransportFaceFlux {
  f32 nonwetting = 0.0f;
  f32 magnitude = 0.0f;  ///< |F_n| + |F_w| for the CFL bound
};

[[nodiscard]] inline f32 transport_corey(f32 s, f32 exponent) {
  return std::pow(std::clamp(s, 0.0f, 1.0f), exponent);
}

[[nodiscard]] inline TransportFaceFlux transport_face(
    f32 s_self, f32 s_nb, f32 p_self, f32 p_nb, f32 z_self, f32 z_nb,
    f32 trans, const TransportFluid& fl) {
  const f32 dz = z_self - z_nb;
  const f32 dp = p_self - p_nb;
  const f32 dphi_n = dp + fl.density_nonwetting * fl.gravity * dz;
  const f32 s_up_n = dphi_n > 0.0f ? s_self : s_nb;
  const f32 flux_n =
      trans *
      (transport_corey(s_up_n, fl.corey_exponent) / fl.viscosity_nonwetting) *
      dphi_n;
  const f32 dphi_w = dp + fl.density_wetting * fl.gravity * dz;
  const f32 s_up_w = dphi_w > 0.0f ? s_self : s_nb;
  const f32 flux_w =
      trans *
      (transport_corey(1.0f - s_up_w, fl.corey_exponent) /
       fl.viscosity_wetting) *
      dphi_w;
  return TransportFaceFlux{flux_n, std::abs(flux_n) + std::abs(flux_w)};
}

/// Kernel options shared by every PE.
struct TransportKernelOptions {
  TransportFluid fluid{};
  f32 cfl = 0.5f;
  f64 window_seconds = 0.0;  ///< simulated time to advance
  i32 max_substeps = 10000;
  f32 pore_volume = 0.0;     ///< phi * V per cell (uniform mesh)
};

/// The declarative description of the transport program: the [S | p]
/// static-halo exchange, the fabric-wide dt MIN-reduction, and the
/// complete ordered per-PE memory layout.
[[nodiscard]] spec::StencilSpec make_transport_spec();

/// The advanced state of a transport window, from either driver.
struct TransportFields {
  Array3<f32> saturation;
  i32 substeps = 0;
  f64 advanced_seconds = 0.0;
};
/// A fabric transport window: the run's accounting plus the state.
using DataflowTransportResult =
    spec::Result<TransportFields, dataflow::RunInfo>;

/// The launch that advances saturations by `kernel.window_seconds`,
/// holding `pressure` fixed (one IMPES transport window). The referenced
/// problem and field arrays must outlive every driver call.
[[nodiscard]] spec::Launch transport_launch(
    const physics::FlowProblem& problem, const Array3<f32>& saturation,
    const Array3<f32>& pressure, const Array3<f32>& well_rate,
    const TransportKernelOptions& kernel);

/// The state of a finished transport_launch run of either driver.
[[nodiscard]] TransportFields gather_transport(const spec::KernelGrid& run);

/// Host mirror of the fabric transport window: identical f32 arithmetic
/// and face order, for bitwise validation.
[[nodiscard]] Array3<f32> transport_reference_host(
    const physics::FlowProblem& problem, const Array3<f32>& saturation,
    const Array3<f32>& pressure, const Array3<f32>& well_rate,
    const TransportKernelOptions& options);

}  // namespace fvf::core
