/// \file wave_program.hpp
/// \brief Second dataflow application: explicit acoustic wave propagation
///        on the simulated wafer-scale engine.
///
/// The paper's Discussion (Section 8) argues its diagonal communication
/// pattern "enables the implementation of other types of applications,
/// such as solving the acoustic wave equation on tilted transversely
/// isotropic media, that also require fetching data from diagonal
/// neighbors". This program demonstrates exactly that: a second-order
/// leapfrog scheme
///
///   u^{t+1} = 2 u^t - u^{t-1} - kappa * (A u^t)
///
/// whose spatial operator A is any 11-point LinearStencil (including the
/// four X-Y diagonal couplings), applied each step through the same
/// cardinal + diagonal halo exchange as the TPFA flux kernel.
///
/// The program is a `fvf::spec` stencil program: `make_wave_spec`
/// declares the static-halo exchange of u^t and the per-PE memory layout,
/// and the (file-local) wave kernel owns both time levels and rotates
/// them after every round.
#pragma once

#include "common/array3d.hpp"
#include "core/linear_stencil.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

/// Wave-kernel options shared by every PE.
struct WaveKernelOptions {
  i32 timesteps = 1;
  f32 kappa = 1.0f;  ///< dt^2 c^2 scaling of the spatial operator
};

/// The declarative description of the wave program: the static-halo
/// exchange of u^t (no reduction) and the complete ordered per-PE memory
/// layout.
[[nodiscard]] spec::StencilSpec make_wave_spec();

/// The field of a wave run, from either driver.
struct WaveFields {
  Array3<f32> field;  ///< u at the final timestep
};
/// A fabric wave run: the run's accounting plus the field.
using DataflowWaveResult = spec::Result<WaveFields, dataflow::RunInfo>;

/// The launch of `kernel.timesteps` leapfrog steps from `initial`. The
/// referenced stencil and initial field must outlive every driver call.
[[nodiscard]] spec::Launch wave_launch(const LinearStencil& stencil,
                                       const Array3<f32>& initial,
                                       const WaveKernelOptions& kernel);

/// The field of a finished wave_launch run of either driver.
[[nodiscard]] WaveFields gather_wave(const spec::KernelGrid& run);

/// Host f64 reference of the same leapfrog iteration.
[[nodiscard]] Array3<f32> wave_reference_host(const LinearStencil& stencil,
                                              const Array3<f32>& initial,
                                              f32 kappa, i32 timesteps);

/// A centred Gaussian pulse initial condition.
[[nodiscard]] Array3<f32> gaussian_pulse(Extents3 extents, f64 amplitude,
                                         f64 sigma_cells);

}  // namespace fvf::core
