/// \file fields.hpp
/// \brief Synthetic geomodel property generators.
///
/// The paper runs on "highly detailed geomodels" that are proprietary; per
/// the reproduction rules we substitute deterministic synthetic fields that
/// exercise the same code paths: heterogeneous permeability spanning
/// several orders of magnitude, layered stratigraphy, and smoothly
/// correlated log-normal variation, plus hydrostatic-plus-perturbation
/// initial pressure fields.
///
/// Every generator is deterministic in its seed, whatever the host's
/// thread count. lognormal_permeability splits its per-cell steps (the
/// Box–Muller transform, the smoothing passes and the pow(10, ·) map)
/// over the host's threads by mesh row from kParallelBuildMinCells cells
/// up (mesh/row_split.hpp); each of those cells is a fixed expression of
/// an array no task writes, so the bytes match a one-thread build. What
/// carries an order stays on the calling thread: the Xoshiro256 stream
/// (drawn in cell order, two uniforms per cell, before the transform),
/// the noise mean and variance sums, and the random draws of
/// layered_permeability, channelized_permeability and
/// hydrostatic_pressure (those three run on the calling thread alone).
#pragma once

#include <cmath>

#include "common/array3d.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mesh/cartesian_mesh.hpp"

namespace fvf::mesh {

/// Uniform permeability [m^2].
[[nodiscard]] Array3<f32> homogeneous_field(Extents3 extents, f32 value);

/// Layer-cake permeability: each z-layer gets a log-uniform value in
/// [min_value, max_value], deterministic in `seed`.
[[nodiscard]] Array3<f32> layered_permeability(Extents3 extents, f32 min_value,
                                               f32 max_value, u64 seed);

/// Correlated log-normal permeability: white noise smoothed by
/// `smoothing_passes` sweeps of a 7-point box filter, then exponentiated
/// so that log10(k) has roughly the requested mean and spread.
struct LognormalOptions {
  f64 log10_mean = -13.0;   ///< mean of log10(k [m^2]) ~ 100 mD
  f64 log10_sigma = 1.0;    ///< spread of log10(k)
  int smoothing_passes = 3; ///< correlation length control
  u64 seed = 42;
};

[[nodiscard]] Array3<f32> lognormal_permeability(Extents3 extents,
                                                 const LognormalOptions& options);

/// Channelized (fluvial) permeability: sinuous high-permeability sand
/// channels meandering along X through a low-permeability background —
/// the classic heterogeneity structure of clastic storage reservoirs.
/// Channels are deterministic in `seed`; each z-layer band hosts its own
/// set of channels.
struct ChannelOptions {
  f32 background = 1.0e-15f;   ///< shale background [m^2] (~1 mD)
  f32 channel = 1.0e-12f;      ///< channel sand [m^2] (~1 D)
  i32 channels_per_layer = 2;  ///< meanders per z-layer
  f64 half_width_cells = 1.2;  ///< channel half-width in cells
  f64 amplitude_fraction = 0.25;  ///< meander amplitude as fraction of ny
  u64 seed = 42;
};

[[nodiscard]] Array3<f32> channelized_permeability(
    Extents3 extents, const ChannelOptions& options);

/// Hydrostatic pressure profile with an optional cell-wise random
/// perturbation: p(z) = p_top + rho*g*(z_top - z) + eps*U(-1,1).
struct PressureFieldOptions {
  f64 top_pressure = 20.0e6;     ///< [Pa] at the highest layer
  f64 reference_density = 800.0; ///< [kg/m^3] for the hydrostatic gradient
  f64 perturbation = 1.0e4;      ///< [Pa] amplitude of random noise
  u64 seed = 7;
};

[[nodiscard]] Array3<f32> hydrostatic_pressure(const CartesianMesh& mesh,
                                               const PressureFieldOptions& options);

/// A smooth, deterministic, iteration-dependent pressure field used to
/// emulate "a different pressure vector at every call" (Section 3) without
/// storing 1000 input vectors: a hydrostatic base plus a phase-shifted
/// trigonometric bump parameterised by the iteration number.
[[nodiscard]] Array3<f32> iteration_pressure(const CartesianMesh& mesh,
                                             const PressureFieldOptions& options,
                                             i32 iteration);

/// The per-cell pressure increment applied between application `iteration`
/// and `iteration + 1` of Algorithm 1. Shared by every implementation
/// (serial, GPU-style, dataflow) so all see bit-identical input vectors.
[[nodiscard]] inline f32 pressure_bump(i64 linear_index,
                                       i32 iteration) noexcept {
  const f32 phase = 0.1f * static_cast<f32>(iteration + 1);
  const f32 s = static_cast<f32>(linear_index % 97) * 0.0647f + phase;
  return 500.0f * std::sin(s);
}

/// Applies the same in-place pressure update the harness uses between two
/// applications of Algorithm 1 (cheap, vectorizable, deterministic).
void advance_pressure(Span3<f32> pressure, i32 iteration);

}  // namespace fvf::mesh
