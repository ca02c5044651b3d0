/// \file heat.hpp
/// \brief 2D heat diffusion with a 9-point stencil — the first kernel
///        authored directly as a `fvf::spec` program rather than ported
///        from a hand-written one.
///
/// Each PE owns one Z column of a scalar field u. Per step, every PE
/// exchanges its u column with all eight XY neighbors (static halo) and
/// applies one explicit Jacobi update per layer:
///
///   u' = u + alpha * sum_f w_f * (u_nb - u)
///
/// with cardinal weight 4/6 and diagonal weight 1/6 (the classical
/// 9-point Laplacian weighting). Z layers are independent; fabric-edge
/// faces are skipped (no-flux boundary). A host mirror
/// (heat_reference_host) replicates the f32 arithmetic and face order
/// operation-for-operation for bitwise validation.
#pragma once

#include "common/array3d.hpp"
#include "spec/launch.hpp"

namespace fvf::spec {

/// Kernel options shared by every PE.
struct HeatKernelOptions {
  i32 steps = 10;      ///< explicit Jacobi steps to run
  f32 alpha = 0.125f;  ///< diffusion number (stable for alpha <= 1/8)
};

/// Classical 9-point Laplacian weights (cardinal:diagonal ratio 4:1,
/// normalized so the eight weights sum to 4). Shared by the PE kernel
/// and the host mirror so the two agree bit-for-bit.
inline constexpr f32 kHeatCardinalWeight = 4.0f / 6.0f;
inline constexpr f32 kHeatDiagonalWeight = 1.0f / 6.0f;

[[nodiscard]] inline f32 heat_face_weight(mesh::Face face) {
  const Coord3 off = mesh::face_offset(face);
  return (off.x != 0 && off.y != 0) ? kHeatDiagonalWeight
                                    : kHeatCardinalWeight;
}

/// The declarative description of the heat program.
[[nodiscard]] StencilSpec make_heat_spec();

/// The diffused field of a heat run, from either driver.
struct HeatFields {
  Array3<f32> field;
  i32 steps_completed = 0;
};
/// A fabric heat run: the run's accounting plus the field.
using DataflowHeatResult = Result<HeatFields, dataflow::RunInfo>;

/// The launch of `kernel.steps` Jacobi steps on `field`, one PE per
/// column. The referenced field must outlive every driver call.
[[nodiscard]] Launch heat_launch(const Array3<f32>& field,
                                 const HeatKernelOptions& kernel);

/// The field of a finished heat_launch run of either driver.
[[nodiscard]] HeatFields gather_heat(const KernelGrid& run);

/// Host mirror of the fabric heat run: identical f32 arithmetic and face
/// order, for bitwise validation.
[[nodiscard]] Array3<f32> heat_reference_host(const Array3<f32>& field,
                                              const HeatKernelOptions& options);

/// Deterministic pseudo-random initial field in [0, 1), built from an
/// integer hash of the cell's linear index (no libm, no global RNG).
[[nodiscard]] Array3<f32> heat_initial_field(Extents3 extents, u64 seed);

}  // namespace fvf::spec
