/// \file heat.hpp
/// \brief 2D heat diffusion with a 9-point stencil — the first kernel
///        authored directly as a `fvf::spec` program, with no legacy
///        hand-written counterpart.
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

#include <memory>
#include <vector>

#include "common/array3d.hpp"
#include "dataflow/fabric_harness.hpp"
#include "spec/program.hpp"

namespace fvf::spec {

/// Kernel options shared by every PE.
struct HeatKernelOptions {
  i32 steps = 10;      ///< explicit Jacobi steps to run
  f32 alpha = 0.125f;  ///< diffusion number (stable for alpha <= 1/8)
};

/// Classical 9-point Laplacian weights (cardinal:diagonal ratio 4:1,
/// normalized so the eight weights sum to 4). Shared by the PE kernel,
/// the host mirror, and the gpusim backend so all three agree
/// bit-for-bit.
inline constexpr f32 kHeatCardinalWeight = 4.0f / 6.0f;
inline constexpr f32 kHeatDiagonalWeight = 1.0f / 6.0f;

[[nodiscard]] inline f32 heat_face_weight(mesh::Face face) {
  const Coord3 off = mesh::face_offset(face);
  return (off.x != 0 && off.y != 0) ? kHeatDiagonalWeight
                                    : kHeatCardinalWeight;
}

/// The declarative description of the heat program.
[[nodiscard]] StencilSpec make_heat_spec(const HeatKernelOptions& options);

class HeatKernel;

/// The per-PE heat program: a thin facade over the compiled-spec engine.
class HeatPeProgram final : public SpecPeProgram {
 public:
  /// `compiled` must be compile(make_heat_spec(options)), shared by
  /// every PE of the launch.
  HeatPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                std::shared_ptr<const CompiledSpec> compiled,
                HeatKernelOptions options, std::vector<f32> column,
                dataflow::HaloReliabilityOptions reliability = {});

  /// The u column after the final completed step.
  [[nodiscard]] std::span<const f32> field() const noexcept;
  [[nodiscard]] i32 steps_completed() const noexcept;

 private:
  HeatKernel* physics_;  ///< borrowed from the engine-owned kernel
};

/// Launch options.
struct DataflowHeatOptions : dataflow::HarnessOptions {
  HeatKernelOptions kernel{};
  dataflow::HaloReliabilityOptions reliability{};
};

/// Result of a heat run on the fabric: full fabric accounting plus the
/// diffused field.
struct DataflowHeatResult : dataflow::RunInfo {
  Array3<f32> field;
  i32 steps_completed = 0;
};

/// A loaded-but-not-run heat launch (see core/launcher.hpp::TpfaLoad).
/// The referenced field array must outlive the load.
struct HeatLoad {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<HeatPeProgram> grid;
};

/// Claims the heat colors and loads the per-PE programs without running
/// the event engine — the fvf_lint entry point, and the first half of
/// run_dataflow_heat.
[[nodiscard]] HeatLoad load_dataflow_heat(const Array3<f32>& field,
                                          const DataflowHeatOptions& options);

/// Runs `options.kernel.steps` Jacobi steps on the simulated fabric
/// (one PE per column) and gathers the diffused field.
[[nodiscard]] DataflowHeatResult run_dataflow_heat(
    const Array3<f32>& field, const DataflowHeatOptions& options);

/// Host mirror of the fabric heat run: identical f32 arithmetic and face
/// order, for bitwise validation.
[[nodiscard]] Array3<f32> heat_reference_host(const Array3<f32>& field,
                                              const HeatKernelOptions& options);

/// Deterministic pseudo-random initial field in [0, 1), built from an
/// integer hash of the cell's linear index (no libm, no global RNG).
[[nodiscard]] Array3<f32> heat_initial_field(Extents3 extents, u64 seed);

}  // namespace fvf::spec
