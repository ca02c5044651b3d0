/// \file cg_program.hpp
/// \brief Conjugate-gradient solver running ON the simulated wafer-scale
///        engine — the paper's future-work direction ("developing
///        nonlinear and linear solvers on a dataflow architecture",
///        Section 9), built from the same ingredients as the flux kernel:
///
///   - matrix-free operator apply via the 10-neighbor halo exchange
///     (static color routes; the search direction column flows instead of
///     pressure/density),
///   - global dot products via the AllReduceSum chain-reduction trees,
///   - purely local vector updates (axpy) on each PE's column.
///
/// Every PE takes the identical alpha/beta/stop decisions because they
/// all receive the same reduced scalars, so the distributed iteration is
/// deterministic and terminates uniformly.
///
/// The program is a `fvf::spec` stencil program: `make_cg_spec` declares
/// the static-halo exchange of the search direction, the Sum reduction
/// and the per-PE memory layout, and the (file-local) CG kernel chains
/// its reductions — r'r before the first exchange, then d'q and r'r
/// after every round.
#pragma once

#include "common/array3d.hpp"
#include "core/linear_stencil.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

/// Solver parameters shared by every PE.
struct CgKernelOptions {
  i32 max_iterations = 200;
  f32 relative_tolerance = 1e-5f;
};

/// The declarative description of the CG program: the static-halo
/// exchange of the search direction, the dot-product Sum reduction, and
/// the complete ordered per-PE memory layout.
[[nodiscard]] spec::StencilSpec make_cg_spec();

/// The solve of a CG run, from either driver.
struct CgFields {
  Array3<f32> solution;
  i32 iterations = 0;
  bool converged = false;
  f64 initial_residual_norm = 0.0;
  f64 final_residual_norm = 0.0;
};
/// A fabric CG solve: the run's accounting plus the solve.
using DataflowCgResult = spec::Result<CgFields, dataflow::RunInfo>;

/// The launch that solves A x = rhs, one PE per mesh column. The
/// referenced stencil and rhs must outlive every driver call.
[[nodiscard]] spec::Launch cg_launch(const LinearStencil& stencil,
                                     const Array3<f32>& rhs,
                                     const CgKernelOptions& kernel);

/// The solve of a finished cg_launch run of either driver.
[[nodiscard]] CgFields gather_cg(const spec::KernelGrid& run);

}  // namespace fvf::core
