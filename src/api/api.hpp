/// \file api.hpp
/// \brief The scenario-level field-equation entry point: one call runs
///        any kernel of the api::kernels() table on either backend and
///        returns a backend-tagged result with the shared timing surface.
///
/// `run_field_equation` runs the *canonical scenario* of the named
/// kernel through its table entry — the same entry fvf::serve runs for a
/// request with the same (extents, seed, iterations, dt, tol) — on the
/// simulated wafer-scale engine (spec::load) or the simulated GPU
/// (spec::execute). Both drivers run the kernel's one per-PE body on
/// identical inputs and reduce in the all-reduce trees' order, so the
/// kernels that fold neighbor data in canonical order (tpfa, transport,
/// heat) agree bitwise; cg, wave and impes sum neighbor faces in the
/// fabric's arrival order and agree to f32 tolerance.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/kernels.hpp"
#include "common/array3d.hpp"
#include "dataflow/run_info.hpp"
#include "gpusim/run_info.hpp"

namespace fvf::api {

/// One field-equation scenario: a kernel name from the api::kernels()
/// table plus the content fields that determine its result bit-for-bit.
/// The 0 sentinels resolve to the table's per-kernel defaults, which
/// fvf::serve uses too, so a defaulted spec and an explicit one are the
/// same scenario.
struct FieldEquationSpec {
  std::string kernel{kernels().front().name};  ///< an api::kernels() name
  i32 nx = 6;
  i32 ny = 6;
  i32 nz = 4;
  u64 seed = 42;       ///< geomodel / initial-field seed
  i32 iterations = 0;  ///< work count; 0 = per-kernel default
  f64 dt = 0.0;        ///< timestep / window seconds; 0 = default
  f64 tol = 1e-5;      ///< CG relative tolerance
  /// WSE event-engine host threads. Results are bit-identical for every
  /// value; ignored by the gpusim backend.
  i32 threads = 1;
};

/// Returns `spec` with the 0 sentinels replaced by the kernel's table
/// defaults (Kernel::default_iterations, Kernel::default_dt). Throws on
/// an unknown kernel name, listing the table.
[[nodiscard]] FieldEquationSpec resolve_spec(const FieldEquationSpec& spec);

/// A backend-tagged field-equation result with the shared RunInfo/timing
/// surface both backends report into.
struct FieldEquationResult {
  Backend backend = Backend::Wse;
  std::string kernel;
  /// Simulated device time: fabric clock (wse) or the analytic GPU
  /// timeline of the executor's kernel launches (gpusim).
  f64 device_seconds = 0.0;
  /// Wall-clock of the functional execution on this host.
  f64 host_seconds = 0.0;
  /// Work performed: iterations (tpfa/cg), substeps (transport), steps
  /// (wave/heat), windows (impes).
  i32 work = 0;
  bool converged = true;  ///< CG/IMPES solves; always true otherwise
  /// The kernel's primary field: residual (tpfa), solution (cg),
  /// saturation (transport/impes), wave field, temperature (heat).
  Array3<f32> field;
  /// FNV-1a digest over the result fields' bit patterns — the same
  /// digest fvf::serve publishes, so cross-backend and cross-layer
  /// results are comparable by one number.
  u64 result_digest = 0;
  /// Kernel-specific scalars (iterations, residual norms, substeps...);
  /// the same set on both backends and in fvf::serve's responses.
  std::vector<std::pair<std::string, f64>> summary;
  /// Full fabric accounting (populated when backend == Wse).
  dataflow::RunInfo fabric{};
  /// Full GPU accounting (populated when backend == Gpusim).
  gpusim::GpuRunInfo gpu{};
};

/// Runs the named kernel's canonical scenario on `backend` from fresh
/// inputs. Throws ContractViolation on an unknown kernel (listing the
/// table) and on a fabric error; a solve that did not converge comes
/// back with `converged` false.
[[nodiscard]] FieldEquationResult run_field_equation(
    const FieldEquationSpec& spec, Backend backend);

}  // namespace fvf::api
