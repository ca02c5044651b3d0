/// \file launcher.hpp
/// \brief Builds a simulated wafer-scale fabric from a FlowProblem, loads
///        the TPFA dataflow program onto every PE, runs it, and gathers
///        the results back to host arrays.
#pragma once

#include <memory>

#include "common/array3d.hpp"
#include "core/tpfa_program.hpp"
#include "physics/problem.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

/// Launch configuration for a dataflow TPFA run.
struct DataflowOptions : dataflow::HarnessOptions {
  i32 iterations = 1;
  TpfaKernelOptions kernel{};
};

/// Result of a dataflow TPFA run: full fabric accounting plus the
/// gathered fields.
struct DataflowResult : dataflow::RunInfo {
  /// Flux residual gathered from all PEs after the final iteration.
  Array3<f32> residual;
  /// Final pressure (after iterations-1 advance steps).
  Array3<f32> pressure;
};

/// Extracts the per-PE column data for PE (x, y) from the global problem
/// (the "host memcpy" phase: initial pressure, static geometry, and
/// transmissibility columns).
[[nodiscard]] PeColumnData extract_column(const physics::FlowProblem& problem,
                                          i32 x, i32 y);

/// A loaded-but-not-run TPFA launch: the harness (for static lint or an
/// actual run) plus the typed program grid for gathering results. The
/// referenced FlowProblem must outlive the load (the lint probe factory
/// extracts columns from it on demand).
using TpfaLoad = spec::Load<TpfaPeProgram>;

/// Claims the TPFA colors and loads the per-PE programs without running
/// the event engine — the fvf_lint entry point, and the first half of
/// run_dataflow_tpfa.
[[nodiscard]] TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                                          const DataflowOptions& options);

/// Runs `options.iterations` applications of Algorithm 1 on the simulated
/// fabric (one PE per mesh column) and gathers residual + pressure.
[[nodiscard]] DataflowResult run_dataflow_tpfa(
    const physics::FlowProblem& problem, const DataflowOptions& options);

}  // namespace fvf::core
