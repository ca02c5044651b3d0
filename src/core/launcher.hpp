/// \file launcher.hpp
/// \brief Runs the TPFA kernel of a FlowProblem on either driver: loads
///        it onto a simulated wafer-scale fabric (one PE per mesh column)
///        or executes it without one (gpusim), and gathers the results
///        back to host arrays.
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

/// Result of a TPFA run: the driver's accounting (dataflow::RunInfo on
/// the fabric, gpusim::GpuRunInfo on the executor) plus the gathered
/// fields.
template <typename Info>
struct TpfaRun : Info {
  /// Flux residual gathered from all PEs after the final iteration.
  Array3<f32> residual;
  /// Final pressure (after iterations-1 advance steps).
  Array3<f32> pressure;
};
using DataflowResult = TpfaRun<dataflow::RunInfo>;

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

/// Runs `kernel.iterations` applications of the same per-PE kernels on
/// the fabric-free executor (the gpusim backend).
[[nodiscard]] TpfaRun<gpusim::GpuRunInfo> execute_tpfa(
    const physics::FlowProblem& problem, const TpfaKernelOptions& kernel);

}  // namespace fvf::core
