/// \file launcher.hpp
/// \brief The TPFA launch of a FlowProblem and its gather, for either
///        driver: spec::run loads it onto a simulated wafer-scale fabric
///        (one PE per mesh column), spec::execute runs it without one
///        (gpusim). The named fabric entry points below are one call of
///        that generic path each.
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

/// The gathered fields of a TPFA run, from either driver.
struct TpfaFields {
  /// Flux residual gathered from all PEs after the final iteration.
  Array3<f32> residual;
  /// Final pressure (after iterations-1 advance steps).
  Array3<f32> pressure;
};
/// A fabric TPFA run: the run's accounting plus the fields.
using DataflowResult = spec::Result<TpfaFields, dataflow::RunInfo>;

/// Extracts the per-PE column data for PE (x, y) from the global problem
/// (the "host memcpy" phase: initial pressure, static geometry, and
/// transmissibility columns) into a buffer of `columns` columns, the
/// trailing ones zero (see PeColumnData).
[[nodiscard]] PeColumnData extract_column(
    const physics::FlowProblem& problem, i32 x, i32 y,
    usize columns = PeColumnData::kColumns);

/// The launch of `kernel.iterations` applications of Algorithm 1 on
/// `problem`. The referenced FlowProblem must outlive every driver call.
[[nodiscard]] spec::Launch tpfa_launch(const physics::FlowProblem& problem,
                                       const TpfaKernelOptions& kernel);

/// Residual and pressure of a finished tpfa_launch run of either driver.
[[nodiscard]] TpfaFields gather_tpfa(const spec::KernelGrid& run);

/// A loaded-but-not-run TPFA launch, with the historical program type.
using TpfaLoad = spec::Load<TpfaPeProgram>;

/// spec::load of the TPFA launch with `options.iterations`.
[[nodiscard]] TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                                          const DataflowOptions& options);

/// spec::run of the TPFA launch with `options.iterations`.
[[nodiscard]] DataflowResult run_dataflow_tpfa(
    const physics::FlowProblem& problem, const DataflowOptions& options);

}  // namespace fvf::core
