/// \file kernels.hpp
/// \brief The kernel table: one immutable entry per field-equation
///        kernel, and the only place a kernel's name, defaults, canonical
///        problem and scenario are written down.
///
/// `api::run_field_equation`, the fvf::serve executor and request parser,
/// `fvf_spec`, `fvf_lint` (through `parse_program_flag` and `specs`), the
/// backend-matrix bench and the tests all read this table, so a kernel
/// added here shows up everywhere at once.
/// Each entry's `run` executes the kernel's canonical scenario on either
/// backend from inputs the caller provides: `run_field_equation` builds
/// fresh ones, fvf::serve hands over its content-hash caches, its fault
/// scenario and its memoized lint level.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "api/backend.hpp"
#include "core/linear_stencil.hpp"
#include "dataflow/run_info.hpp"
#include "physics/problem.hpp"
#include "spec/stencil_spec.hpp"

namespace fvf {
class CliParser;
}  // namespace fvf

namespace fvf::core {
class FabricImpesSimulator;
}  // namespace fvf::core

namespace fvf::api {

struct FieldEquationSpec;
struct FieldEquationResult;

/// The problem a kernel's canonical scenario runs on.
enum class CanonicalProblem : u8 {
  /// No FlowProblem: the initial field is a function of (extents, seed).
  None,
  /// physics::make_benchmark_problem, the log-normal benchmark geomodel.
  Benchmark,
  /// The homogeneous 10 x 10 x 2 m injection geomodel of the IMPES demos.
  Injection,
};

/// The Jacobi-scaled linear system of the CG and wave scenarios: stencil
/// assembly, manufactured right-hand side and scaling are deterministic
/// functions of (problem, dt).
struct LinearSystem {
  core::ScaledSystem scaled;
  Array3<f32> scaled_rhs;
};

/// A fabric IMPES run at a window boundary, as RunContext::impes_window
/// sees it. The hook may restore `sim` and the totals to resume a saved
/// run; the window loop carries on from whatever it leaves here.
struct ImpesWindowState {
  core::FabricImpesSimulator& sim;
  i32 windows_done = 0;
  /// Fabric accounting accumulated over the windows done.
  dataflow::RunInfo fabric{};
  i64 cg_iterations = 0;
  i64 transport_substeps = 0;
};

/// What an entry's `run` draws on besides the spec and the backend.
struct RunContext {
  /// Fabric launch options: threads, fault scenario, lint level. Ignored
  /// by the gpusim backend.
  dataflow::HarnessOptions harness{};
  /// The kernel's canonical problem (never called when it is None).
  std::function<std::shared_ptr<const physics::FlowProblem>()> problem;
  /// The Jacobi-scaled linear system of the problem at the spec's dt
  /// (CG and wave only).
  std::function<std::shared_ptr<const LinearSystem>()> system;
  /// Optional hook of the fabric IMPES window loop, called at every
  /// window boundary: before the first window, between windows and after
  /// the last. Returning false stops the run at that boundary.
  std::function<bool(ImpesWindowState&)> impes_window;
};

/// Builds one spec at default options.
using SpecFactory = spec::StencilSpec (*)();

/// One kernel of the table.
struct Kernel {
  std::string_view name;
  std::string_view summary;
  /// The specs the kernel's fabric run launches, in launch order, each
  /// at default options (IMPES: cg, then transport).
  std::span<const SpecFactory> specs;
  /// Defaults of the FieldEquationSpec / request 0 sentinels. Kernels
  /// that ignore dt (tpfa, heat) keep 3600 s so the hashed content stays
  /// fixed.
  i32 default_iterations = 1;
  f64 default_dt = 3600.0;
  CanonicalProblem problem = CanonicalProblem::Benchmark;
  /// A CG solve that stops short of its tolerance fails the scenario
  /// (run_failure). IMPES only reports it: its windows carry on.
  bool must_converge = false;
  /// Runs the canonical scenario of a resolved spec. Fabric errors are
  /// left in the result's accounting for the caller to judge.
  FieldEquationResult (*run)(const FieldEquationSpec& spec, Backend backend,
                             const RunContext& context) = nullptr;
};

/// The table, in its fixed order: tpfa, cg, transport, wave, impes, heat.
[[nodiscard]] std::span<const Kernel> kernels() noexcept;

/// The entry named `name`, or null.
[[nodiscard]] const Kernel* find_kernel(std::string_view name) noexcept;

/// "tpfa|cg|transport|..." — for usage strings and error messages.
[[nodiscard]] std::string kernel_name_list(std::string_view separator = "|");

/// The entry a tool's `--program` flag names. Throws ContractViolation
/// naming the value (empty when the flag is absent) and listing every
/// kernel of the table — never silently defaults.
[[nodiscard]] const Kernel& parse_program_flag(const CliParser& cli);

/// Builds `kernel`'s canonical problem (`kernel.problem` != None).
[[nodiscard]] physics::FlowProblem canonical_problem(const Kernel& kernel,
                                                     Extents3 extents,
                                                     u64 seed);

/// The transport scenario's initial saturation patch (centre cells).
[[nodiscard]] Array3<f32> transport_initial_saturation(Extents3 extents);

/// The transport scenario's centre injector (1e-4 at the top centre).
[[nodiscard]] Array3<f32> transport_well_rate(Extents3 extents);

/// Builds the Jacobi-scaled linear system of `problem` at `dt`.
[[nodiscard]] LinearSystem linear_system(const physics::FlowProblem& problem,
                                         f64 dt);

/// Fresh inputs for `spec`, with only the fabric thread count set — what
/// run_field_equation passes.
[[nodiscard]] RunContext fresh_context(const Kernel& kernel,
                                       const FieldEquationSpec& spec);

/// Why a finished run does not answer its scenario — the first fabric
/// error, else a must_converge solve that did not converge — or empty.
[[nodiscard]] std::string run_failure(const Kernel& kernel,
                                      const FieldEquationSpec& spec,
                                      const FieldEquationResult& result);

}  // namespace fvf::api
