#include "api/kernels.hpp"

#include <bit>
#include <sstream>
#include <type_traits>

#include "api/api.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/hash.hpp"
#include "common/timer.hpp"
#include "core/cg_program.hpp"
#include "core/fabric_impes.hpp"
#include "core/launcher.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "spec/heat.hpp"

namespace fvf::api {

namespace {

/// FNV-1a 64 over a field's extents and payload bit patterns, chained
/// onto `hash`. A scenario's result digest chains its result fields from
/// kFnv1aSeed in a fixed order.
[[nodiscard]] u64 digest_field(u64 hash, const Array3<f32>& field) noexcept {
  const Extents3 ext = field.extents();
  hash = fnv1a_mix(hash, static_cast<u64>(ext.nx));
  hash = fnv1a_mix(hash, static_cast<u64>(ext.ny));
  hash = fnv1a_mix(hash, static_cast<u64>(ext.nz));
  for (const f32 value : field.flat()) {
    hash = fnv1a_mix(hash, std::bit_cast<u32>(value));
  }
  return hash;
}

/// The shared result surface of a finished run. `run` is a spec::Result:
/// dataflow::RunInfo-based on wse, gpusim::GpuRunInfo-based on gpusim.
template <typename Run>
[[nodiscard]] FieldEquationResult backend_result(const FieldEquationSpec& spec,
                                                 const Run& run,
                                                 const WallTimer& timer) {
  FieldEquationResult result;
  result.kernel = spec.kernel;
  result.device_seconds = run.device_seconds;
  result.host_seconds = timer.seconds();
  if constexpr (std::is_base_of_v<dataflow::RunInfo, Run>) {
    result.backend = Backend::Wse;
    result.fabric = run;
  } else {
    result.backend = Backend::Gpusim;
    result.gpu = run;
  }
  return result;
}

[[nodiscard]] Extents3 extents_of(const FieldEquationSpec& spec) {
  return Extents3{spec.nx, spec.ny, spec.nz};
}

// Each run below builds its kernel's launch once and hands it to the
// chosen backend under the caller's launch options.

// ---------------------------------------------------------------- tpfa --

FieldEquationResult run_tpfa(const FieldEquationSpec& spec, Backend backend,
                             const RunContext& context) {
  const std::shared_ptr<const physics::FlowProblem> problem =
      context.problem();
  const WallTimer timer;
  const auto finish = [&](const auto& run) {
    FieldEquationResult result = backend_result(spec, run, timer);
    result.field = run.residual;
    result.result_digest = digest_field(kFnv1aSeed, run.residual);
    result.result_digest = digest_field(result.result_digest, run.pressure);
    result.work = spec.iterations;
    return result;
  };
  core::TpfaKernelOptions kernel;
  kernel.iterations = spec.iterations;
  return spec::run_on(backend, core::tpfa_launch(*problem, kernel),
                      context.harness, core::gather_tpfa, finish);
}

// ------------------------------------------------------------------ cg --

FieldEquationResult run_cg(const FieldEquationSpec& spec, Backend backend,
                           const RunContext& context) {
  const std::shared_ptr<const LinearSystem> system = context.system();
  core::CgKernelOptions kernel;
  kernel.max_iterations = spec.iterations;
  kernel.relative_tolerance = static_cast<f32>(spec.tol);
  const WallTimer timer;
  const auto finish = [&](const auto& run) {
    FieldEquationResult result = backend_result(spec, run, timer);
    result.field = core::unscale_solution(system->scaled, run.solution);
    result.result_digest = digest_field(kFnv1aSeed, result.field);
    result.work = run.iterations;
    result.converged = run.converged;
    result.summary = {{"iterations", static_cast<f64>(run.iterations)},
                      {"converged", run.converged ? 1.0 : 0.0},
                      {"initial_residual_norm", run.initial_residual_norm},
                      {"final_residual_norm", run.final_residual_norm}};
    return result;
  };
  return spec::run_on(
      backend,
      core::cg_launch(system->scaled.stencil, system->scaled_rhs, kernel),
      context.harness, core::gather_cg, finish);
}

// ----------------------------------------------------------- transport --

FieldEquationResult run_transport(const FieldEquationSpec& spec,
                                  Backend backend, const RunContext& context) {
  const std::shared_ptr<const physics::FlowProblem> problem =
      context.problem();
  const Extents3 ext = problem->extents();
  const Array3<f32> saturation = transport_initial_saturation(ext);
  const Array3<f32> wells = transport_well_rate(ext);
  core::TransportKernelOptions kernel;
  kernel.window_seconds = spec.dt;
  kernel.pore_volume = static_cast<f32>(problem->mesh().cell_volume() * 0.2);
  const WallTimer timer;
  const auto finish = [&](const auto& run) {
    FieldEquationResult result = backend_result(spec, run, timer);
    result.field = run.saturation;
    result.result_digest = digest_field(kFnv1aSeed, result.field);
    result.work = run.substeps;
    result.summary = {{"substeps", static_cast<f64>(run.substeps)},
                      {"advanced_seconds", run.advanced_seconds}};
    return result;
  };
  return spec::run_on(backend,
                      core::transport_launch(*problem, saturation,
                                             problem->initial_pressure(),
                                             wells, kernel),
                      context.harness, core::gather_transport, finish);
}

// ---------------------------------------------------------------- wave --

FieldEquationResult run_wave(const FieldEquationSpec& spec, Backend backend,
                             const RunContext& context) {
  const std::shared_ptr<const LinearSystem> system = context.system();
  const Array3<f32> pulse = core::gaussian_pulse(extents_of(spec), 1.0, 2.0);
  core::WaveKernelOptions kernel;
  kernel.timesteps = spec.iterations;
  kernel.kappa = 0.4f;
  const WallTimer timer;
  const auto finish = [&](const auto& run) {
    FieldEquationResult result = backend_result(spec, run, timer);
    result.field = run.field;
    result.result_digest = digest_field(kFnv1aSeed, result.field);
    result.work = spec.iterations;
    return result;
  };
  return spec::run_on(
      backend, core::wave_launch(system->scaled.stencil, pulse, kernel),
      context.harness, core::gather_wave, finish);
}

// --------------------------------------------------------------- impes --

/// One IMPES loop for both backends: the simulator advances each window
/// on the chosen one.
FieldEquationResult run_impes(const FieldEquationSpec& spec, Backend backend,
                              const RunContext& context) {
  const std::shared_ptr<const physics::FlowProblem> problem =
      context.problem();
  core::FabricImpesOptions options;
  options.harness = context.harness;
  const WallTimer timer;
  core::FabricImpesSimulator sim(*problem, options);
  sim.add_well(Coord3{spec.nx / 2, spec.ny / 2, 0}, 2e-4);
  ImpesWindowState state{sim};
  gpusim::GpuRunInfo gpu;
  bool converged = true;
  while (!context.impes_window || context.impes_window(state)) {
    if (state.windows_done == spec.iterations) {
      break;
    }
    const core::FabricImpesWindow report =
        sim.advance_window(spec.dt, backend);
    dataflow::accumulate(state.fabric, report.fabric);
    gpusim::accumulate(gpu, report.gpu);
    state.cg_iterations += report.cg_iterations;
    state.transport_substeps += report.transport_substeps;
    converged = converged && report.cg_converged;
    ++state.windows_done;
  }
  FieldEquationResult result = backend == Backend::Wse
                                   ? backend_result(spec, state.fabric, timer)
                                   : backend_result(spec, gpu, timer);
  result.work = state.windows_done;
  if (state.windows_done < spec.iterations) {
    return result;  // stopped by the hook; the caller reports it
  }
  result.converged = converged;
  result.field = sim.saturation();
  result.result_digest = digest_field(kFnv1aSeed, result.field);
  result.result_digest = digest_field(result.result_digest, sim.pressure());
  result.summary = {
      {"windows", static_cast<f64>(spec.iterations)},
      {"cg_iterations", static_cast<f64>(state.cg_iterations)},
      {"transport_substeps", static_cast<f64>(state.transport_substeps)},
      {"co2_in_place", sim.co2_in_place()}};
  return result;
}

// ---------------------------------------------------------------- heat --

FieldEquationResult run_heat(const FieldEquationSpec& spec, Backend backend,
                             const RunContext& context) {
  // Heat needs no FlowProblem: the initial field is a deterministic
  // function of (extents, seed).
  const Array3<f32> initial =
      spec::heat_initial_field(extents_of(spec), spec.seed);
  spec::HeatKernelOptions kernel;
  kernel.steps = spec.iterations;
  const WallTimer timer;
  const auto finish = [&](const auto& run) {
    FieldEquationResult result = backend_result(spec, run, timer);
    result.field = run.field;
    result.result_digest = digest_field(kFnv1aSeed, result.field);
    result.work = run.steps_completed;
    result.summary = {{"steps", static_cast<f64>(run.steps_completed)}};
    return result;
  };
  return spec::run_on(backend, spec::heat_launch(initial, kernel),
                      context.harness, spec::gather_heat, finish);
}

// --------------------------------------------------------------- table --

constexpr SpecFactory kTpfaSpecs[] = {[] { return core::make_tpfa_spec({}); }};
constexpr SpecFactory kCgSpecs[] = {core::make_cg_spec};
constexpr SpecFactory kTransportSpecs[] = {core::make_transport_spec};
constexpr SpecFactory kWaveSpecs[] = {core::make_wave_spec};
constexpr SpecFactory kImpesSpecs[] = {core::make_cg_spec,
                                       core::make_transport_spec};
constexpr SpecFactory kHeatSpecs[] = {spec::make_heat_spec};

constexpr Kernel kTable[] = {
    {.name = "tpfa",
     .summary = "two-point flux pressure iteration (switch-protocol exchange)",
     .specs = kTpfaSpecs,
     .default_iterations = 2,
     .run = run_tpfa},
    {.name = "cg",
     .summary = "conjugate-gradient pressure solve with chained dot products",
     .specs = kCgSpecs,
     .default_iterations = 200,
     .must_converge = true,
     .run = run_cg},
    {.name = "transport",
     .summary = "explicit saturation transport with CFL dt min-reduce",
     .specs = kTransportSpecs,
     .default_iterations = 1,
     .default_dt = 900.0,
     .run = run_transport},
    {.name = "wave",
     .summary = "second-order acoustic wave kernel (leapfrog)",
     .specs = kWaveSpecs,
     .default_iterations = 8,
     .run = run_wave},
    {.name = "impes",
     .summary = "IMPES loop: a CG pressure solve, then a transport window",
     .specs = kImpesSpecs,
     .default_iterations = 3,
     .default_dt = 900.0,
     .problem = CanonicalProblem::Injection,
     .run = run_impes},
    {.name = "heat",
     .summary = "2D heat diffusion, 9-point stencil",
     .specs = kHeatSpecs,
     .default_iterations = 10,
     .problem = CanonicalProblem::None,
     .run = run_heat},
};

}  // namespace

std::span<const Kernel> kernels() noexcept { return kTable; }

const Kernel* find_kernel(std::string_view name) noexcept {
  for (const Kernel& kernel : kTable) {
    if (kernel.name == name) {
      return &kernel;
    }
  }
  return nullptr;
}

std::string kernel_name_list(std::string_view separator) {
  std::string list;
  for (const Kernel& kernel : kTable) {
    if (!list.empty()) {
      list += separator;
    }
    list += kernel.name;
  }
  return list;
}

const Kernel& parse_program_flag(const CliParser& cli) {
  const std::string program = cli.get_string("program", "");
  const Kernel* kernel = find_kernel(program);
  if (kernel == nullptr) {
    FVF_FAIL("unknown --program '" << program << "' (registered kernels: "
                                   << kernel_name_list(", ") << ")");
  }
  return *kernel;
}

physics::FlowProblem canonical_problem(const Kernel& kernel, Extents3 extents,
                                       u64 seed) {
  FVF_REQUIRE_MSG(kernel.problem != CanonicalProblem::None,
                  "kernel '" << kernel.name << "' runs without a FlowProblem");
  if (kernel.problem == CanonicalProblem::Injection) {
    physics::ProblemSpec spec;
    spec.extents = extents;
    spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
    spec.geomodel = physics::GeomodelKind::Homogeneous;
    spec.seed = seed;
    return physics::FlowProblem(spec);
  }
  return physics::make_benchmark_problem(extents, seed);
}

Array3<f32> transport_initial_saturation(Extents3 ext) {
  Array3<f32> saturation(ext, 0.0f);
  saturation(ext.nx / 2, ext.ny / 2, 0) = 0.6f;
  if (ext.ny / 2 > 0) {
    saturation(ext.nx / 2, ext.ny / 2 - 1, ext.nz > 1 ? 1 : 0) = 0.3f;
  }
  return saturation;
}

Array3<f32> transport_well_rate(Extents3 ext) {
  Array3<f32> wells(ext, 0.0f);
  wells(ext.nx / 2, ext.ny / 2, 0) = 1e-4f;
  return wells;
}

LinearSystem linear_system(const physics::FlowProblem& problem, f64 dt) {
  const core::LinearStencil stencil = core::build_linear_stencil(problem, dt);
  const core::ManufacturedSystem manufactured =
      core::manufacture_solution(stencil);
  LinearSystem system;
  system.scaled = core::jacobi_scale(stencil);
  system.scaled_rhs = core::scale_rhs(system.scaled, manufactured.rhs);
  return system;
}

RunContext fresh_context(const Kernel& kernel, const FieldEquationSpec& spec) {
  RunContext context;
  context.harness.execution.threads = spec.threads;
  const Extents3 extents = extents_of(spec);
  const u64 seed = spec.seed;
  context.problem = [&kernel, extents, seed] {
    return std::make_shared<const physics::FlowProblem>(
        canonical_problem(kernel, extents, seed));
  };
  context.system = [problem = context.problem, dt = spec.dt] {
    return std::make_shared<const LinearSystem>(linear_system(*problem(), dt));
  };
  return context;
}

std::string run_failure(const Kernel& kernel, const FieldEquationSpec& spec,
                        const FieldEquationResult& result) {
  if (!result.fabric.errors.empty()) {
    return result.fabric.errors.front();
  }
  if (!kernel.must_converge || result.converged) {
    return {};
  }
  f64 initial_norm = 0.0;
  f64 final_norm = 0.0;
  for (const auto& [name, value] : result.summary) {
    if (name == "initial_residual_norm") {
      initial_norm = value;
    } else if (name == "final_residual_norm") {
      final_norm = value;
    }
  }
  std::ostringstream os;
  os << "CG did not converge within " << spec.iterations
     << " iterations (||r||/||r0|| = " << final_norm / initial_norm << ")";
  return os.str();
}

}  // namespace fvf::api
