#include "serve/executor.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/api.hpp"
#include "common/hash.hpp"
#include "core/fabric_impes.hpp"
#include "io/checkpoint.hpp"
#include "wse/fault.hpp"

namespace fvf::serve {

namespace {

/// The request's fabric launch options: the canonical fault scenario of
/// the demos (uniform rates, bit flips restricted to the
/// retransmit-protected halo colors) plus the thread count, which never
/// changes results.
dataflow::HarnessOptions harness_options(const ScenarioRequest& request,
                                         lint::Level lint) {
  dataflow::HarnessOptions options;
  options.execution.threads = request.threads;
  options.execution.fault =
      wse::FaultConfig::uniform(request.fault_seed, request.fault_rate);
  options.execution.fault.flip_color_mask = 0x00FFu;
  options.lint = lint;
  return options;
}

/// The request's content fields as the table's FieldEquationSpec.
api::FieldEquationSpec field_equation(const ScenarioRequest& request) {
  api::FieldEquationSpec spec;
  spec.kernel = std::string(request.program->name);
  spec.nx = request.nx;
  spec.ny = request.ny;
  spec.nz = request.nz;
  spec.seed = request.seed;
  spec.iterations = request.iterations;
  spec.dt = request.dt;
  spec.tol = request.tol;
  spec.threads = request.threads;
  return spec;
}

/// Content key of the problem cache: the kernel's canonical problem
/// kind, extents and seed.
u64 problem_key(const ScenarioRequest& request) {
  const bool injection =
      request.program->problem == api::CanonicalProblem::Injection;
  u64 key = fnv1a(injection ? "problem/impes" : "problem/benchmark");
  key = fnv1a_mix(key, static_cast<u64>(request.nx));
  key = fnv1a_mix(key, static_cast<u64>(request.ny));
  key = fnv1a_mix(key, static_cast<u64>(request.nz));
  key = fnv1a_mix(key, request.seed);
  return key;
}

u64 setup_key(const ScenarioRequest& request) {
  u64 key = fnv1a_mix(fnv1a("setup/stencil"), problem_key(request));
  key = fnv1a_mix(key, std::bit_cast<u64>(request.dt));
  return key;
}

u64 lint_key(const ScenarioRequest& request) {
  u64 key = fnv1a(request.program->name, fnv1a("lint"));
  key = fnv1a_mix(key, static_cast<u64>(request.nx));
  key = fnv1a_mix(key, static_cast<u64>(request.ny));
  key = fnv1a_mix(key, static_cast<u64>(request.nz));
  key = fnv1a_mix(key, static_cast<u64>(request.lint));
  return key;
}

/// Checkpoint file paths of a long job, named by the scenario hash.
struct CheckpointPaths {
  std::string meta;
  std::string saturation;
  std::string pressure;
};

CheckpointPaths checkpoint_paths(const std::string& dir, u64 hash) {
  char stem[32];
  std::snprintf(stem, sizeof(stem), "scn_%016llx",
                static_cast<unsigned long long>(hash));
  const std::string base = dir + "/" + stem;
  return CheckpointPaths{base + ".meta", base + "_saturation.fvf",
                         base + "_pressure.fvf"};
}

/// The integer `key` of checkpoint meta `path` (never its first line,
/// which is the canonical content). A missing or malformed value, or one
/// outside [lo, hi], fails naming the file and the field.
i64 meta_integer(const std::string& meta, const std::string& path,
                 const std::string& key, i64 lo, i64 hi) {
  const std::string field = "checkpoint meta '" + path + "': field '" + key;
  const usize at = meta.find('\n' + key + '=');
  FVF_REQUIRE_MSG(at != std::string::npos, field << "' is missing");
  const usize begin = at + key.size() + 2;
  const std::string value = meta.substr(begin, meta.find('\n', begin) - begin);
  i64 parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  FVF_REQUIRE_MSG(error == std::errc{} && stop == end,
                  field << "' has malformed value '" << value << "'");
  FVF_REQUIRE_MSG(parsed >= lo && parsed <= hi,
                  field << "' = " << parsed << " is outside [" << lo << ", "
                        << hi << "]");
  return parsed;
}

/// Deletes a checkpoint's three files.
void remove_checkpoint(const CheckpointPaths& paths) {
  std::remove(paths.meta.c_str());
  std::remove(paths.saturation.c_str());
  std::remove(paths.pressure.c_str());
}

/// Restores `state` from a complete checkpoint of exactly this scenario
/// of `windows` windows; returns false (leaving `state` untouched) when
/// there is none. A checkpoint is saved only between windows, so its
/// windows_done lies in [1, windows - 1]: any other value fails here
/// rather than stepping past the last window. A checkpoint of this
/// scenario that fails to restore is deleted before the failure
/// propagates, so the next submit runs from window 0 instead of failing
/// on it again.
bool resume(const CheckpointPaths& paths, const std::string& canonical,
            i32 windows, api::ImpesWindowState& state) {
  std::ifstream meta_in(paths.meta);
  if (!meta_in.good()) {
    return false;
  }
  std::ostringstream text;
  text << meta_in.rdbuf();
  meta_in.close();
  const std::string meta = text.str();
  // The meta file embeds the canonical content so a hash collision (or a
  // stale directory) can never resume the wrong scenario; another
  // scenario's checkpoint is left as it is.
  if (meta.find("canonical=" + canonical + "\n") == std::string::npos) {
    return false;
  }
  try {
    constexpr i64 kMax = std::numeric_limits<i64>::max();
    const i64 windows_done =
        meta_integer(meta, paths.meta, "windows_done", 1, windows - 1);
    const i64 cg_iterations =
        meta_integer(meta, paths.meta, "cg_iterations_total", 0, kMax);
    const i64 transport_substeps =
        meta_integer(meta, paths.meta, "transport_substeps_total", 0, kMax);
    const dataflow::RunInfo done = parse_run_info(meta);
    state.sim.restore_state(io::load_field(paths.saturation),
                            io::load_field(paths.pressure));
    state.fabric = done;
    state.windows_done = static_cast<i32>(windows_done);
    state.cg_iterations = cg_iterations;
    state.transport_substeps = transport_substeps;
  } catch (...) {
    remove_checkpoint(paths);
    throw;
  }
  return true;
}

void save(const std::string& dir, const CheckpointPaths& paths,
          const std::string& canonical, const api::ImpesWindowState& state) {
  std::filesystem::create_directories(dir);
  io::save_field(paths.saturation, state.sim.saturation());
  io::save_field(paths.pressure, state.sim.pressure());
  // Meta goes last: a checkpoint without its meta file is invisible to
  // resume, so a crash mid-save can never resume partial state.
  std::ofstream meta_out(paths.meta, std::ios::binary | std::ios::trunc);
  meta_out << "canonical=" << canonical << '\n'
           << "windows_done=" << state.windows_done << '\n'
           << "cg_iterations_total=" << state.cg_iterations << '\n'
           << "transport_substeps_total=" << state.transport_substeps << '\n'
           << serialize_run_info(state.fabric);
}

}  // namespace

ScenarioExecutor::ScenarioExecutor()
    : ScenarioExecutor(kDefaultCacheEntries) {}

ScenarioExecutor::ScenarioExecutor(usize cache_entries)
    : problems_(cache_entries),
      setups_(cache_entries),
      lint_passes_(cache_entries) {}

ScenarioExecutor::~ScenarioExecutor() = default;

ExecutorStats ScenarioExecutor::stats() const {
  ExecutorStats stats;
  stats.problems = problems_.stats();
  stats.setups = setups_.stats();
  stats.lint = lint_passes_.stats();
  stats.simulations = simulations_.load();
  stats.checkpoints_saved = checkpoints_saved_.load();
  stats.resumes = resumes_.load();
  return stats;
}

std::shared_ptr<const physics::FlowProblem> ScenarioExecutor::problem_for(
    const ScenarioRequest& request) {
  return problems_.get_or_build(problem_key(request), [&request] {
    return api::canonical_problem(
        *request.program, Extents3{request.nx, request.ny, request.nz},
        request.seed);
  });
}

std::shared_ptr<const api::LinearSystem> ScenarioExecutor::setup_for(
    const ScenarioRequest& request) {
  return setups_.get_or_build(setup_key(request), [this, &request] {
    return api::linear_system(*problem_for(request), request.dt);
  });
}

lint::Level ScenarioExecutor::effective_lint(const ScenarioRequest& request) {
  if (request.lint == lint::Level::Off) {
    return lint::Level::Off;
  }
  // A clean verification is a property of the program shape; once one
  // request verified it, identical shapes skip the verifier entirely.
  if (lint_passes_.lookup(lint_key(request)) != nullptr) {
    return lint::Level::Off;
  }
  return request.lint;
}

void ScenarioExecutor::record_lint_pass(const ScenarioRequest& request) {
  if (request.lint != lint::Level::Off) {
    lint_passes_.insert(lint_key(request), true);
  }
}

ScenarioResponse ScenarioExecutor::execute(const ScenarioRequest& raw,
                                           const ExecutionContext& context) {
  ScenarioResponse response;
  try {
    const ScenarioRequest request = resolve_defaults(raw);
    response.scenario_hash = scenario_hash(request);
    simulations_.fetch_add(1);
    const bool wse = request.backend != BackendChoice::Gpusim;
    const api::FieldEquationSpec spec = field_equation(request);
    // gpusim runs build fresh inputs, as run_field_equation does: the
    // caches hold fabric inputs only, so gpusim traffic does not grow
    // them (caching both raised the serve benchmark's peak RSS by 7%).
    api::RunContext inputs = api::fresh_context(*request.program, spec);
    if (wse) {
      inputs.harness = harness_options(request, effective_lint(request));
      inputs.problem = [this, &request] { return problem_for(request); };
      inputs.system = [this, &request] { return setup_for(request); };
      inputs.impes_window = impes_windows(request, context, response);
    }
    const api::FieldEquationResult result = request.program->run(
        spec, wse ? api::Backend::Wse : api::Backend::Gpusim, inputs);
    if (response.status == RequestStatus::DeadlineExpired) {
      response.info = result.fabric;
      return response;
    }
    response.result_digest = result.result_digest;
    response.summary = result.summary;
    if (wse) {
      response.info = result.fabric;
    } else {
      // The shared surface: the analytic GPU timeline stands in for the
      // fabric clock in the response's RunInfo, and the counters the
      // kernels charged for the fabric's.
      response.info.device_seconds = result.device_seconds;
      response.info.counters = result.gpu.counters;
      response.summary.emplace_back("work", static_cast<f64>(result.work));
      response.summary.emplace_back(
          "gpu_kernels_launched",
          static_cast<f64>(result.gpu.kernels_launched));
      response.summary.emplace_back("gpu_occupancy", result.gpu.occupancy);
    }
    response.error = api::run_failure(*request.program, spec, result);
    if (!response.error.empty()) {
      response.status = RequestStatus::Failed;
    } else if (wse) {
      // Lint verifies fabric programs; a gpusim run proves nothing
      // about the fabric shape, so only wse runs record a pass.
      record_lint_pass(request);
    }
  } catch (const std::exception& error) {
    response.status = RequestStatus::Failed;
    response.error = error.what();
  }
  return response;
}

std::function<bool(api::ImpesWindowState&)> ScenarioExecutor::impes_windows(
    const ScenarioRequest& request, const ExecutionContext& context,
    ScenarioResponse& response) {
  const i32 windows = request.iterations;
  const i32 every = request.checkpoint_every;
  const bool checkpointing = every > 0 && !context.checkpoint_dir.empty();
  const CheckpointPaths paths =
      checkpointing
          ? checkpoint_paths(context.checkpoint_dir, response.scenario_hash)
          : CheckpointPaths{};
  const std::string canonical =
      checkpointing ? canonical_content(request) : std::string();
  return [this, windows, every, checkpointing, paths, canonical, &context,
          &response](api::ImpesWindowState& state) {
    const i32 done = state.windows_done;
    if (done == 0) {
      if (checkpointing && resume(paths, canonical, windows, state)) {
        response.resumed = true;
        resumes_.fetch_add(1);
      }
      return true;
    }
    if (done == windows) {
      if (checkpointing) {
        // The job is complete; a finished scenario must not leave a
        // stale resume point behind.
        remove_checkpoint(paths);
      }
      return true;
    }
    if (checkpointing && done % every == 0) {
      save(context.checkpoint_dir, paths, canonical, state);
      checkpoints_saved_.fetch_add(1);
    }
    // Checked between windows only: a launch is never interrupted, so a
    // cancelled job leaves no partial state.
    if (context.expired && context.expired()) {
      std::ostringstream os;
      os << "deadline exceeded after " << done << "/" << windows
         << " windows";
      if (checkpointing) {
        os << " (checkpoint covers the first " << (done / every) * every
           << ")";
      }
      response.status = RequestStatus::DeadlineExpired;
      response.error = os.str();
      return false;
    }
    return true;
  };
}

}  // namespace fvf::serve
