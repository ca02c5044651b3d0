#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/api.hpp"
#include "baseline/baseline.hpp"
#include "core/launcher.hpp"
#include "lint/lint.hpp"
#include "serve/service.hpp"
#include "spec/compile.hpp"

namespace fvf::e2e {

namespace {

/// A number for a failure message (NaN and infinities included).
std::string text(f64 value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// max |a - b| over the domain, relative to max |a| (the backend-parity
/// tests' scaled difference).
f64 max_scaled_diff(const Array3<f32>& a, const Array3<f32>& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<f64>::infinity();
  }
  f64 scale = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<f64>(a[i])));
  }
  f64 diff = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    diff = std::max(diff,
                    std::abs(static_cast<f64>(a[i]) - static_cast<f64>(b[i])));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// Deterministic engine counters of one scenario's fabric launches.
void set_engine_metrics(Report& report, const dataflow::RunInfo& info) {
  report.set("wse.events", static_cast<f64>(info.events_processed));
  report.set("wse.tasks", static_cast<f64>(info.counters.tasks_executed));
  report.set("wse.wavelets_sent",
             static_cast<f64>(info.counters.wavelets_sent));
  report.set("device_cycles", info.makespan_cycles);
  const obs::PhaseCycles& phases = info.phase_cycles;
  report.set("wse.phase_compute_cycles", phases[obs::Phase::LocalCompute]);
  report.set("wse.phase_halo_cycles", phases[obs::Phase::Halo]);
  report.set("wse.phase_allreduce_cycles", phases[obs::Phase::AllReduce]);
  report.set("wse.phase_reliability_cycles", phases[obs::Phase::Reliability]);
  report.set("wse.phase_idle_cycles", phases[obs::Phase::Idle]);
  const f64 total = phases.total();
  report.set("wse.idle_frac", total > 0.0 ? phases[obs::Phase::Idle] / total
                                          : 0.0);
}

/// Median over units of one layer's self time (0 where a unit lacks it).
f64 layer_median(const std::vector<UnitLayers>& units, const std::string& name) {
  std::vector<f64> samples;
  for (const UnitLayers& unit : units) {
    const auto it = unit.layer_self.find(name);
    samples.push_back(it == unit.layer_self.end() ? 0.0 : it->second);
  }
  return median(std::move(samples));
}

/// Median over units of summed layer self time / unit duration - 1: minus
/// the share of a traced unit that no layer span explains.
f64 layer_sum_gap(const std::vector<UnitLayers>& units) {
  std::vector<f64> gaps;
  for (const UnitLayers& unit : units) {
    gaps.push_back(unit.layer_sum() / unit.duration - 1.0);
  }
  return median(std::move(gaps));
}

/// The traced-run reconciliation of the scenario workloads: the layer-sum
/// gap, and how much slower the traced scenarios ran than the untraced
/// ones of the same run.
void set_trace_metrics(Report& report, const std::vector<UnitLayers>& units,
                       const std::vector<f64>& traced,
                       const std::vector<f64>& plain) {
  report.set("trace.layer_sum_gap_frac", layer_sum_gap(units));
  report.set("trace.overhead_frac", median(traced) / median(plain) - 1.0);
  report.note("trace.samples", std::to_string(traced.size()) + " traced, " +
                                   std::to_string(plain.size()) + " untraced");
}

/// TPFA set-ups per run; setup_s is their median. Each one pays the full
/// one-time work again, strict lint included.
constexpr usize kSetupReps = 3;

/// Rep loop shared by the scenario workloads: at least `min_reps`, then
/// until `seconds` have passed; in traced runs every second rep records
/// spans so the tracing overhead is measured within the run.
template <typename RepFn>
void repeat_for(f64 seconds, bool tracing, RepFn&& rep_fn) {
  const usize min_reps = tracing ? 2 : 1;
  const f64 start = now_s();
  for (usize rep = 0; rep < min_reps || now_s() - start < seconds; ++rep) {
    rep_fn(rep, tracing && rep % 2 == 1);
  }
}

// ------------------------------------------------------------------ tpfa --

struct TpfaConfig {
  Extents3 extents;
  i32 iterations = 2;
  i32 threads = 1;
};

class TpfaWorkload final : public Workload {
 public:
  TpfaWorkload(TpfaConfig config, u64 seed) : config_(config), seed_(seed) {}

  std::vector<f64> setup(SpanLog& spans) override {
    std::vector<f64> samples;
    std::vector<f64> strict_loads;
    for (usize rep = 0; rep < kSetupReps; ++rep) {
      const f64 start = now_s();
      std::optional<core::TpfaLoad> first;
      {
        ScopedSpan root(spans, "setup");
        {
          ScopedSpan span(spans, "physics.problem_build", root.id());
          problem_.emplace(
              physics::make_benchmark_problem(config_.extents, seed_));
        }
        {
          ScopedSpan span(spans, "spec.compile", root.id());
          const spec::CompiledSpec compiled =
              spec::compile(core::make_tpfa_spec(kernel()));
        }
        // The first load of a shape runs the mandatory strict lint; later
        // loads of the same shape are memoized. Forcing Strict here makes
        // every set-up pay it.
        const f64 load_start = now_s();
        ScopedSpan span(spans, "dataflow.strict_load", root.id());
        core::DataflowOptions strict = options();
        strict.lint = lint::Level::Strict;
        first.emplace(core::load_dataflow_tpfa(*problem_, strict));
        strict_loads.push_back(now_s() - load_start);
      }
      samples.push_back(now_s() - start);
      first.reset();  // teardown is not set-up work
    }
    strict_load_s_ = median(strict_loads);
    return samples;
  }

  void run(f64 seconds, SpanLog& spans, Report& report) override {
    f64 check_s = 0.0;
    baseline::BaselineResult reference;
    {
      const f64 t0 = now_s();
      ScopedSpan span(spans, "baseline.check");
      baseline::BaselineOptions options;
      options.iterations = config_.iterations;
      reference = baseline::run_serial_baseline(*problem_, options);
      check_s += now_s() - t0;
    }
    if (spans.enabled()) {
      time_lint_checks(spans, report);
    }

    std::vector<f64> plain;
    std::vector<f64> traced;
    repeat_for(seconds, spans.enabled(), [&](usize rep, bool trace_rep) {
      const Scenario scenario = trace_rep ? run_traced(spans) : run_plain();
      (trace_rep ? traced : plain).push_back(scenario.seconds);
      const f64 t0 = now_s();
      const f64 residual = max_scaled_diff(reference.residual,
                                           scenario.result.residual);
      const f64 pressure = max_scaled_diff(reference.pressure,
                                           scenario.result.pressure);
      report.check(scenario.result.ok() && residual <= 1e-5 &&
                       pressure <= 1e-5,
                   "tpfa rep " + std::to_string(rep) + ": fabric " +
                       (scenario.result.ok() ? "ok"
                                             : scenario.result.errors.front()) +
                       ", residual diff " + text(residual) +
                       ", pressure diff " + text(pressure) +
                       " vs the serial baseline (limit 1e-5)");
      check_s += now_s() - t0;
      if (rep == 0) {
        set_engine_metrics(report, scenario.result);
      }
    });
    report.set("scenario_s", median(plain));
    report.note("scenario_s.samples", join_numbers(plain));
    report.set("baseline.check_s", check_s);
    if (!spans.enabled()) {
      return;
    }

    const std::vector<Span> all = spans.snapshot();
    const std::vector<UnitLayers> setup = units_of(all, "setup");
    report.set("physics.problem_build_s",
               layer_median(setup, "physics.problem_build"));
    report.set("spec.compile_ms", 1e3 * layer_median(setup, "spec.compile"));
    const std::vector<UnitLayers> units = units_of(all, "scenario");
    const f64 load_s = layer_median(units, "dataflow.load");
    const f64 run_s = layer_median(units, "wse.run");
    report.set("dataflow.load_s", load_s);
    report.set("wse.run_s", run_s);
    report.set("dataflow.gather_s", layer_median(units, "dataflow.gather"));
    report.set("dataflow.teardown_s",
               layer_median(units, "dataflow.teardown"));
    report.set("lint.verify_s", strict_load_s_ - load_s);
    report.set("wse.events_per_s", report.metrics.at("wse.events") / run_s);
    set_trace_metrics(report, units, traced, plain);
  }

 private:
  struct Scenario {
    f64 seconds = 0.0;
    core::DataflowResult result;
  };

  [[nodiscard]] core::TpfaKernelOptions kernel() const {
    core::TpfaKernelOptions kernel;
    kernel.iterations = config_.iterations;
    return kernel;
  }

  [[nodiscard]] core::DataflowOptions options() const {
    core::DataflowOptions options;
    options.iterations = config_.iterations;
    options.execution.threads = config_.threads;
    return options;
  }

  /// What a user waits for: load (lint memoized), run, gather, teardown.
  [[nodiscard]] Scenario run_plain() const {
    Scenario scenario;
    const f64 t0 = now_s();
    scenario.result = core::run_dataflow_tpfa(*problem_, options());
    scenario.seconds = now_s() - t0;
    return scenario;
  }

  /// The same steps as core::run_dataflow_tpfa, one span per layer call.
  [[nodiscard]] Scenario run_traced(SpanLog& spans) const {
    Scenario scenario;
    const f64 t0 = now_s();
    {
      ScopedSpan root(spans, "scenario");
      std::optional<core::TpfaLoad> load;
      {
        ScopedSpan span(spans, "dataflow.load", root.id());
        load.emplace(core::load_dataflow_tpfa(*problem_, options()));
      }
      {
        ScopedSpan span(spans, "wse.run", root.id());
        static_cast<dataflow::RunInfo&>(scenario.result) = load->harness->run();
      }
      {
        ScopedSpan span(spans, "dataflow.gather", root.id());
        scenario.result.residual = Array3<f32>(config_.extents);
        scenario.result.pressure = Array3<f32>(config_.extents);
        load->grid.gather(scenario.result.residual,
                          [](const core::TpfaPeProgram& p) {
                            return p.residual();
                          });
        load->grid.gather(scenario.result.pressure,
                          [](const core::TpfaPeProgram& p) {
                            return p.pressure();
                          });
      }
      ScopedSpan span(spans, "dataflow.teardown", root.id());
      load.reset();
    }
    scenario.seconds = now_s() - t0;
    return scenario;
  }

  /// lint::run with one check enabled at a time, over a loaded fabric.
  void time_lint_checks(SpanLog& spans, Report& report) const {
    const physics::FlowProblem& problem = *problem_;
    const core::TpfaLoad load = core::load_dataflow_tpfa(problem, options());
    const Extents3 ext = problem.extents();
    const core::TpfaKernelOptions kernel_options = kernel();
    const physics::FluidProperties fluid = problem.fluid();
    const wse::ProgramFactory probe =
        [&problem, ext, kernel_options, fluid](
            Coord2 coord, Coord2 size) -> std::unique_ptr<wse::PeProgram> {
      return std::make_unique<core::TpfaPeProgram>(
          coord, size, ext, kernel_options, fluid,
          core::extract_column(problem, coord.x, coord.y));
    };
    struct Check {
      const char* layer;
      const char* metric;
      bool lint::Options::*flag;
    };
    static constexpr Check kChecks[] = {
        {"lint.routing", "lint.routing_s", &lint::Options::check_routing},
        {"lint.flow", "lint.flow_s", &lint::Options::check_flow},
        {"lint.reconfig", "lint.reconfig_s",
         &lint::Options::check_reconfiguration},
        {"lint.memory", "lint.memory_s", &lint::Options::check_memory},
    };
    ScopedSpan root(spans, "lint.checks");
    for (const Check& check : kChecks) {
      lint::Options only;
      only.check_routing = false;
      only.check_memory = false;
      only.check_reconfiguration = false;
      only.check_flow = false;
      only.*check.flag = true;
      only.memory_budget = wse::PeMemory::kDefaultBudget;
      if (check.flag == &lint::Options::check_memory) {
        only.probe_factory = probe;
      }
      const f64 t0 = now_s();
      lint::Report found;
      {
        ScopedSpan span(spans, check.layer, root.id());
        found = lint::run(load.harness->fabric(), only);
      }
      report.set(check.metric, now_s() - t0);
      report.check(found.error_count() == 0,
                   std::string(check.layer) + " found errors:\n" +
                       found.describe());
    }
  }

  TpfaConfig config_;
  u64 seed_;
  std::optional<physics::FlowProblem> problem_;
  f64 strict_load_s_ = 0.0;
};

// ---------------------------------------------------------------- krylov --

/// The Krylov geomodel is held fixed: at 16x16x8 the CG iteration count
/// ranges 237-480 over geomodel seeds 1-8, so a seeded geomodel would make
/// the scenario time a property of the seed rather than of the code.
constexpr u64 kKrylovGeomodelSeed = 42;

class KrylovWorkload final : public Workload {
 public:
  KrylovWorkload(i32 extent, i32 nz, f64 tol) {
    cg_.kernel = "cg";
    cg_.nx = extent;
    cg_.ny = extent;
    cg_.nz = nz;
    cg_.seed = kKrylovGeomodelSeed;
    cg_.iterations = 600;  // CG cap
    cg_.tol = tol;
    impes_ = cg_;
    impes_.kernel = "impes";
    impes_.iterations = 3;  // windows
  }

  std::vector<f64> setup(SpanLog& spans) override {
    // The cold first pass: kernel registry, the mandatory strict lint of
    // the IMPES transport shape, and first-touch allocation. The API has
    // no way to force the lint again, so there is one sample per process.
    const Pass pass = run_pass(spans, "setup");
    if (const std::string failure = check(pass); !failure.empty()) {
      throw std::runtime_error("krylov set-up pass failed: " + failure);
    }
    return {pass.seconds};
  }

  void run(f64 seconds, SpanLog& spans, Report& report) override {
    SpanLog untraced(false);
    std::vector<f64> plain;
    std::vector<f64> traced;
    f64 check_s = 0.0;
    std::array<std::vector<f64>, kCalls> call_seconds;
    repeat_for(seconds, spans.enabled(), [&](usize rep, bool trace_rep) {
      const Pass pass = run_pass(trace_rep ? spans : untraced, "scenario");
      (trace_rep ? traced : plain).push_back(pass.seconds);
      for (usize i = 0; i < kCalls; ++i) {
        call_seconds[i].push_back(pass.call_seconds[i]);
      }
      const f64 t0 = now_s();
      const std::string failure = check(pass);
      report.check(failure.empty(),
                   "krylov pass " + std::to_string(rep) + ": " + failure);
      check_s += now_s() - t0;
      if (rep == 0) {
        set_pass_counters(report, pass);
      }
    });
    report.set("scenario_s", median(plain));
    report.note("scenario_s.samples", join_numbers(plain));
    report.set("baseline.check_s", check_s);
    for (usize i = 0; i < kCalls; ++i) {
      report.set(kCallMetrics[i], median(call_seconds[i]));
    }
    const f64 wse_s = median(call_seconds[0]) + median(call_seconds[2]);
    report.set("wse.events_per_s", report.metrics.at("wse.events") / wse_s);
    if (spans.enabled()) {
      set_trace_metrics(report, units_of(spans.snapshot(), "scenario"),
                        traced, plain);
    }
  }

 private:
  static constexpr usize kCalls = 4;
  static constexpr const char* kCallLayers[kCalls] = {
      "api.cg_wse", "api.cg_gpusim", "api.impes_wse", "api.impes_gpusim"};
  static constexpr const char* kCallMetrics[kCalls] = {
      "api.cg_wse_s", "api.cg_gpusim_s", "api.impes_wse_s",
      "api.impes_gpusim_s"};

  struct Pass {
    f64 seconds = 0.0;
    std::array<api::FieldEquationResult, kCalls> results;
    std::array<f64, kCalls> call_seconds{};
  };

  /// CG then IMPES, each on wse then gpusim, through api::run_field_equation.
  [[nodiscard]] Pass run_pass(SpanLog& spans, const char* root_name) const {
    Pass pass;
    const f64 t0 = now_s();
    {
      ScopedSpan root(spans, root_name);
      for (usize i = 0; i < kCalls; ++i) {
        const api::FieldEquationSpec& spec = i < 2 ? cg_ : impes_;
        const api::Backend backend =
            i % 2 == 0 ? api::Backend::Wse : api::Backend::Gpusim;
        const f64 c0 = now_s();
        ScopedSpan span(spans, kCallLayers[i], root.id());
        pass.results[i] = api::run_field_equation(spec, backend);
        pass.call_seconds[i] = now_s() - c0;
      }
    }
    pass.seconds = now_s() - t0;
    return pass;
  }

  /// Every solve converged and the backends agree to reduction tolerance.
  [[nodiscard]] static std::string check(const Pass& pass) {
    std::string failure;
    for (usize i = 0; i < kCalls; ++i) {
      if (!pass.results[i].converged) {
        failure += std::string(kCallLayers[i]) + " did not converge; ";
      }
    }
    const f64 cg = max_scaled_diff(pass.results[0].field, pass.results[1].field);
    const f64 impes =
        max_scaled_diff(pass.results[2].field, pass.results[3].field);
    if (!(cg < 1e-3)) {
      failure += "cg wse vs gpusim differ by " + text(cg) + "; ";
    }
    if (!(impes < 1e-3)) {
      failure += "impes wse vs gpusim differ by " + text(impes) + "; ";
    }
    return failure;
  }

  static void set_pass_counters(Report& report, const Pass& pass) {
    dataflow::RunInfo fabric = pass.results[0].fabric;
    dataflow::accumulate(fabric, pass.results[2].fabric);
    set_engine_metrics(report, fabric);
    report.set("solver.cg_iterations", pass.results[0].work);
    for (const auto& [name, value] : pass.results[2].summary) {
      if (name == "cg_iterations") {
        report.set("solver.impes_cg_iterations", value);
      }
    }
    report.set("gpusim.device_s", pass.results[1].device_seconds +
                                      pass.results[3].device_seconds);
    report.set("gpusim.kernels_launched",
               static_cast<f64>(pass.results[1].gpu.kernels_launched +
                                pass.results[3].gpu.kernels_launched));
  }

  api::FieldEquationSpec cg_;
  api::FieldEquationSpec impes_;
};

// ----------------------------------------------------------------- serve --

/// Scenario executions the service runs at once.
constexpr i32 kServeWorkers = 2;

/// Service set-ups per run; setup_s is their median. Each takes a few
/// milliseconds, so the samples span about a second and a short stall of
/// the host moves the median little.
constexpr usize kServeSetupReps = 101;

/// A request counts toward goodput when it is Ok within this limit.
constexpr f64 kGoodputLimitS = 1.0;

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ScheduleOptions schedule, u64 seed)
      : schedule_(std::move(schedule)), seed_(seed) {}

  std::vector<f64> setup(SpanLog& spans) override {
    std::vector<f64> samples;
    for (usize rep = 0; rep < kServeSetupReps; ++rep) {
      service_.reset();  // stopping the previous service is not set-up work
      const f64 start = now_s();
      start_service(spans);
      samples.push_back(now_s() - start);
    }
    return samples;
  }

  void run(f64 seconds, SpanLog& spans, Report& report) override {
    ScheduleOptions options = schedule_;
    options.seconds = seconds;
    const std::vector<ScheduledRequest> schedule = make_schedule(seed_, options);
    // Whole blocks of arrivals: the nominal length of what was scheduled.
    const f64 schedule_s =
        static_cast<f64>(schedule.size()) / options.rate_per_s;
    Run run;
    run.resolved.reserve(schedule.size());
    for (const ScheduledRequest& request : schedule) {
      run.resolved.push_back(
          serve::resolve_defaults(serve::parse_request(request.line)));
    }
    const serve::ServiceStats before = service_->stats();
    collect(schedule, spans.enabled(), run);
    const serve::ServiceStats after = service_->stats();
    score(run, schedule_s, report);
    report.set("serve.memo_hit_rate", hit_rate(before.memo, after.memo));
    report.set("serve.coalesced",
               static_cast<f64>(after.coalesced - before.coalesced));
    report.set("serve.cold_simulations",
               static_cast<f64>(after.executor.simulations -
                                before.executor.simulations));
    report.set("serve.problem_cache_hit_rate",
               hit_rate(before.executor.problems, after.executor.problems));
    report.set("serve.setup_cache_hit_rate",
               hit_rate(before.executor.setups, after.executor.setups));
    report.set("serve.max_queue_depth",
               static_cast<f64>(after.max_queue_depth));
    report.note("serve.requests",
                std::to_string(schedule.size()) + " over " +
                    format_number(schedule_s) + " s at " +
                    format_number(options.rate_per_s) + " req/s, " +
                    std::to_string(kServeWorkers) + " workers");
    verify(schedule, run, report);
    if (spans.enabled()) {
      trace(run, spans, report);
    }
  }

 private:
  /// A new service, then one request per program on extents the schedule
  /// never uses, one at a time, with strict lint: the one-time costs of
  /// the first request of each kind, before the open loop starts.
  void start_service(SpanLog& spans) {
    ScopedSpan root(spans, "setup");
    {
      ScopedSpan span(spans, "serve.start", root.id());
      serve::ServiceOptions options;
      options.workers = kServeWorkers;
      // Never shed: an overloaded machine shows up as latency, not as
      // refused requests.
      options.queue_capacity = 1u << 16;
      service_ = std::make_unique<serve::ScenarioService>(options);
    }
    ScopedSpan span(spans, "serve.warmup", root.id());
    for (const char* program :
         {"tpfa", "cg", "transport", "wave", "impes", "heat"}) {
      const std::string line = std::string("program=") + program +
                               " nx=4 ny=4 nz=2 seed=9 tol=1e-3 lint=strict";
      const serve::ScenarioResponse response =
          service_->submit_line(line).get();
      if (!response.ok()) {
        throw std::runtime_error("serve warm-up '" + line +
                                 "' failed: " + response.error);
      }
    }
    if (!service_->submit_line("program=tpfa nx=4 ny=4 nz=2 seed=9 "
                               "backend=gpusim")
             .get()
             .ok()) {
      throw std::runtime_error("serve warm-up on gpusim failed");
    }
  }

  struct Record {
    f64 due = 0.0;  ///< absolute now_s()
    f64 sent = 0.0;
    f64 submitted = 0.0;
    f64 done = 0.0;
    f64 serialized = 0.0;
    f64 parse_s = 0.0;
    f64 hash_s = 0.0;
    f64 submit_s = 0.0;
    f64 serialize_s = 0.0;
    bool traced = false;
    /// First request holding its (non-memo) response: the one that ran.
    bool leader = false;
    std::shared_future<serve::ScenarioResponse> future;
    std::string error;  ///< submit threw
    std::string bytes;  ///< serialize_response of the answer
  };

  /// One open-loop pass: per-request records and resolved requests.
  struct Run {
    f64 start = 0.0;
    std::vector<serve::ScenarioRequest> resolved;
    std::vector<Record> records;
  };

  static f64 hit_rate(const serve::CacheStats& before,
                      const serve::CacheStats& after) {
    const u64 hits = after.hits - before.hits;
    const u64 total = hits + (after.misses - before.misses);
    return total == 0 ? 0.0 : static_cast<f64>(hits) / static_cast<f64>(total);
  }

  /// Sends the schedule from a generator thread while this thread stamps
  /// completions and serializes every answer.
  void collect(const std::vector<ScheduledRequest>& schedule, bool tracing,
               Run& run) const;
  void generate(const std::vector<ScheduledRequest>& schedule,
                std::vector<Record>& records,
                std::chrono::steady_clock::time_point start,
                std::vector<usize>& arrived, std::mutex& mutex,
                std::condition_variable& ready) const;
  void score(const Run& run, f64 schedule_s, Report& report) const;
  /// The oracle: every answer Ok, memo answers byte-identical to the
  /// executed one, and order-insensitive kernels bitwise equal across
  /// backends.
  static void verify(const std::vector<ScheduledRequest>& schedule,
                     const Run& run, Report& report);
  static void trace(const Run& run, SpanLog& spans, Report& report);

  ScheduleOptions schedule_;
  u64 seed_;
  std::unique_ptr<serve::ScenarioService> service_;
};

void ServeWorkload::collect(const std::vector<ScheduledRequest>& schedule,
                            bool tracing, Run& run) const {
  const usize n = schedule.size();
  std::vector<Record>& records = run.records;
  records.assign(n, Record{});
  const auto start = std::chrono::steady_clock::now();
  run.start = std::chrono::duration<f64>(start.time_since_epoch()).count();
  for (usize i = 0; i < n; ++i) {
    records[i].due = run.start + schedule[i].due;
    records[i].traced = tracing && i % 2 == 1;
  }

  std::mutex mutex;
  std::condition_variable ready;
  std::vector<usize> arrived;
  std::jthread generator([&] {
    generate(schedule, records, start, arrived, mutex, ready);
  });

  // Poll outstanding futures, so each completion is stamped within
  // ~0.1 ms whatever order requests finish in.
  std::vector<usize> outstanding;
  for (usize finished = 0; finished < n;) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (outstanding.empty()) {
        ready.wait(lock, [&] { return !arrived.empty(); });
      }
      outstanding.insert(outstanding.end(), arrived.begin(), arrived.end());
      arrived.clear();
    }
    bool progressed = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      Record& record = records[*it];
      if (record.future.valid() &&
          record.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        ++it;
        continue;
      }
      record.done = now_s();
      if (record.future.valid()) {
        record.bytes = serve::serialize_response(record.future.get());
      }
      record.serialized = now_s();
      record.serialize_s = record.serialized - record.done;
      it = outstanding.erase(it);
      ++finished;
      progressed = true;
    }
    if (!progressed && !outstanding.empty()) {
      (void)records[outstanding.front()].future.wait_for(
          std::chrono::microseconds(100));
    }
  }
  generator.join();

  // A coalesced request shares its leader's future, so the leader is the
  // first request holding a given (non-memo) response object.
  std::unordered_map<const serve::ScenarioResponse*, usize> leader_of;
  for (usize i = 0; i < n; ++i) {
    if (records[i].future.valid()) {
      const serve::ScenarioResponse& response = records[i].future.get();
      records[i].leader =
          !response.cache_hit && leader_of.emplace(&response, i).second;
    }
  }
}

void ServeWorkload::generate(const std::vector<ScheduledRequest>& schedule,
                             std::vector<Record>& records,
                             std::chrono::steady_clock::time_point start,
                             std::vector<usize>& arrived, std::mutex& mutex,
                             std::condition_variable& ready) const {
  for (usize i = 0; i < schedule.size(); ++i) {
    Record& record = records[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<f64>(schedule[i].due)));
    record.sent = now_s();
    try {
      if (record.traced) {
        f64 t = now_s();
        const serve::ScenarioRequest request =
            serve::parse_request(schedule[i].line);
        record.parse_s = now_s() - t;
        t = now_s();
        (void)serve::scenario_hash(serve::resolve_defaults(request));
        record.hash_s = now_s() - t;
        t = now_s();
        record.future = service_->submit(request);
        record.submit_s = now_s() - t;
      } else {
        record.future = service_->submit_line(schedule[i].line);
        record.submit_s = now_s() - record.sent;
      }
    } catch (const std::exception& error) {
      record.error = error.what();
    }
    record.submitted = now_s();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      arrived.push_back(i);
    }
    ready.notify_one();
  }
}

void ServeWorkload::score(const Run& run, f64 schedule_s,
                          Report& report) const {
  std::vector<f64> latency;
  std::vector<f64> lag;
  std::vector<f64> parse;
  std::vector<f64> hash;
  std::vector<f64> submit;
  std::vector<f64> serialize;
  std::vector<f64> execute;
  std::vector<f64> queue_wait;
  usize good = 0;
  f64 busy_s = 0.0;
  f64 wse_busy_s = 0.0;
  f64 last_done = run.start;
  std::vector<std::pair<u64, usize>> executed;  // (scenario hash, record)
  for (usize i = 0; i < run.records.size(); ++i) {
    const Record& record = run.records[i];
    lag.push_back(record.sent - record.due);
    last_done = std::max(last_done, record.done);
    if (!record.future.valid()) {
      continue;
    }
    const serve::ScenarioResponse& response = record.future.get();
    const f64 wait = record.serialized - record.due;
    latency.push_back(wait);
    good += response.ok() && wait <= kGoodputLimitS ? 1 : 0;
    serialize.push_back(record.serialize_s);
    if (record.traced) {
      parse.push_back(record.parse_s);
      hash.push_back(record.hash_s);
      submit.push_back(record.submit_s);
    }
    if (!record.leader) {
      continue;
    }
    execute.push_back(response.run_ms);
    queue_wait.push_back(response.queue_ms);
    busy_s += response.run_ms / 1e3;
    executed.emplace_back(response.scenario_hash, i);
  }

  // Simulated totals are summed in scenario-hash order, not completion
  // order, so the floating-point sums repeat exactly run to run.
  std::sort(executed.begin(), executed.end());
  dataflow::RunInfo fabric;
  f64 gpu_device_s = 0.0;
  f64 gpu_kernels = 0.0;
  for (const auto& entry : executed) {
    const usize i = entry.second;
    const serve::ScenarioResponse& response = run.records[i].future.get();
    if (run.resolved[i].backend == serve::BackendChoice::Gpusim) {
      gpu_device_s += response.info.device_seconds;
      for (const auto& [name, value] : response.summary) {
        gpu_kernels += name == "gpu_kernels_launched" ? value : 0.0;
      }
    } else {
      dataflow::accumulate(fabric, response.info);
      wse_busy_s += response.run_ms / 1e3;
    }
  }

  const auto set_p50 = [&report](const char* metric,
                                 const std::vector<f64>& samples, f64 scale) {
    if (!samples.empty()) {
      report.set(metric, median(samples) * scale);
    }
  };
  const auto set_tail = [&report](const char* metric,
                                  const std::vector<f64>& samples, f64 scale) {
    if (const auto tail = tail_percentile(samples)) {
      report.set(metric, tail->value * scale);
      report.note(metric, "p" + format_number(tail->percentile) + " of " +
                              std::to_string(samples.size()) + ", " +
                              std::to_string(tail->beyond) + " beyond");
    }
  };
  // The wall time the service spends running one scenario, the serve
  // counterpart of the other workloads' scenario_s. Waits from the due
  // time add queueing, which swings with each seed's arrival bursts
  // (see README.md), so they are per-layer numbers.
  report.set("scenario_s", median(execute) / 1e3);
  report.note("scenario_s.samples",
              std::to_string(execute.size()) + " executed requests");
  set_p50("serve.latency_p50_ms", latency, 1e3);
  set_tail("serve.latency_tail_ms", latency, 1e3);
  set_tail("serve.gen_lag_tail_ms", lag, 1e3);
  report.set("serve.goodput_rps", static_cast<f64>(good) / schedule_s);
  set_p50("serve.submit_p50_us", submit, 1e6);
  set_tail("serve.submit_tail_us", submit, 1e6);
  set_p50("serve.serialize_p50_us", serialize, 1e6);
  set_tail("serve.serialize_tail_us", serialize, 1e6);
  set_tail("serve.execute_tail_ms", execute, 1.0);
  set_p50("serve.queue_wait_p50_ms", queue_wait, 1.0);
  set_tail("serve.queue_wait_tail_ms", queue_wait, 1.0);
  set_p50("serve.parse_p50_us", parse, 1e6);
  set_tail("serve.parse_tail_us", parse, 1e6);
  set_p50("serve.hash_p50_us", hash, 1e6);
  set_tail("serve.hash_tail_us", hash, 1e6);
  report.set("serve.worker_util",
             busy_s / (kServeWorkers * (last_done - run.start)));
  set_engine_metrics(report, fabric);
  if (wse_busy_s > 0.0) {
    report.set("wse.events_per_s",
               static_cast<f64>(fabric.events_processed) / wse_busy_s);
  }
  report.set("gpusim.device_s", gpu_device_s);
  report.set("gpusim.kernels_launched", gpu_kernels);
}

void ServeWorkload::verify(const std::vector<ScheduledRequest>& schedule,
                           const Run& run, Report& report) {
  const f64 start = now_s();
  std::unordered_map<u64, usize> first_of_hash;
  for (usize i = 0; i < run.records.size(); ++i) {
    const Record& record = run.records[i];
    std::string failure = record.error;
    if (record.future.valid()) {
      const serve::ScenarioResponse& response = record.future.get();
      if (!response.ok()) {
        failure += std::string(serve::status_name(response.status)) + ": " +
                   response.error + "; ";
      }
      const auto [first, inserted] =
          first_of_hash.emplace(response.scenario_hash, i);
      if (!inserted && record.bytes != run.records[first->second].bytes) {
        failure += "serialized response differs from request " +
                   std::to_string(first->second) + "'s; ";
      }
      const serve::ScenarioRequest& request = run.resolved[i];
      const std::string_view program = serve::program_name(request.program);
      if (record.leader && response.ok() &&
          (program == "tpfa" || program == "transport" || program == "heat")) {
        api::FieldEquationSpec spec;
        spec.kernel = std::string(program);
        spec.nx = request.nx;
        spec.ny = request.ny;
        spec.nz = request.nz;
        spec.seed = request.seed;
        spec.iterations = request.iterations;
        spec.dt = request.dt;
        spec.tol = request.tol;
        const api::Backend other =
            request.backend == serve::BackendChoice::Gpusim
                ? api::Backend::Wse
                : api::Backend::Gpusim;
        if (api::run_field_equation(spec, other).result_digest !=
            response.result_digest) {
          failure += "result digest differs from the other backend's; ";
        }
      }
    }
    report.check(failure.empty(), "request " + std::to_string(i) + " (" +
                                      schedule[i].line + "): " + failure);
  }
  report.set("baseline.check_s", now_s() - start);
}

void ServeWorkload::trace(const Run& run, SpanLog& spans, Report& report) {
  std::vector<f64> latency;
  std::vector<f64> traced_path;
  std::vector<f64> plain_path;
  for (usize i = 0; i < run.records.size(); ++i) {
    const Record& record = run.records[i];
    if (!record.future.valid()) {
      continue;
    }
    latency.push_back(record.serialized - record.due);
    if (!record.traced) {
      plain_path.push_back(record.submit_s);
      continue;
    }
    traced_path.push_back(record.parse_s + record.hash_s + record.submit_s);
    const auto request = static_cast<i64>(i);
    const u32 lane = 1000 + static_cast<u32>(i);  // one track per request
    const u64 root = spans.reserve();
    const auto add = [&](const char* name, f64 begin, f64 end) {
      spans.add(Span{0, root, name, begin, std::max(begin, end), request, lane});
    };
    add("serve.gen_lag", record.due, record.sent);
    const f64 parsed = record.sent + record.parse_s;
    add("serve.parse", record.sent, parsed);
    add("serve.hash", parsed, parsed + record.hash_s);
    add("serve.submit", record.submitted - record.submit_s, record.submitted);
    const serve::ScenarioResponse& response = record.future.get();
    if (record.leader) {
      const f64 started = record.submitted + response.queue_ms / 1e3;
      add("serve.queue", record.submitted, started);
      add("serve.execute", started,
          std::min(record.done, started + response.run_ms / 1e3));
    } else if (!response.cache_hit) {
      add("serve.coalesced_wait", record.submitted, record.done);
    }
    add("serve.serialize", record.done, record.serialized);
    const char* kind = record.leader        ? "serve.request"
                       : response.cache_hit ? "serve.memo_request"
                                            : "serve.coalesced_request";
    spans.add(Span{root, 0, kind, record.due, record.serialized, request,
                   lane});
  }
  // Units are the traced executed requests. Their layers partition the
  // latency; what no span explains is mostly the wait between a worker
  // finishing and the completion being stamped.
  const std::vector<UnitLayers> units =
      units_of(spans.snapshot(), "serve.request");
  if (units.empty() || plain_path.empty()) {
    return;  // too short a run to have both kinds of request
  }
  report.set("trace.layer_sum_gap_frac", layer_sum_gap(units));
  // Tracing changes only the generator's submit path: a traced request is
  // parsed and hashed on its own before submit. Untraced and traced
  // latencies are not compared, because the two halves of the mix differ
  // by more than that cost.
  report.set("trace.overhead_frac",
             (median(traced_path) - median(plain_path)) / median(latency));
  report.note("trace.samples", std::to_string(units.size()) +
                                   " traced executed requests, " +
                                   std::to_string(traced_path.size()) +
                                   " traced of " +
                                   std::to_string(latency.size()));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wafer_strip_tpfa", "tpfa_256_serial", "krylov_16", "serve_open"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, u64 seed,
                                        bool smoke) {
  if (name == "wafer_strip_tpfa") {
    // The paper's 750-PE fabric width, 96 rows deep, on the parallel
    // window engine.
    return std::make_unique<TpfaWorkload>(
        smoke ? TpfaConfig{{48, 8, 4}, 1, 4} : TpfaConfig{{750, 96, 12}, 2, 4},
        seed);
  }
  if (name == "tpfa_256_serial") {
    return std::make_unique<TpfaWorkload>(
        smoke ? TpfaConfig{{16, 16, 4}, 2, 1}
              : TpfaConfig{{256, 256, 12}, 2, 1},
        seed);
  }
  if (name == "krylov_16") {
    // At the tiny smoke size a 1e-4 stop leaves the backends' iterates
    // further apart than the 1e-3 parity check allows; 1e-5 (the
    // backend-parity tests' setting) does not.
    return smoke ? std::make_unique<KrylovWorkload>(6, 3, 1e-5)
                 : std::make_unique<KrylovWorkload>(16, 8, 1e-4);
  }
  if (name == "serve_open") {
    ScheduleOptions schedule;
    if (smoke) {
      schedule.rate_per_s = 20.0;
      schedule.extents = {4, 6};
      schedule.depths = {2};
    }
    return std::make_unique<ServeWorkload>(std::move(schedule), seed);
  }
  return nullptr;
}

}  // namespace fvf::e2e
