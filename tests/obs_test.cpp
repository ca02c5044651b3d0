// Tests of the fvf::obs observability layer: the phase profiler's
// accounting invariant (per-PE phase totals == PE clocks), its
// no-perturbation guarantee (bit-identical results with profiling on or
// off and across --threads), the Perfetto trace_event export, and the
// bench-regression diff engine behind tools/bench_compare.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/transport_program.hpp"
#include "core/tpfa_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "obs/bench_diff.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "physics/problem.hpp"

namespace fvf {
namespace {

using core::DataflowOptions;
using core::DataflowResult;

/// Tight relative bound for "these f64 sums must agree": attribution
/// splits each PE's clock into per-phase partial sums, so association
/// differs from the straight-line clock accumulation.
void expect_close(f64 a, f64 b) {
  EXPECT_NEAR(a, b, 1e-9 * std::max({std::abs(a), std::abs(b), 1.0}));
}

/// Runs the TPFA program through a directly constructed FabricHarness so
/// the fabric (and its per-PE clocks) stays inspectable after the run.
struct TpfaRig {
  explicit TpfaRig(i32 n, i32 nz, dataflow::HarnessOptions harness_options,
                   i32 iterations = 2)
      : problem(physics::make_benchmark_problem(Extents3{n, n, nz}, 42)),
        options(std::move(harness_options)),
        harness(Coord2{n, n}, options) {
    harness.colors().claim_cardinal("tpfa cardinal exchange");
    harness.colors().claim_diagonal("tpfa diagonal forwards");
    core::TpfaKernelOptions kernel;
    kernel.iterations = iterations;
    const physics::FluidProperties fluid = problem.fluid();
    const Extents3 ext = problem.extents();
    grid = harness.load<core::TpfaPeProgram>([&](Coord2 coord,
                                                 Coord2 fabric_size) {
      return std::make_unique<core::TpfaPeProgram>(
          coord, fabric_size, ext, kernel, fluid,
          core::extract_column(problem, coord.x, coord.y));
    });
  }

  physics::FlowProblem problem;
  dataflow::HarnessOptions options;
  dataflow::FabricHarness harness;
  dataflow::ProgramGrid<core::TpfaPeProgram> grid;
};

// --- the accounting invariant -------------------------------------------------

TEST(PhaseProfilerTest, PhaseTotalsSumToEachPeClock) {
  TpfaRig rig(4, 3, {});
  const dataflow::RunInfo info = rig.harness.run();
  ASSERT_TRUE(info.ok()) << info.errors[0];

  const wse::Fabric& fabric = rig.harness.fabric();
  ASSERT_EQ(info.pe_phase_cycles.size(),
            static_cast<usize>(fabric.pe_count()));
  obs::PhaseCycles sum;
  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      const wse::Pe& pe = fabric.pe(x, y);
      expect_close(pe.phase_cycles().total(), pe.clock());
      // RunInfo carries the same attribution, row-major.
      const obs::PhaseCycles& reported =
          info.pe_phase_cycles[static_cast<usize>(y) * 4 +
                               static_cast<usize>(x)];
      for (usize p = 0; p < obs::kPhaseCount; ++p) {
        EXPECT_EQ(reported.cycles[p], pe.phase_cycles().cycles[p]);
      }
      sum += pe.phase_cycles();
    }
  }
  for (usize p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_EQ(info.phase_cycles.cycles[p], sum.cycles[p]);
  }
  // The TPFA kernel must show both work phases.
  EXPECT_GT(info.phase_cycles[obs::Phase::LocalCompute], 0.0);
  EXPECT_GT(info.phase_cycles[obs::Phase::Halo], 0.0);
  EXPECT_EQ(info.phase_cycles[obs::Phase::AllReduce], 0.0);
}

TEST(PhaseProfilerTest, AllFabricProgramsReportAttribution) {
  // TPFA (covered above in depth) — here just the launcher path.
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{4, 4, 3}, 42);
  DataflowOptions tpfa;
  tpfa.iterations = 1;
  const DataflowResult tpfa_run = core::run_dataflow_tpfa(problem, tpfa);
  ASSERT_TRUE(tpfa_run.ok());
  EXPECT_GT(tpfa_run.phase_cycles.busy(), 0.0);
  EXPECT_EQ(tpfa_run.pe_phase_cycles.size(), 16u);

  // CG: exercises the AllReduce trees on top of the halo exchange.
  const core::LinearStencil stencil =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0)).stencil;
  const core::ManufacturedSystem sys = core::manufacture_solution(stencil);
  core::CgKernelOptions cg;
  cg.max_iterations = 8;
  cg.relative_tolerance = 0.0f;  // run all 8 iterations
  const core::DataflowCgResult cg_run =
      spec::run(core::cg_launch(stencil, sys.rhs, cg), {}, core::gather_cg);
  ASSERT_TRUE(cg_run.ok()) << cg_run.errors[0];
  EXPECT_GT(cg_run.phase_cycles[obs::Phase::LocalCompute], 0.0);
  EXPECT_GT(cg_run.phase_cycles[obs::Phase::Halo], 0.0);
  EXPECT_GT(cg_run.phase_cycles[obs::Phase::AllReduce], 0.0);

  // Wave: leapfrog halo pattern.
  core::WaveKernelOptions wave;
  wave.timesteps = 3;
  wave.kappa = 0.4f;
  const core::DataflowWaveResult wave_run = spec::run(
      core::wave_launch(
          stencil, core::gaussian_pulse(problem.extents(), 1.0, 2.0), wave), {},
      core::gather_wave);
  ASSERT_TRUE(wave_run.ok()) << wave_run.errors[0];
  EXPECT_GT(wave_run.phase_cycles[obs::Phase::LocalCompute], 0.0);
  EXPECT_GT(wave_run.phase_cycles[obs::Phase::Halo], 0.0);

  // Transport (the IMPES saturation half; IMPES composes CG + this).
  const Extents3 ext = problem.extents();
  Array3<f32> pressure(ext, 2.0e7f);
  Array3<f32> saturation(ext, 0.0f);
  saturation(1, 1, 1) = 0.5f;
  Array3<f32> wells(ext, 0.0f);
  core::TransportKernelOptions transport;
  transport.window_seconds = 600.0;
  transport.pore_volume =
      static_cast<f32>(problem.mesh().cell_volume() * 0.2);
  const core::DataflowTransportResult transport_run = spec::run(
      core::transport_launch(problem, saturation, pressure, wells, transport),
      {}, core::gather_transport);
  ASSERT_TRUE(transport_run.ok()) << transport_run.errors[0];
  EXPECT_GT(transport_run.phase_cycles[obs::Phase::LocalCompute], 0.0);
  EXPECT_GT(transport_run.phase_cycles[obs::Phase::Halo], 0.0);
  EXPECT_GT(transport_run.phase_cycles[obs::Phase::AllReduce], 0.0)
      << "transport's CFL reduction runs on the AllReduce trees";
}

TEST(PhaseProfilerTest, ReliabilityPhaseAppearsUnderFaultInjection) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{4, 4, 3}, 42);
  const core::LinearStencil stencil =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0)).stencil;
  const core::ManufacturedSystem sys = core::manufacture_solution(stencil);
  core::CgKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.max_iterations = 30;
  options.execution.fault = wse::FaultConfig::uniform(7, 0.01);
  options.execution.fault.flip_color_mask = 0x00FFu;
  const core::DataflowCgResult run = spec::run(
      core::cg_launch(stencil, sys.rhs, kernel), options, core::gather_cg);
  ASSERT_TRUE(run.ok()) << run.errors[0];
  ASSERT_GT(run.faults.injected(), 0u);
  EXPECT_GT(run.phase_cycles[obs::Phase::Reliability], 0.0)
      << "the ack/retransmit layer should book cycles under Reliability";
}

// --- the no-perturbation guarantee --------------------------------------------

TEST(PhaseProfilerTest, ProfilingOnOrOffIsBitIdentical) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{5, 5, 4}, 42);
  DataflowOptions on;
  on.iterations = 2;
  DataflowOptions off = on;
  off.execution.phase_profiling = false;
  const DataflowResult a = core::run_dataflow_tpfa(problem, on);
  const DataflowResult b = core::run_dataflow_tpfa(problem, off);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.counters.flops(), b.counters.flops());
  EXPECT_EQ(a.counters.wavelets_sent, b.counters.wavelets_sent);
  for (i64 i = 0; i < a.residual.size(); ++i) {
    ASSERT_EQ(a.residual[i], b.residual[i]) << "at " << i;
  }
  EXPECT_GT(a.phase_cycles.total(), 0.0);
  // Off means *off*: no attribution is reported at all.
  EXPECT_EQ(b.phase_cycles.total(), 0.0);
  EXPECT_TRUE(b.pe_phase_cycles.empty());
}

TEST(PhaseProfilerTest, AttributionIsIdenticalAcrossThreadCounts) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{6, 6, 3}, 42);
  DataflowOptions serial;
  serial.iterations = 2;
  DataflowOptions threaded = serial;
  threaded.execution.threads = 4;
  const DataflowResult a = core::run_dataflow_tpfa(problem, serial);
  const DataflowResult b = core::run_dataflow_tpfa(problem, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.pe_phase_cycles.size(), b.pe_phase_cycles.size());
  // Each PE's attribution is computed by the tile owning its row, in the
  // same deterministic event order as the serial run: bit-identical, not
  // merely close.
  for (usize pe = 0; pe < a.pe_phase_cycles.size(); ++pe) {
    for (usize p = 0; p < obs::kPhaseCount; ++p) {
      ASSERT_EQ(a.pe_phase_cycles[pe].cycles[p],
                b.pe_phase_cycles[pe].cycles[p])
          << "PE " << pe << " phase " << p;
    }
  }
}

// --- Perfetto export -----------------------------------------------------------

TEST(PerfettoExportTest, RoundTripsSeededTpfaRun) {
  wse::TraceRecorder recorder(1 << 20);
  dataflow::HarnessOptions options;
  options.trace = &recorder;
  options.execution.phase_span_capacity = 1 << 14;
  TpfaRig rig(3, 2, options);
  const dataflow::RunInfo info = rig.harness.run();
  ASSERT_TRUE(info.ok()) << info.errors[0];
  ASSERT_GT(recorder.size(), 0u);
  ASSERT_EQ(recorder.dropped(), 0u);

  std::ostringstream os;
  const obs::PerfettoExportStats stats =
      obs::write_perfetto_json(os, rig.harness.fabric(), &recorder);
  EXPECT_EQ(stats.instant_events, recorder.size());
  EXPECT_EQ(stats.fault_instants, 0u);
  EXPECT_GT(stats.phase_slices, 0u);
  EXPECT_EQ(stats.spans_dropped, 0u);

  // Valid JSON of the trace_event shape, with one slice/instant per
  // exported record and monotone non-decreasing instant timestamps
  // (the recorder stream is chronological).
  const obs::JsonValue doc = obs::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  usize slices = 0;
  usize instants = 0;
  f64 last_instant_ts = -1.0;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++slices;
      const obs::JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GT(dur->number, 0.0);
    } else if (ph->string == "i") {
      ++instants;
      const obs::JsonValue* ts = e.find("ts");
      ASSERT_NE(ts, nullptr);
      EXPECT_GE(ts->number, last_instant_ts);
      last_instant_ts = ts->number;
    }
  }
  EXPECT_EQ(slices, stats.phase_slices);
  EXPECT_EQ(instants, recorder.size());
}

TEST(PerfettoExportTest, FaultEventsExportAsFaultInstants) {
  wse::TraceRecorder recorder(1 << 20);
  dataflow::HarnessOptions options;
  options.trace = &recorder;
  options.execution.fault = wse::FaultConfig::uniform(11, 0.02);
  // Stalls only: TPFA's plain halo protocol cannot recover dropped
  // blocks, and stalls still emit FaultStall trace records.
  options.execution.fault.bit_flip_rate = 0.0;
  options.execution.fault.pe_halt_rate = 0.0;
  TpfaRig rig(4, 2, options);
  const dataflow::RunInfo info = rig.harness.run();
  ASSERT_TRUE(info.ok()) << info.errors[0];
  ASSERT_GT(info.faults.injected(), 0u);

  std::ostringstream os;
  const obs::PerfettoExportStats stats =
      obs::write_perfetto_json(os, rig.harness.fabric(), &recorder);
  EXPECT_GT(stats.fault_instants, 0u);

  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  usize fault_instants = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* cat = e.find("cat");
    if (cat != nullptr && cat->string == "fault") {
      ++fault_instants;
    }
  }
  EXPECT_EQ(fault_instants, stats.fault_instants);
}

TEST(PerfettoExportTest, HarnessWritesFileForTraceJsonPath) {
  const std::string path = testing::TempDir() + "/fvf_obs_test_trace.json";
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{3, 3, 2}, 42);
  DataflowOptions options;
  options.iterations = 1;
  options.trace_json_path = path;
  const DataflowResult run = core::run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(run.ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "harness did not write " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const obs::JsonValue doc = obs::parse_json(text.str());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 0u);
}

// --- TraceRecorder overflow policies -------------------------------------------

TEST(TraceRecorderTest, KeepFirstDropsTheTail) {
  wse::TraceRecorder recorder(3, wse::TraceRecorder::Mode::KeepFirst);
  for (u32 i = 0; i < 5; ++i) {
    recorder.record(wse::TraceEvent{.time = static_cast<f64>(i)});
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const std::vector<wse::TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 0.0);
  EXPECT_EQ(events[2].time, 2.0);
}

TEST(TraceRecorderTest, KeepLatestRetainsTheEndInOrder) {
  wse::TraceRecorder recorder(3, wse::TraceRecorder::Mode::KeepLatest);
  for (u32 i = 0; i < 5; ++i) {
    recorder.record(wse::TraceEvent{.time = static_cast<f64>(i)});
  }
  // emitted == size() + dropped() in both modes.
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const std::vector<wse::TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 2.0);
  EXPECT_EQ(events[1].time, 3.0);
  EXPECT_EQ(events[2].time, 4.0);
}

// --- bench-regression diff engine ----------------------------------------------

std::string bench_json(f64 cycles, f64 fmul, f64 halo_cycles,
                       const char* extra_case = "") {
  std::ostringstream os;
  os << R"({"bench": "t", "cases": [{"name": "full", "cycles": )" << cycles
     << R"(, "device_seconds": 0.5, "counters": {"fmul": )" << fmul
     << R"(}, "metrics": {"phase_halo_cycles": )" << halo_cycles << "}}"
     << extra_case << "]}";
  return os.str();
}

TEST(BenchDiffTest, IdenticalRunsPass) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(1000, 40, 300));
  EXPECT_TRUE(obs::compare_bench(a, b).empty());
}

TEST(BenchDiffTest, WithinToleranceDriftPasses) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(1005, 40, 301));
  EXPECT_TRUE(obs::compare_bench(a, b).empty());
}

TEST(BenchDiffTest, CycleRegressionPastToleranceFails) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(1100, 40, 300));
  const std::vector<obs::BenchDivergence> d = obs::compare_bench(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].field, "cycles");
  EXPECT_FALSE(d[0].structural);
  EXPECT_FALSE(d[0].describe().empty());
}

TEST(BenchDiffTest, ImprovementsAreFlaggedToo) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(900, 40, 300));
  EXPECT_EQ(obs::compare_bench(a, b).size(), 1u);
}

TEST(BenchDiffTest, CountersAreExactByDefault) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(1000, 41, 300));
  const std::vector<obs::BenchDivergence> d = obs::compare_bench(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].field, "counters.fmul");

  obs::BenchCompareOptions loose;
  loose.counter_tolerance = 0.1;
  EXPECT_TRUE(obs::compare_bench(a, b, loose).empty());
}

TEST(BenchDiffTest, IgnoredFieldsAreNotGated) {
  // host_seconds is wall-clock noise: ignored by default for both value
  // drift and one-sided presence.
  obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  obs::BenchData b = a;
  a.cases[0].metrics.emplace_back("host_seconds", 1.0);
  b.cases[0].metrics.emplace_back("host_seconds", 2.0);
  EXPECT_TRUE(obs::compare_bench(a, b).empty());
  b.cases[0].metrics.pop_back();
  EXPECT_TRUE(obs::compare_bench(a, b).empty());

  obs::BenchCompareOptions gate_everything;
  gate_everything.ignored_fields.clear();
  EXPECT_FALSE(obs::compare_bench(a, b, gate_everything).empty());
}

TEST(BenchDiffTest, MinPrefixedMetricsGateOneDirectionOnly) {
  // A `min_` metric is machine-sensitive host throughput: a faster
  // machine (higher value) must never fail, a collapse must.
  obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  obs::BenchData b = a;
  a.cases[0].metrics.emplace_back("min_events_per_host_second", 1.0e6);
  b.cases[0].metrics.emplace_back("min_events_per_host_second", 3.0e6);
  EXPECT_TRUE(obs::compare_bench(a, b).empty());

  // Default min_metric_tolerance = 0.6: 0.5e6 is below 1.0e6 * 0.4.
  b.cases[0].metrics.back().second = 0.3e6;
  const std::vector<obs::BenchDivergence> d = obs::compare_bench(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].field, "metrics.min_events_per_host_second");

  // Within the one-sided band: passes.
  b.cases[0].metrics.back().second = 0.5e6;
  EXPECT_TRUE(obs::compare_bench(a, b).empty());

  // The metric must still exist on both sides (structural check stays).
  b.cases[0].metrics.pop_back();
  const std::vector<obs::BenchDivergence> gone = obs::compare_bench(a, b);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_TRUE(gone[0].structural);
}

TEST(BenchDiffTest, MaxPrefixedMetricsGateOneDirectionOnly) {
  // A `max_` metric is machine-sensitive host latency: a faster machine
  // (lower value) must never fail, a blow-up must.
  obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  obs::BenchData b = a;
  a.cases[0].metrics.emplace_back("max_p99_latency_ms", 10.0);
  b.cases[0].metrics.emplace_back("max_p99_latency_ms", 0.5);
  EXPECT_TRUE(obs::compare_bench(a, b).empty());

  // Default max_metric_tolerance = 3.0: 50 is above 10 * 4.
  b.cases[0].metrics.back().second = 50.0;
  const std::vector<obs::BenchDivergence> d = obs::compare_bench(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].field, "metrics.max_p99_latency_ms");
  EXPECT_FALSE(d[0].describe().empty());

  // Within the one-sided band: passes.
  b.cases[0].metrics.back().second = 35.0;
  EXPECT_TRUE(obs::compare_bench(a, b).empty());

  // A tighter band via the option.
  obs::BenchCompareOptions tight;
  tight.max_metric_tolerance = 0.1;
  EXPECT_EQ(obs::compare_bench(a, b, tight).size(), 1u);

  // The metric must still exist on both sides (structural check stays).
  b.cases[0].metrics.pop_back();
  const std::vector<obs::BenchDivergence> gone = obs::compare_bench(a, b);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_TRUE(gone[0].structural);
}

TEST(BenchDiffTest, MissingAndExtraCasesAreStructural) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  const obs::BenchData b = obs::parse_bench_json(bench_json(
      1000, 40, 300,
      R"(, {"name": "new", "cycles": 1, "device_seconds": 0.1})"));
  const std::vector<obs::BenchDivergence> extra = obs::compare_bench(a, b);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_TRUE(extra[0].structural);
  EXPECT_EQ(extra[0].case_name, "new");

  const std::vector<obs::BenchDivergence> missing = obs::compare_bench(b, a);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_TRUE(missing[0].structural);
}

TEST(BenchDiffTest, MissingMetricIsStructural) {
  const obs::BenchData a = obs::parse_bench_json(bench_json(1000, 40, 300));
  obs::BenchData b = a;
  b.cases[0].metrics.clear();
  const std::vector<obs::BenchDivergence> d = obs::compare_bench(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0].structural);
  EXPECT_EQ(d[0].field, "metrics.phase_halo_cycles");
}

TEST(BenchDiffTest, MalformedSidecarsThrow) {
  EXPECT_THROW(obs::parse_bench_json("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json(R"({"bench": "t", "cases": [{}]})"),
               std::runtime_error);
  EXPECT_THROW(
      obs::parse_bench_json(R"({"bench": "t", "cases": [
        {"name": "c", "cycles": "fast", "device_seconds": 1}]})"),
      std::runtime_error);
}

TEST(JsonParserTest, ParsesNestedDocumentsAndRejectsGarbage) {
  const obs::JsonValue doc = obs::parse_json(
      R"({"a": [1, 2.5e3, -4], "b": {"c": true, "d": null}, "e": "x\"y"})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->array[1].number, 2500.0);
  EXPECT_EQ(doc.find("e")->string, "x\"y");
  EXPECT_THROW(obs::parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::parse_json(""), std::runtime_error);
}

}  // namespace
}  // namespace fvf
