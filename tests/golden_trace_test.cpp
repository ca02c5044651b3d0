// Golden-trace regressions for the TPFA, CG and wave communication patterns,
// plus regression coverage for the RunReport accounting paths (trace
// records dropped at recorder capacity, errors suppressed past the
// recording cap). Each golden file pins the exact event stream — kind,
// time, PE, color, input direction — of a small fixed mesh; any routing
// or scheduling change shows up as a diff.
//
// Regenerate after an *intentional* pattern change with
//   FVF_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
#include <gtest/gtest.h>

#include <string>

#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/wave_program.hpp"
#include "golden_file.hpp"
#include "physics/problem.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

namespace fvf::core {
namespace {

using golden::check_against_golden;
using golden::report_first_difference;

constexpr const char* kGoldenPath =
    FVF_TEST_DATA_DIR "/tpfa_trace_3x3x2.golden";
constexpr const char* kCgGoldenPath =
    FVF_TEST_DATA_DIR "/cg_trace_3x3x2.golden";
constexpr const char* kWaveGoldenPath =
    FVF_TEST_DATA_DIR "/wave_trace_3x3x2.golden";

physics::FlowProblem golden_problem() {
  physics::ProblemSpec spec;
  spec.extents = Extents3{3, 3, 2};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = 7;
  return physics::FlowProblem(spec);
}

/// Runs the golden configuration and renders the full trace stream.
std::string record_trace(i32 threads, wse::TraceRecorder& recorder,
                         bool phase_profiling = true,
                         bool hazard_check = false) {
  DataflowOptions options;
  options.iterations = 1;
  options.execution.threads = threads;
  options.execution.phase_profiling = phase_profiling;
  options.execution.hazard_check = hazard_check;
  options.trace = &recorder;
  const DataflowResult result = run_dataflow_tpfa(golden_problem(), options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.hazards_total, 0u);
  EXPECT_EQ(result.trace_events_emitted, recorder.events().size());
  EXPECT_EQ(result.trace_records_dropped, 0u);
  return recorder.render(recorder.events().size());
}

/// Two fixed CG iterations on the same 3x3x2 mesh: cardinal + diagonal
/// halo rounds interleaved with the dot-product all-reduce trees.
std::string record_cg_trace(i32 threads, wse::TraceRecorder& recorder,
                            bool hazard_check = false) {
  const LinearStencil stencil =
      build_linear_stencil(golden_problem(), 86400.0);
  const ScaledSystem scaled = jacobi_scale(stencil);
  const ManufacturedSystem sys = manufacture_solution(scaled.stencil);

  CgKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.max_iterations = 2;
  options.execution.threads = threads;
  options.execution.hazard_check = hazard_check;
  options.trace = &recorder;
  const DataflowCgResult result =
      spec::run(cg_launch(scaled.stencil, sys.rhs, kernel), options, gather_cg);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.hazards_total, 0u);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_EQ(result.trace_events_emitted, recorder.events().size());
  EXPECT_EQ(result.trace_records_dropped, 0u);
  return recorder.render(recorder.events().size());
}

/// Two leapfrog steps on the same 3x3x2 mesh from a Gaussian pulse:
/// back-to-back cardinal + diagonal halo rounds with no reduction.
std::string record_wave_trace(i32 threads, wse::TraceRecorder& recorder,
                              bool hazard_check = false) {
  const LinearStencil stencil =
      build_linear_stencil(golden_problem(), 86400.0);
  const ScaledSystem scaled = jacobi_scale(stencil);

  WaveKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.timesteps = 2;
  kernel.kappa = 0.4f;
  options.execution.threads = threads;
  options.execution.hazard_check = hazard_check;
  options.trace = &recorder;
  const DataflowWaveResult result = spec::run(
      wave_launch(
          scaled.stencil, gaussian_pulse(stencil.extents, 1.0, 2.0), kernel),
      options, gather_wave);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.hazards_total, 0u);
  EXPECT_EQ(result.trace_events_emitted, recorder.events().size());
  EXPECT_EQ(result.trace_records_dropped, 0u);
  return recorder.render(recorder.events().size());
}

TEST(GoldenTraceTest, TpfaCommPatternMatchesGolden) {
  wse::TraceRecorder recorder(1u << 20);
  const std::string actual = record_trace(1, recorder);
  ASSERT_GT(recorder.events().size(), 0u);
  check_against_golden(kGoldenPath, actual);
}

TEST(GoldenTraceTest, TpfaGoldenUnchangedWithProfilingDisabled) {
  // The phase profiler is pure observation: the exact same golden event
  // stream must come out with profiling on (the default, pinned above)
  // and off.
  wse::TraceRecorder recorder(1u << 20);
  const std::string actual =
      record_trace(1, recorder, /*phase_profiling=*/false);
  ASSERT_GT(recorder.events().size(), 0u);
  check_against_golden(kGoldenPath, actual);
}

TEST(GoldenTraceTest, TraceStreamIdenticalAcrossThreadCounts) {
  wse::TraceRecorder serial(1u << 20);
  wse::TraceRecorder tiled(1u << 20);
  const std::string a = record_trace(1, serial);
  const std::string b = record_trace(4, tiled);
  ASSERT_GT(serial.events().size(), 0u);
  if (a != b) {
    report_first_difference(a, b);
  }
}

TEST(GoldenTraceTest, TpfaGoldenUnchangedWithHazardCheckAcrossThreads) {
  // The --hazard-check detector is pure observation: with it on, every
  // thread count must still reproduce the exact golden event stream (and
  // flag nothing on the shipped TPFA program).
  for (const i32 threads : {1, 2, 4}) {
    wse::TraceRecorder recorder(1u << 20);
    const std::string actual = record_trace(
        threads, recorder, /*phase_profiling=*/true, /*hazard_check=*/true);
    ASSERT_GT(recorder.events().size(), 0u);
    check_against_golden(kGoldenPath, actual);
  }
}

TEST(GoldenTraceTest, CgCommPatternMatchesGolden) {
  wse::TraceRecorder recorder(1u << 20);
  const std::string actual = record_cg_trace(1, recorder);
  ASSERT_GT(recorder.events().size(), 0u);
  check_against_golden(kCgGoldenPath, actual);
}

TEST(GoldenTraceTest, CgTraceIdenticalAcrossThreadCounts) {
  wse::TraceRecorder serial(1u << 20);
  wse::TraceRecorder tiled(1u << 20);
  const std::string a = record_cg_trace(1, serial);
  const std::string b = record_cg_trace(4, tiled);
  ASSERT_GT(serial.events().size(), 0u);
  if (a != b) {
    report_first_difference(a, b);
  }
}

TEST(GoldenTraceTest, CgGoldenUnchangedWithHazardCheckAcrossThreads) {
  for (const i32 threads : {1, 2, 4}) {
    wse::TraceRecorder recorder(1u << 20);
    const std::string actual =
        record_cg_trace(threads, recorder, /*hazard_check=*/true);
    ASSERT_GT(recorder.events().size(), 0u);
    check_against_golden(kCgGoldenPath, actual);
  }
}

TEST(GoldenTraceTest, WaveCommPatternMatchesGolden) {
  // With the hazard detector on too, which only observes.
  for (const bool hazard_check : {false, true}) {
    wse::TraceRecorder recorder(1u << 20);
    const std::string actual = record_wave_trace(1, recorder, hazard_check);
    ASSERT_GT(recorder.events().size(), 0u);
    check_against_golden(kWaveGoldenPath, actual);
  }
}

TEST(GoldenTraceTest, WaveTraceIdenticalAcrossThreadCounts) {
  wse::TraceRecorder serial(1u << 20);
  wse::TraceRecorder tiled(1u << 20);
  const std::string a = record_wave_trace(1, serial);
  const std::string b = record_wave_trace(4, tiled);
  ASSERT_GT(serial.events().size(), 0u);
  if (a != b) {
    report_first_difference(a, b);
  }
}

// --- RunReport drop/suppression accounting ----------------------------------

TEST(GoldenTraceTest, RecorderCapacityDropsSurfaceInReport) {
  // An undersized recorder must not fail the run — but the report has to
  // say how much of the stream it lost.
  wse::TraceRecorder tiny(32);
  DataflowOptions options;
  options.iterations = 1;
  options.trace = &tiny;
  const DataflowResult result = run_dataflow_tpfa(golden_problem(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(tiny.events().size(), 32u);
  EXPECT_GT(result.trace_records_dropped, 0u);
  EXPECT_EQ(result.trace_records_dropped, tiny.dropped());
  EXPECT_EQ(result.trace_events_emitted,
            tiny.events().size() + tiny.dropped());
}

/// Every PE raises exactly one routing error, then finishes cleanly.
class UnroutedSendProgram : public wse::PeProgram {
 public:
  void configure_router(wse::Router&) override {}
  void on_start(wse::PeApi& api) override {
    const f32 word = 1.0f;
    api.send(wse::Color{20}, std::span<const f32>(&word, 1));
    api.signal_done();
  }
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(GoldenTraceTest, ErrorSuppressionCountsSurfaceInReport) {
  // 64 identical errors against a 32-entry recording cap: the report must
  // carry the true total and the suppressed tail, identically for the
  // serial and tiled engines.
  for (const i32 threads : {1, 4}) {
    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(8, 8, wse::FabricTimings{},
                       wse::PeMemory::kDefaultBudget, exec);
    fabric.load([](Coord2, Coord2) {
      return std::make_unique<UnroutedSendProgram>();
    });
    const wse::RunReport report = fabric.run();
    EXPECT_EQ(report.errors_total, 64u);
    EXPECT_EQ(report.errors_suppressed, 64u - 32u);
    // 32 recorded messages plus the "... more errors suppressed" marker.
    EXPECT_EQ(report.errors.size(), 33u);
    EXPECT_FALSE(report.ok());
  }
}

}  // namespace
}  // namespace fvf::core
