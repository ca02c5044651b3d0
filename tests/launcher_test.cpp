// Tests of the dataflow launcher layer: host->PE column extraction, the
// result bookkeeping (per-color traffic, memory, events), and an
// iteration-count sweep against the serial reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "common/assert.hpp"
#include "core/launcher.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

using namespace dataflow;
namespace {

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed = 42) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

// --- extract_column -----------------------------------------------------------

TEST(ExtractColumnTest, PressureAndTransmissibilityColumns) {
  const physics::FlowProblem problem = make_problem(4, 3, 5);
  const PeColumnData data = extract_column(problem, 2, 1);
  ASSERT_EQ(data.pressure().size(), 5u);
  for (i32 z = 0; z < 5; ++z) {
    EXPECT_EQ(data.pressure()[static_cast<usize>(z)],
              problem.initial_pressure()(2, 1, z));
    for (const mesh::Face f : mesh::kAllFaces) {
      EXPECT_EQ(data.trans(f)[static_cast<usize>(z)],
                problem.transmissibility().at(2, 1, z, f));
    }
  }
}

TEST(ExtractColumnTest, ElevationIncludesTopography) {
  const physics::FlowProblem problem = make_problem(5, 5, 3);
  const PeColumnData data = extract_column(problem, 2, 2);
  for (i32 z = 0; z < 3; ++z) {
    EXPECT_FLOAT_EQ(data.elevation()[static_cast<usize>(z)],
                    static_cast<f32>(problem.mesh().elevation(2, 2, z)));
  }
  // Centre column sits on the dome crest: higher than a corner column.
  const PeColumnData corner = extract_column(problem, 0, 0);
  EXPECT_GT(data.elevation()[0], corner.elevation()[0]);
}

TEST(ExtractColumnTest, NeighborElevationColumnsMatchNeighbors) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  const PeColumnData data = extract_column(problem, 1, 1);
  for (const wse::Color c : kCardinalColors) {
    const mesh::Face face = cardinal_face(c);
    const Coord3 off = mesh::face_offset(face);
    const std::span<const f32> col =
        data.elevation_cardinal(cardinal_index(c));
    ASSERT_EQ(col.size(), 3u);
    for (i32 z = 0; z < 3; ++z) {
      EXPECT_FLOAT_EQ(col[static_cast<usize>(z)],
                      static_cast<f32>(problem.mesh().elevation(
                          1 + off.x, 1 + off.y, z)));
    }
  }
}

TEST(ExtractColumnTest, OutOfRangeRejected) {
  const physics::FlowProblem problem = make_problem(3, 3, 2);
  EXPECT_THROW((void)extract_column(problem, 3, 0), ContractViolation);
  EXPECT_THROW((void)extract_column(problem, 0, -1), ContractViolation);
}

// --- result bookkeeping ----------------------------------------------------------

TEST(LauncherTest, ColorTrafficSplitsCardinalAndDiagonal) {
  const physics::FlowProblem problem = make_problem(5, 5, 4);
  DataflowOptions options;
  options.iterations = 2;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  u64 cardinal = 0, diagonal = 0;
  for (u8 c = 0; c < 4; ++c) {
    cardinal += result.color_traffic[c];
  }
  for (u8 c = 4; c < 8; ++c) {
    diagonal += result.color_traffic[c];
  }
  EXPECT_GT(cardinal, 0u);
  EXPECT_GT(diagonal, 0u);
  // Cardinal colors carry data + control wavelets; diagonal forwards
  // carry data only, and only where the corner exists.
  EXPECT_GT(cardinal, diagonal);
  // Symmetry of the 5x5 fabric: opposite directions carry equal loads.
  EXPECT_EQ(result.color_traffic[0], result.color_traffic[1]);
  EXPECT_EQ(result.color_traffic[2], result.color_traffic[3]);
  EXPECT_EQ(result.color_traffic[4], result.color_traffic[5]);
}

TEST(LauncherTest, DiagonalColorsSilentWhenDisabled) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  DataflowOptions options;
  options.iterations = 1;
  options.kernel.diagonals_enabled = false;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  for (u8 c = 4; c < 8; ++c) {
    EXPECT_EQ(result.color_traffic[c], 0u);
  }
}

TEST(LauncherTest, EventCountScalesWithIterations) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  DataflowOptions one;
  one.iterations = 1;
  DataflowOptions three;
  three.iterations = 3;
  const DataflowResult a = run_dataflow_tpfa(problem, one);
  const DataflowResult b = run_dataflow_tpfa(problem, three);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.events_processed, 2 * a.events_processed);
  EXPECT_LT(b.events_processed, 4 * a.events_processed);
}

// --- the run record ------------------------------------------------------------

TEST(RunRecordTest, ATpfaLoadRunsOnce) {
  // A second run of the same load is refused before any event: it once
  // stranded blocks at switch position 0 and ran to the event budget.
  const physics::FlowProblem problem = make_problem(4, 4, 4);
  DataflowOptions options;
  options.iterations = 2;
  TpfaLoad load = load_dataflow_tpfa(problem, options);
  const RunInfo info = load.harness->run();
  ASSERT_TRUE(info.ok()) << info.errors.front();
  EXPECT_EQ(info.pes_done, 16);
  const wse::Fabric& fabric = load.harness->fabric();
  const f64 clock = fabric.pe(1, 1).clock();
  const u64 tasks = fabric.pe(1, 1).counters().tasks_executed;
  EXPECT_THROW((void)load.harness->fabric().run(), ContractViolation);
  EXPECT_THROW((void)load.harness->run(), ContractViolation);
  EXPECT_EQ(fabric.pe(1, 1).clock(), clock);
  EXPECT_EQ(fabric.pe(1, 1).counters().tasks_executed, tasks);
}

TEST(RunRecordTest, AccumulateStatesARuleForEveryField) {
  RunInfo a;
  a.device_seconds = 1.0;
  a.makespan_cycles = 10.0;
  a.counters.fmul = 3;
  a.counters.tasks_executed = 5;
  a.color_traffic[0] = 7;
  a.color_traffic[15] = 1;
  a.max_pe_memory = 100;
  a.events_processed = 20;
  a.pes_done = 4;
  a.phase_cycles[obs::Phase::Halo] = 2.0;
  a.pe_phase_cycles.resize(4);
  a.faults.flips_injected = 1;
  a.trace_events_emitted = 6;
  a.trace_records_dropped = 1;
  a.errors_total = 1;
  a.errors = {"first"};
  a.hazards_total = 1;
  a.hazards = {"hazard one"};
  a.event_queue_high_water = 50;
  a.payload_arena_bytes = 4096;
  a.windows_stepped = 12;
  a.payloads_rehomed = 3;

  RunInfo b;
  b.device_seconds = 0.5;
  b.makespan_cycles = 5.0;
  b.counters.fmul = 2;
  b.counters.tasks_executed = 1;
  b.color_traffic[0] = 3;
  b.max_pe_memory = 80;
  b.events_processed = 9;
  b.pes_done = 4;
  b.phase_cycles[obs::Phase::Halo] = 1.5;
  b.pe_phase_cycles.resize(4);
  b.faults.flips_injected = 2;
  b.trace_events_emitted = 4;
  b.errors_total = 3;
  b.errors_suppressed = 1;
  b.errors = {"second", "third", "… and 1 more errors suppressed"};
  b.hazards_total = 2;
  b.hazards_suppressed = 0;
  b.hazards = {"hazard two", "hazard three"};
  b.event_queue_high_water = 70;
  b.payload_arena_bytes = 1024;
  b.windows_stepped = 8;
  b.payloads_rehomed = 5;

  accumulate(a, b);
  // Summed: times, counters, traffic, events, faults, trace and error
  // counts, PE completions (one per PE per launch) and the engine's
  // window and re-homing counts.
  EXPECT_EQ(a.device_seconds, 1.5);
  EXPECT_EQ(a.makespan_cycles, 15.0);
  EXPECT_EQ(a.counters.fmul, 5u);
  EXPECT_EQ(a.counters.tasks_executed, 6u);
  EXPECT_EQ(a.color_traffic[0], 10u);
  EXPECT_EQ(a.color_traffic[15], 1u);
  EXPECT_EQ(a.events_processed, 29u);
  EXPECT_EQ(a.pes_done, 8);
  EXPECT_EQ(a.phase_cycles[obs::Phase::Halo], 3.5);
  EXPECT_EQ(a.faults.flips_injected, 3u);
  EXPECT_EQ(a.trace_events_emitted, 10u);
  EXPECT_EQ(a.trace_records_dropped, 1u);
  EXPECT_EQ(a.errors_total, 4u);
  EXPECT_EQ(a.errors_suppressed, 1u);
  EXPECT_EQ(a.hazards_total, 3u);
  EXPECT_EQ(a.hazards_suppressed, 0u);
  EXPECT_EQ(a.windows_stepped, 20u);
  EXPECT_EQ(a.payloads_rehomed, 8u);
  // Max: the PE footprint, and the host figures, because each launch
  // frees its event queues and payload arenas when it ends.
  EXPECT_EQ(a.max_pe_memory, 100u);
  EXPECT_EQ(a.event_queue_high_water, 70u);
  EXPECT_EQ(a.payload_arena_bytes, 4096u);
  // Appended in launch order.
  EXPECT_EQ(a.errors, (std::vector<std::string>{
                          "first", "second", "third",
                          "… and 1 more errors suppressed"}));
  EXPECT_EQ(a.hazards, (std::vector<std::string>{"hazard one", "hazard two",
                                                 "hazard three"}));
  // Per-PE attribution is per launch: cleared.
  EXPECT_TRUE(a.pe_phase_cycles.empty());
}

// --- iteration sweep ---------------------------------------------------------------

class IterationSweepTest : public ::testing::TestWithParam<i32> {};

TEST_P(IterationSweepTest, MatchesSerialAtEveryIterationCount) {
  const i32 iterations = GetParam();
  const physics::FlowProblem problem = make_problem(4, 4, 3, 77);
  DataflowOptions options;
  options.iterations = iterations;
  const DataflowResult dataflow = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.errors[0];

  baseline::BaselineOptions serial_options;
  serial_options.iterations = iterations;
  const auto serial = baseline::run_serial_baseline(problem, serial_options);
  for (i64 i = 0; i < serial.residual.size(); ++i) {
    ASSERT_EQ(dataflow.residual[i], serial.residual[i])
        << "iterations=" << iterations << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, IterationSweepTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace fvf::core
