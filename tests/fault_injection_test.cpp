// Fault-injection matrix tests (the ISSUE's acceptance criteria):
//
//   - a zero-rate fault configuration is bit-identical to a fault-free
//     run for every --threads value;
//   - a given seed/rate scenario is bit-for-bit reproducible across
//     thread counts, fault counters included;
//   - runs whose faults are recovered match the fault-free oracle;
//   - unrecoverable runs are *reported* (errors + detected counts),
//     never silently wrong;
//   - injected == detected + recovered + unrecovered always holds.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "physics/problem.hpp"

namespace fvf::core {
namespace {

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed = 42) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

DataflowResult run_tpfa(const physics::FlowProblem& problem, i32 threads,
                        wse::FaultConfig fault) {
  DataflowOptions options;
  options.iterations = 2;
  options.execution.threads = threads;
  options.execution.fault = fault;
  return run_dataflow_tpfa(problem, options);
}

void expect_fields_identical(const DataflowResult& a, const DataflowResult& b) {
  ASSERT_EQ(a.residual.size(), b.residual.size());
  for (i64 i = 0; i < a.residual.size(); ++i) {
    ASSERT_EQ(a.residual[i], b.residual[i]) << "residual diverges at " << i;
    ASSERT_EQ(a.pressure[i], b.pressure[i]) << "pressure diverges at " << i;
  }
}

void expect_reports_identical(const DataflowResult& a,
                              const DataflowResult& b) {
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.faults.stalls_injected, b.faults.stalls_injected);
  EXPECT_EQ(a.faults.flips_injected, b.faults.flips_injected);
  EXPECT_EQ(a.faults.halts_injected, b.faults.halts_injected);
  EXPECT_EQ(a.faults.stalls_absorbed, b.faults.stalls_absorbed);
  EXPECT_EQ(a.faults.flips_dropped, b.faults.flips_dropped);
  EXPECT_EQ(a.faults.flips_recovered, b.faults.flips_recovered);
  EXPECT_EQ(a.faults.halts_resumed, b.faults.halts_resumed);
}

void expect_partition_holds(const wse::FaultStats& f) {
  EXPECT_EQ(f.injected(), f.detected() + f.recovered() + f.unrecovered());
}

// --- zero rate is bit-identical to fault-free -------------------------------

TEST(FaultInjectionTest, ZeroRateBitIdenticalToFaultFree) {
  const auto problem = make_problem(5, 4, 6);
  for (const i32 threads : {1, 4}) {
    const DataflowResult clean = run_tpfa(problem, threads, {});
    wse::FaultConfig zero_rate;
    zero_rate.seed = 0xDEADBEEF;  // a seed alone must change nothing
    const DataflowResult seeded = run_tpfa(problem, threads, zero_rate);
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(seeded.ok());
    expect_fields_identical(clean, seeded);
    expect_reports_identical(clean, seeded);
    EXPECT_EQ(seeded.faults.injected(), 0u);
  }
}

// --- determinism across thread counts ---------------------------------------

struct FaultScenario {
  const char* name;
  f64 stall_rate;
  f64 flip_rate;
  f64 halt_rate;
  u64 seed;
};

void PrintTo(const FaultScenario& s, std::ostream* os) { *os << s.name; }

class FaultMatrixTest : public ::testing::TestWithParam<FaultScenario> {};

TEST_P(FaultMatrixTest, TpfaBitwiseDeterministicAcrossThreadCounts) {
  const FaultScenario& s = GetParam();
  wse::FaultConfig fault;
  fault.seed = s.seed;
  fault.link_stall_rate = s.stall_rate;
  fault.bit_flip_rate = s.flip_rate;
  fault.pe_halt_rate = s.halt_rate;

  const auto problem = make_problem(6, 5, 5, 17);
  const DataflowResult serial = run_tpfa(problem, 1, fault);
  const DataflowResult tiled = run_tpfa(problem, 4, fault);
  // Whatever the scenario did — recovered, degraded, or failed — it must
  // have done the identical thing under both event engines.
  expect_fields_identical(serial, tiled);
  expect_reports_identical(serial, tiled);
  EXPECT_GT(serial.faults.injected(), 0u) << "scenario injected nothing";
  expect_partition_holds(serial.faults);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, FaultMatrixTest,
    ::testing::Values(
        FaultScenario{"stalls_low", 0.002, 0.0, 0.0, 101},
        FaultScenario{"stalls_high", 0.02, 0.0, 0.0, 102},
        FaultScenario{"flips_low", 0.0, 0.005, 0.0, 103},
        FaultScenario{"flips_high", 0.0, 0.01, 0.0, 104},
        FaultScenario{"halts_low", 0.0, 0.0, 0.002, 105},
        FaultScenario{"halts_high", 0.0, 0.0, 0.02, 106},
        FaultScenario{"mixed", 0.005, 0.005, 0.005, 107}));

// --- timing-only faults are absorbed and match the oracle -------------------

TEST(FaultInjectionTest, StallsAndHaltsRecoveredMatchFaultFreeOracle) {
  const auto problem = make_problem(6, 6, 5, 23);
  const DataflowResult oracle = run_tpfa(problem, 1, {});
  ASSERT_TRUE(oracle.ok());

  wse::FaultConfig fault;
  fault.seed = 7;
  fault.link_stall_rate = 0.02;
  fault.pe_halt_rate = 0.02;
  for (const i32 threads : {1, 4}) {
    const DataflowResult faulty = run_tpfa(problem, threads, fault);
    ASSERT_TRUE(faulty.ok())
        << "timing-only faults must be absorbed: " << faulty.errors[0];
    EXPECT_GT(faulty.faults.injected(), 0u);
    EXPECT_EQ(faulty.faults.recovered(), faulty.faults.injected());
    EXPECT_EQ(faulty.faults.unrecovered(), 0u);
    EXPECT_EQ(faulty.faults.detected(), 0u);
    // Stalls and halts perturb timing, never data: the fields are
    // bit-identical to the fault-free run (the makespan is not).
    expect_fields_identical(oracle, faulty);
    EXPECT_GT(faulty.makespan_cycles, oracle.makespan_cycles);
  }
}

// --- bit flips on TPFA are reported, never silently wrong -------------------

TEST(FaultInjectionTest, TpfaBitFlipsAreReportedNeverSilent) {
  // The switch-protocol TPFA exchange has no retransmit layer: a dropped
  // block leaves the stream short, the receiving PE never completes, and
  // the run must flag itself (quiescence/done errors) instead of
  // producing silently-corrupt fields.
  const auto problem = make_problem(6, 5, 6, 31);
  wse::FaultConfig fault;
  fault.seed = 11;
  fault.bit_flip_rate = 0.005;
  const DataflowResult faulty = run_tpfa(problem, 1, fault);
  ASSERT_GT(faulty.faults.flips_injected, 0u);
  EXPECT_FALSE(faulty.ok()) << "corrupted run reported no errors";
  EXPECT_GT(faulty.faults.flips_dropped, 0u) << "parity check never fired";
  expect_partition_holds(faulty.faults);
}

// --- CG with the retransmit layer recovers dropped blocks -------------------

struct CgFaultRuns {
  DataflowCgResult clean;
  DataflowCgResult faulty;
  Extents3 extents;
};

CgFaultRuns run_cg_pair(wse::FaultConfig fault, i32 threads) {
  const auto problem = make_problem(5, 5, 6, 41);
  const LinearStencil stencil = build_linear_stencil(problem, 86400.0);
  const ScaledSystem scaled = jacobi_scale(stencil);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  const Array3<f32> rhs = scale_rhs(scaled, sys.rhs);

  CgKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.relative_tolerance = 1e-6f;
  kernel.max_iterations = 400;
  options.execution.threads = threads;
  CgFaultRuns runs;
  runs.clean =
      spec::run(cg_launch(scaled.stencil, rhs, kernel), options, gather_cg);
  options.execution.fault = fault;
  runs.faulty =
      spec::run(cg_launch(scaled.stencil, rhs, kernel), options, gather_cg);
  runs.extents = stencil.extents;
  return runs;
}

TEST(FaultInjectionTest, CgRetransmitRecoversDroppedBlocks) {
  wse::FaultConfig fault;
  fault.seed = 3;
  fault.bit_flip_rate = 0.003;
  // Flip only the halo colors (0..7): they are covered by the
  // ack/retransmit protocol. The AllReduce chain (8..11) has no
  // retransmit layer, so flips there would be reported-unrecoverable.
  fault.flip_color_mask = 0x00FFu;

  const CgFaultRuns runs = run_cg_pair(fault, 1);
  ASSERT_TRUE(runs.clean.ok() && runs.clean.converged);
  ASSERT_TRUE(runs.faulty.ok())
      << "retransmit layer failed: " << runs.faulty.errors[0];
  EXPECT_TRUE(runs.faulty.converged);

  const wse::FaultStats& fs = runs.faulty.faults;
  EXPECT_GT(fs.flips_injected, 0u) << "scenario injected nothing";
  EXPECT_GT(fs.flips_dropped, 0u) << "parity check never fired";
  EXPECT_GT(fs.flips_recovered, 0u) << "no NACK-recovered block";
  EXPECT_EQ(fs.unrecovered(), 0u);
  expect_partition_holds(fs);

  // Retransmission changes arrival order, so the f32 accumulation is not
  // bitwise-reproducible against the clean run — but both converge to
  // the same solution within the solve tolerance's head-room.
  f64 err = 0.0, scale = 0.0;
  for (i64 i = 0; i < runs.clean.solution.size(); ++i) {
    err = std::max(err, std::abs(static_cast<f64>(runs.clean.solution[i]) -
                                 static_cast<f64>(runs.faulty.solution[i])));
    scale = std::max(scale,
                     std::abs(static_cast<f64>(runs.clean.solution[i])));
  }
  EXPECT_LT(err, scale * 1e-2) << "recovered solve diverged from oracle";
}

TEST(FaultInjectionTest, CgFaultScenarioDeterministicAcrossThreadCounts) {
  wse::FaultConfig fault;
  fault.seed = 9;
  fault.link_stall_rate = 0.004;
  fault.bit_flip_rate = 0.004;
  fault.pe_halt_rate = 0.004;
  fault.flip_color_mask = 0x00FFu;

  const CgFaultRuns serial = run_cg_pair(fault, 1);
  const CgFaultRuns tiled = run_cg_pair(fault, 4);
  ASSERT_EQ(serial.faulty.ok(), tiled.faulty.ok());
  EXPECT_EQ(serial.faulty.iterations, tiled.faulty.iterations);
  EXPECT_EQ(serial.faulty.makespan_cycles, tiled.faulty.makespan_cycles);
  EXPECT_EQ(serial.faulty.errors, tiled.faulty.errors);
  for (i64 i = 0; i < serial.faulty.solution.size(); ++i) {
    ASSERT_EQ(serial.faulty.solution[i], tiled.faulty.solution[i])
        << "solution diverges at " << i;
  }
  EXPECT_EQ(serial.faulty.faults.injected(), tiled.faulty.faults.injected());
  EXPECT_EQ(serial.faulty.faults.recovered(), tiled.faulty.faults.recovered());
  EXPECT_EQ(serial.faulty.faults.detected(), tiled.faulty.faults.detected());
  EXPECT_EQ(serial.faulty.faults.unrecovered(),
            tiled.faulty.faults.unrecovered());
  EXPECT_GT(serial.faulty.faults.injected(), 0u);
  expect_partition_holds(serial.faulty.faults);
}

// --- fault accounting survives repeated seeds -------------------------------

TEST(FaultInjectionTest, PartitionHoldsAcrossSeedSweep) {
  const auto problem = make_problem(5, 4, 4, 53);
  for (u64 seed = 1; seed <= 6; ++seed) {
    const DataflowResult r =
        run_tpfa(problem, 1, wse::FaultConfig::uniform(seed, 0.004));
    expect_partition_holds(r.faults);
    EXPECT_GT(r.faults.injected(), 0u) << "seed " << seed;
    if (r.faults.flips_injected == 0) {
      // No drop-capable fault: timing-only faults must all be absorbed.
      EXPECT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace fvf::core
