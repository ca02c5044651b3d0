// Tests of the TPFA dataflow program (src/core): numerical equivalence
// with the serial reference, the cardinal/diagonal communication pattern,
// iteration pipelining, instruction accounting (Table 4), and the
// Section 5.3 optimization toggles.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.hpp"
#include "common/assert.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/perf_model.hpp"
#include "core/wave_program.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"
#include "spec/compile.hpp"

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

/// Serial reference residual after `iterations` applications.
Array3<f32> serial_residual(const physics::FlowProblem& problem,
                            i32 iterations,
                            physics::StencilMode mode =
                                physics::StencilMode::AllTenFaces) {
  baseline::BaselineOptions options;
  options.iterations = iterations;
  options.mode = mode;
  return baseline::run_serial_baseline(problem, options).residual;
}

// --- color mapping sanity -----------------------------------------------------

TEST(ColorsTest, CardinalFacesDistinct) {
  std::set<mesh::Face> faces;
  for (const wse::Color c : kCardinalColors) {
    faces.insert(cardinal_face(c));
    EXPECT_TRUE(is_cardinal_color(c));
    EXPECT_FALSE(is_diagonal_color(c));
  }
  EXPECT_EQ(faces.size(), 4u);
}

TEST(ColorsTest, DiagonalRotationIsConsistent) {
  // The forward color of a cardinal arrival must deliver, at the diagonal
  // target, exactly the corner that sits across the combined offset.
  for (const wse::Color c : kCardinalColors) {
    const wse::Color d = diagonal_forward_color(c);
    EXPECT_TRUE(is_diagonal_color(d));
    // Offset of data origin relative to the intermediary:
    const Coord3 first = mesh::face_offset(cardinal_face(c));
    // Offset of intermediary relative to the final target = opposite of
    // the diagonal color's movement.
    const Coord2 move = wse::dir_offset(movement_dir(d));
    const Coord3 diag = mesh::face_offset(diagonal_face(d));
    EXPECT_EQ(first.x - move.x, diag.x);
    EXPECT_EQ(first.y - move.y, diag.y);
  }
}

TEST(ColorsTest, UpstreamIsOppositeOfMovement) {
  for (const wse::Color c : kCardinalColors) {
    EXPECT_EQ(upstream_dir(c), wse::opposite(movement_dir(c)));
  }
  for (const wse::Color c : kDiagonalColors) {
    EXPECT_EQ(upstream_dir(c), wse::opposite(movement_dir(c)));
  }
}

// --- numerical equivalence ----------------------------------------------------

void expect_bitwise_equal(const Array3<f32>& a, const Array3<f32>& b) {
  ASSERT_EQ(a.extents(), b.extents());
  i64 mismatches = 0;
  for (i64 i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      ++mismatches;
      if (mismatches <= 3) {
        const Coord3 c = a.extents().coord(i);
        ADD_FAILURE() << "mismatch at (" << c.x << ',' << c.y << ',' << c.z
                      << "): " << a[i] << " vs " << b[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(DataflowEquivalenceTest, SingleIterationMatchesSerialBitwise) {
  const physics::FlowProblem problem = make_problem(5, 4, 6);
  DataflowOptions options;
  options.iterations = 1;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(result.residual, serial_residual(problem, 1));
}

TEST(DataflowEquivalenceTest, MultiIterationMatchesSerialBitwise) {
  const physics::FlowProblem problem = make_problem(6, 6, 5, 7);
  DataflowOptions options;
  options.iterations = 5;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(result.residual, serial_residual(problem, 5));
}

TEST(DataflowEquivalenceTest, PressureAdvancesIdentically) {
  const physics::FlowProblem problem = make_problem(4, 4, 4, 3);
  DataflowOptions options;
  options.iterations = 4;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  baseline::BaselineOptions serial_options;
  serial_options.iterations = 4;
  const auto serial =
      baseline::run_serial_baseline(problem, serial_options);
  expect_bitwise_equal(result.pressure, serial.pressure);
}

TEST(DataflowEquivalenceTest, SinglePeFabric) {
  // 1x1 fabric: all communication disappears; only vertical faces remain.
  const physics::FlowProblem problem = make_problem(1, 1, 8, 5);
  DataflowOptions options;
  options.iterations = 3;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(result.residual, serial_residual(problem, 3));
}

TEST(DataflowEquivalenceTest, SingleRowFabric) {
  // 1-wide in y: no Y exchange, no diagonals; exercises the edge roles.
  const physics::FlowProblem problem = make_problem(7, 1, 4, 11);
  DataflowOptions options;
  options.iterations = 2;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(result.residual, serial_residual(problem, 2));
}

TEST(DataflowEquivalenceTest, SingleLayerMesh) {
  // nz = 1: no vertical faces; everything is communication.
  const physics::FlowProblem problem = make_problem(5, 5, 1, 13);
  DataflowOptions options;
  options.iterations = 3;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(result.residual, serial_residual(problem, 3));
}

TEST(DataflowEquivalenceTest, EvenAndOddFabricDimensions) {
  for (const auto& [nx, ny] : {std::pair{4, 4}, {5, 5}, {4, 5}, {3, 6}}) {
    const physics::FlowProblem problem = make_problem(nx, ny, 3, 17);
    DataflowOptions options;
    options.iterations = 3;
    const DataflowResult result = run_dataflow_tpfa(problem, options);
    ASSERT_TRUE(result.ok())
        << nx << 'x' << ny << ": " << result.errors[0];
    expect_bitwise_equal(result.residual, serial_residual(problem, 3));
  }
}

TEST(DataflowEquivalenceTest, NoBufferReuseGivesIdenticalNumerics) {
  const physics::FlowProblem problem = make_problem(4, 4, 4, 19);
  DataflowOptions reuse;
  reuse.iterations = 2;
  reuse.kernel.reuse_buffers = true;
  DataflowOptions no_reuse = reuse;
  no_reuse.kernel.reuse_buffers = false;
  const DataflowResult a = run_dataflow_tpfa(problem, reuse);
  const DataflowResult b = run_dataflow_tpfa(problem, no_reuse);
  ASSERT_TRUE(a.ok() && b.ok());
  expect_bitwise_equal(a.residual, b.residual);
}

TEST(DataflowEquivalenceTest, CardinalOnlyMatchesSerialCardinalOnly) {
  const physics::FlowProblem problem = make_problem(5, 5, 3, 23);
  DataflowOptions options;
  options.iterations = 2;
  options.kernel.diagonals_enabled = false;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  expect_bitwise_equal(
      result.residual,
      serial_residual(problem, 2, physics::StencilMode::CardinalOnly));
}

TEST(DataflowEquivalenceTest, DeterministicAcrossRuns) {
  const physics::FlowProblem problem = make_problem(4, 4, 4, 29);
  DataflowOptions options;
  options.iterations = 3;
  const DataflowResult a = run_dataflow_tpfa(problem, options);
  const DataflowResult b = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(a.ok() && b.ok());
  expect_bitwise_equal(a.residual, b.residual);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// --- communication accounting ---------------------------------------------------

TEST(DataflowTrafficTest, FmovMatchesSixteenPerInteriorCell) {
  // Every processed neighbor block drains 2*Nz words; an interior PE
  // processes 8 blocks per iteration -> 16*Nz FMOVs, i.e. 16 per cell
  // (Table 4, fabric column).
  const i32 nz = 4, iters = 3;
  const physics::FlowProblem problem = make_problem(5, 5, nz, 31);
  DataflowOptions options;
  options.iterations = iters;
  // Count expected blocks over the whole fabric: one per existing
  // (PE, neighbor) pair, cardinal + diagonal.
  i64 expected_blocks = 0;
  for (i32 y = 0; y < 5; ++y) {
    for (i32 x = 0; x < 5; ++x) {
      for (const mesh::Face f : mesh::kAllFaces) {
        if (mesh::is_vertical(f)) {
          continue;
        }
        if (problem.mesh().neighbor(x, y, 0, f)) {
          ++expected_blocks;
        }
      }
    }
  }
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.counters.fmov,
            static_cast<u64>(expected_blocks) * 2u * static_cast<u64>(nz) *
                static_cast<u64>(iters));
}

TEST(DataflowTrafficTest, InteriorPeInstructionMixMatchesTable4) {
  // Instrument one interior PE and derive per-interior-cell counts:
  // XY faces run length-Nz vector ops, the two Z faces length Nz-1.
  const i32 nz = 6;
  const physics::FlowProblem problem = make_problem(3, 3, nz, 37);
  DataflowOptions options;
  options.iterations = 1;

  wse::Fabric fabric(3, 3, options.timings);
  std::vector<TpfaPeProgram*> programs(9, nullptr);
  TpfaKernelOptions kernel = options.kernel;
  kernel.iterations = 1;
  fabric.load([&](Coord2 coord, Coord2 fabric_size) {
    auto program = std::make_unique<TpfaPeProgram>(
        coord, fabric_size, problem.extents(), kernel, problem.fluid(),
        extract_column(problem, coord.x, coord.y));
    programs[static_cast<usize>(coord.y) * 3 + static_cast<usize>(coord.x)] =
        program.get();
    return program;
  });
  ASSERT_TRUE(fabric.run().ok());

  const wse::PeCounters& c = fabric.pe(1, 1).counters();
  const u64 face_elements =
      8u * static_cast<u64>(nz) + 2u * static_cast<u64>(nz - 1);
  EXPECT_EQ(c.fmul, 6 * face_elements);
  EXPECT_EQ(c.fsub, 4 * face_elements);
  EXPECT_EQ(c.fneg, 1 * face_elements);
  EXPECT_EQ(c.fadd, 1 * face_elements);
  EXPECT_EQ(c.fma, 1 * face_elements);
  EXPECT_EQ(c.fmov, 16u * static_cast<u64>(nz));
  // Per-interior-cell normalization reproduces the Table 4 row exactly.
  EXPECT_EQ(10 * c.fmul / face_elements, 60u);
  EXPECT_EQ(10 * c.fsub / face_elements, 40u);
  EXPECT_EQ(c.flops(), 14 * face_elements);
}

TEST(DataflowTrafficTest, CommOnlySkipsAllFlops) {
  const physics::FlowProblem problem = make_problem(4, 4, 4, 41);
  DataflowOptions options;
  options.iterations = 2;
  options.kernel.compute_enabled = false;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  EXPECT_EQ(result.counters.flops(), 0u);
  EXPECT_GT(result.counters.fmov, 0u) << "data movement must be untouched";
  EXPECT_GT(result.counters.wavelets_sent, 0u);
}

TEST(DataflowTrafficTest, CommOnlyIsFasterThanFull) {
  const physics::FlowProblem problem = make_problem(6, 6, 16, 43);
  DataflowOptions full;
  full.iterations = 3;
  DataflowOptions comm = full;
  comm.kernel.compute_enabled = false;
  const DataflowResult a = run_dataflow_tpfa(problem, full);
  const DataflowResult b = run_dataflow_tpfa(problem, comm);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b.makespan_cycles, a.makespan_cycles);
  EXPECT_GT(b.makespan_cycles, 0.0);
}

// --- memory accounting ---------------------------------------------------------

/// Bytes the TPFA spec declares per PE at depth `nz`, code included.
usize tpfa_footprint(i32 nz, bool reuse) {
  TpfaKernelOptions options;
  options.reuse_buffers = reuse;
  const spec::CompiledSpec tpfa = spec::compile(make_tpfa_spec(options));
  return tpfa.data_footprint_bytes(nz) + tpfa.code_footprint_bytes();
}

TEST(DataflowMemoryTest, FootprintFormulaMatchesReservation) {
  const physics::FlowProblem problem = make_problem(2, 2, 8, 47);
  DataflowOptions options;
  options.iterations = 1;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.max_pe_memory, tpfa_footprint(8, true));
}

TEST(DataflowMemoryTest, MaxDepthWithReuseIs246) {
  // The paper's largest mesh is 750x994x246; with buffer reuse the
  // program must fit Nz=246 in 48 KiB and overflow at 247.
  EXPECT_LE(tpfa_footprint(246, true), wse::PeMemory::kDefaultBudget);
  EXPECT_GT(tpfa_footprint(247, true), wse::PeMemory::kDefaultBudget);
}

TEST(DataflowMemoryTest, NoReuseReducesMaxDepth) {
  i32 max_reuse = 0, max_no_reuse = 0;
  for (i32 nz = 1; nz < 400; ++nz) {
    if (tpfa_footprint(nz, true) <= wse::PeMemory::kDefaultBudget) {
      max_reuse = nz;
    }
    if (tpfa_footprint(nz, false) <= wse::PeMemory::kDefaultBudget) {
      max_no_reuse = nz;
    }
  }
  EXPECT_EQ(max_reuse, 246);
  EXPECT_LT(max_no_reuse, max_reuse)
      << "buffer reuse must extend the maximum column depth";
}

TEST(DataflowMemoryTest, BudgetOverflowIsAnError) {
  // A deliberately tiny PE memory cannot hold any of the fabric kernels:
  // the mandatory strict lint of the first launch rejects each at load,
  // naming the memory check, before the fabric starts.
  const physics::FlowProblem problem = make_problem(4, 4, 64, 53);
  const LinearStencil stencil = build_linear_stencil(problem, 86400.0);
  const Array3<f32> field = gaussian_pulse(problem.extents(), 1.0, 2.0);
  const auto tiny = [](auto& options) { options.pe_memory_budget = 8192; };
  const std::vector<std::pair<const char*, std::function<void()>>> runs = {
      {"tpfa",
       [&] {
         DataflowOptions options;
         tiny(options);
         (void)run_dataflow_tpfa(problem, options);
       }},
      {"cg",
       [&] {
         dataflow::HarnessOptions options;
         tiny(options);
         (void)spec::run(cg_launch(stencil, field, {}), options, gather_cg);
       }},
      {"wave",
       [&] {
         dataflow::HarnessOptions options;
         tiny(options);
         (void)spec::run(wave_launch(stencil, field, {}), options, gather_wave);
       }},
  };
  for (const auto& [name, run] : runs) {
    try {
      run();
      ADD_FAILURE() << name << ": launch over the memory budget succeeded";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("[memory-over-budget]"),
                std::string::npos)
          << name << ": " << e.what();
    }
  }
}

// --- weak scaling shape ----------------------------------------------------------

TEST(DataflowScalingTest, MakespanNearlyIndependentOfFabricSize) {
  // The heart of Table 2: growing the fabric at fixed Nz leaves the
  // simulated time nearly constant.
  DataflowOptions options;
  options.iterations = 3;
  const auto run_at = [&](i32 n) {
    const physics::FlowProblem problem = make_problem(n, n, 8, 59);
    const DataflowResult result = run_dataflow_tpfa(problem, options);
    EXPECT_TRUE(result.ok());
    return result.makespan_cycles;
  };
  const f64 small = run_at(4);
  const f64 large = run_at(10);
  EXPECT_LT(std::abs(large - small) / small, 0.25)
      << "weak scaling: makespan should be nearly flat in fabric size";
}

TEST(DataflowScalingTest, MakespanGrowsWithColumnDepth) {
  DataflowOptions options;
  options.iterations = 2;
  const auto run_at = [&](i32 nz) {
    const physics::FlowProblem problem = make_problem(4, 4, nz, 61);
    const DataflowResult result = run_dataflow_tpfa(problem, options);
    EXPECT_TRUE(result.ok());
    return result.makespan_cycles;
  };
  EXPECT_GT(run_at(24), 1.5 * run_at(8));
}

TEST(PerfModelTest, AffineFitPredictsIntermediateDepth) {
  CalibrationSpec spec;
  spec.fabric_nx = 5;
  spec.fabric_ny = 5;
  spec.nz_low = 8;
  spec.nz_high = 24;
  spec.iterations = 3;
  DataflowOptions base;
  const CycleModel model = calibrate_cycle_model(spec, base);
  EXPECT_GT(model.cycles_per_layer, 0.0);

  DataflowOptions probe;
  probe.iterations = 3;
  const physics::FlowProblem problem = make_problem(5, 5, 16, spec.seed);
  const f64 measured = measure_cycles_per_iteration(problem, probe);
  const f64 predicted = model.cycles_per_iteration(16);
  EXPECT_NEAR(predicted, measured, measured * 0.15)
      << "affine model should interpolate within 15%";
}

// --- optimization toggles (timing direction) --------------------------------------

TEST(AblationTest, ScalarModeIsSlower) {
  const physics::FlowProblem problem = make_problem(4, 4, 12, 67);
  DataflowOptions vec;
  vec.iterations = 2;
  DataflowOptions scalar = vec;
  scalar.execution.vectorized = false;
  const DataflowResult a = run_dataflow_tpfa(problem, vec);
  const DataflowResult b = run_dataflow_tpfa(problem, scalar);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.makespan_cycles, 1.5 * a.makespan_cycles);
  expect_bitwise_equal(a.residual, b.residual);
}

TEST(AblationTest, BlockingSendsAreSlower) {
  const physics::FlowProblem problem = make_problem(5, 5, 12, 71);
  DataflowOptions async_on;
  async_on.iterations = 2;
  DataflowOptions async_off = async_on;
  async_off.execution.async_sends = false;
  const DataflowResult a = run_dataflow_tpfa(problem, async_on);
  const DataflowResult b = run_dataflow_tpfa(problem, async_off);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.makespan_cycles, a.makespan_cycles);
  expect_bitwise_equal(a.residual, b.residual);
}

TEST(AblationTest, DisablingDiagonalsReducesTraffic) {
  const physics::FlowProblem problem = make_problem(5, 5, 4, 73);
  DataflowOptions with;
  with.iterations = 2;
  DataflowOptions without = with;
  without.kernel.diagonals_enabled = false;
  const DataflowResult a = run_dataflow_tpfa(problem, with);
  const DataflowResult b = run_dataflow_tpfa(problem, without);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b.counters.wavelets_sent, a.counters.wavelets_sent);
  EXPECT_LT(b.counters.fmov, a.counters.fmov);
}

}  // namespace
}  // namespace fvf::core
