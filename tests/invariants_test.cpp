// Cross-cutting invariants: properties that must hold across *every*
// configuration axis of the dataflow implementation — execution options,
// kernel toggles, geomodels — plus conservation checks that tie the
// whole stack together.
#include <gtest/gtest.h>

#include <cmath>

#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/cg_program.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"
#include "solver/twophase.hpp"

namespace fvf {
namespace {

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed = 42) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

// --- Table 4 counts are a property of the ALGORITHM, not the run mode ----------

TEST(InstructionInvariantTest, CountsUnchangedByVectorizationMode) {
  const physics::FlowProblem problem = make_problem(3, 3, 6);
  core::DataflowOptions vec;
  vec.iterations = 2;
  core::DataflowOptions scalar = vec;
  scalar.execution.vectorized = false;
  const auto a = core::run_dataflow_tpfa(problem, vec);
  const auto b = core::run_dataflow_tpfa(problem, scalar);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.counters.fmul, b.counters.fmul);
  EXPECT_EQ(a.counters.fsub, b.counters.fsub);
  EXPECT_EQ(a.counters.fma, b.counters.fma);
  EXPECT_EQ(a.counters.fmov, b.counters.fmov);
  EXPECT_EQ(a.counters.mem_loads, b.counters.mem_loads);
}

TEST(InstructionInvariantTest, CountsUnchangedByAsyncMode) {
  const physics::FlowProblem problem = make_problem(3, 3, 5, 7);
  core::DataflowOptions on;
  on.iterations = 2;
  core::DataflowOptions off = on;
  off.execution.async_sends = false;
  const auto a = core::run_dataflow_tpfa(problem, on);
  const auto b = core::run_dataflow_tpfa(problem, off);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.counters.flops(), b.counters.flops());
  EXPECT_EQ(a.counters.wavelets_sent, b.counters.wavelets_sent);
}

TEST(InstructionInvariantTest, CountsUnchangedByBufferReuse) {
  const physics::FlowProblem problem = make_problem(3, 3, 5, 11);
  core::DataflowOptions reuse;
  reuse.iterations = 2;
  core::DataflowOptions no_reuse = reuse;
  no_reuse.kernel.reuse_buffers = false;
  const auto a = core::run_dataflow_tpfa(problem, reuse);
  const auto b = core::run_dataflow_tpfa(problem, no_reuse);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.counters.flops(), b.counters.flops());
  EXPECT_EQ(a.counters.mem_accesses(), b.counters.mem_accesses());
  // Memory FOOTPRINT is what changes.
  EXPECT_LT(a.max_pe_memory, b.max_pe_memory);
}

TEST(InstructionInvariantTest, FlopsScaleLinearlyWithIterations) {
  const physics::FlowProblem problem = make_problem(4, 3, 4, 13);
  core::DataflowOptions one;
  one.iterations = 1;
  core::DataflowOptions four;
  four.iterations = 4;
  const auto a = core::run_dataflow_tpfa(problem, one);
  const auto b = core::run_dataflow_tpfa(problem, four);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b.counters.flops(), 4 * a.counters.flops());
  EXPECT_EQ(b.counters.fmov, 4 * a.counters.fmov);
}

TEST(InstructionInvariantTest, TimingConstantsDoNotAffectResults) {
  // Slower links / slower PEs change cycles, never numerics or counts.
  const physics::FlowProblem problem = make_problem(4, 4, 3, 17);
  core::DataflowOptions fast;
  fast.iterations = 2;
  core::DataflowOptions slow = fast;
  slow.timings.cycles_per_wavelet_link *= 7.0;
  slow.timings.cycles_per_vector_element *= 3.0;
  slow.timings.hop_latency_cycles *= 5.0;
  const auto a = core::run_dataflow_tpfa(problem, fast);
  const auto b = core::run_dataflow_tpfa(problem, slow);
  ASSERT_TRUE(a.ok() && b.ok());
  for (i64 i = 0; i < a.residual.size(); ++i) {
    ASSERT_EQ(a.residual[i], b.residual[i]);
  }
  EXPECT_EQ(a.counters.flops(), b.counters.flops());
  EXPECT_GT(b.makespan_cycles, a.makespan_cycles);
}

// --- global conservation ties the stack together --------------------------------

TEST(ConservationInvariantTest, DataflowResidualSumsLikeSerial) {
  // The f64 sum of the dataflow residual equals the serial one exactly
  // (bitwise-equal fields), and both are near zero relative to the flux
  // scale (interior fluxes cancel; boundaries are no-flow).
  const physics::FlowProblem problem = make_problem(6, 5, 4, 19);
  core::DataflowOptions options;
  options.iterations = 1;
  const auto dataflow = core::run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(dataflow.ok());
  f64 total = 0.0, scale = 0.0;
  for (i64 i = 0; i < dataflow.residual.size(); ++i) {
    total += dataflow.residual[i];
    scale += std::abs(dataflow.residual[i]);
  }
  EXPECT_NEAR(total, 0.0, std::max(scale, 1.0) * 1e-5);
}

TEST(ConservationInvariantTest, CgResidualIdentityHolds) {
  // After CG converges, ||b - A x|| from an independent f64 apply must
  // match the solver's own reported residual norm (no bookkeeping drift).
  const physics::FlowProblem problem = make_problem(4, 4, 3, 23);
  const core::ScaledSystem scaled =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0));
  const core::ManufacturedSystem sys =
      core::manufacture_solution(scaled.stencil);
  core::CgKernelOptions kernel;
  kernel.relative_tolerance = 1e-5f;
  const core::DataflowCgResult result = spec::run(
      core::cg_launch(scaled.stencil, sys.rhs, kernel), {}, core::gather_cg);
  ASSERT_TRUE(result.ok() && result.converged);

  const usize n = static_cast<usize>(problem.cell_count());
  std::vector<f64> x(n), ax(n);
  for (i64 i = 0; i < problem.cell_count(); ++i) {
    x[static_cast<usize>(i)] = result.solution[i];
  }
  scaled.stencil.apply_f64(x, ax);
  f64 r2 = 0.0;
  for (i64 i = 0; i < problem.cell_count(); ++i) {
    const f64 r = static_cast<f64>(sys.rhs[i]) - ax[static_cast<usize>(i)];
    r2 += r * r;
  }
  // f32 iterate vs f64 apply: agreement within a few x the tolerance.
  EXPECT_LT(std::sqrt(r2),
            10.0 * result.final_residual_norm +
                1e-6 * result.initial_residual_norm);
}

TEST(ConservationInvariantTest, TwoPhaseChannelizedStillConserves) {
  // The bimodal channelized field (3 decades of contrast at facies
  // boundaries) must not break IMPES conservation.
  physics::ProblemSpec spec;
  spec.extents = Extents3{6, 6, 2};
  spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
  spec.geomodel = physics::GeomodelKind::Channelized;
  spec.seed = 29;
  const physics::FlowProblem problem(spec);

  solver::TwoPhaseOptions options;
  options.include_gravity = false;
  solver::TwoPhaseSimulator sim(problem, options);
  const f64 rate = 5e-5;
  sim.add_well(solver::InjectionWell{{3, 3, 0}, rate});
  const f64 horizon = 3600.0;
  const solver::TwoPhaseReport report = sim.advance(horizon, 900.0);
  ASSERT_TRUE(report.completed);
  EXPECT_NEAR(report.co2_in_place, rate * horizon, rate * horizon * 0.02);
}

}  // namespace
}  // namespace fvf
