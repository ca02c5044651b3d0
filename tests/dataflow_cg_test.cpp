// Tests of the dataflow CG solver (the "cg" spec kernel): operator
// correctness, convergence on manufactured solutions, agreement with the
// host Krylov stack, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/cg_program.hpp"
#include "core/linear_stencil.hpp"
#include "physics/problem.hpp"
#include "solver/krylov.hpp"

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

constexpr f64 kDt = 86400.0;

// --- linear stencil -----------------------------------------------------------

TEST(LinearStencilTest, SymmetricCoefficients) {
  const auto problem = make_problem(5, 4, 3);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  EXPECT_EQ(stencil.max_asymmetry(), 0.0);
}

TEST(LinearStencilTest, AccumulationStrengthensDiagonal) {
  const auto problem = make_problem(3, 3, 2);
  const LinearStencil with = build_linear_stencil(problem, kDt);
  const LinearStencil without = build_linear_stencil(problem, 0.0);
  EXPECT_GT(with.diag(1, 1, 1), without.diag(1, 1, 1));
  // Without the shift the diagonal equals the negated off-diagonal sum
  // (weak diagonal dominance of the pure flux operator).
  f64 offsum = 0.0;
  for (const mesh::Face f : mesh::kAllFaces) {
    offsum += without.offdiag[static_cast<usize>(f)](1, 1, 1);
  }
  EXPECT_NEAR(without.diag(1, 1, 1), -offsum,
              std::abs(offsum) * 1e-5);
}

TEST(LinearStencilTest, JacobiScalingGivesUnitDiagonal) {
  const auto problem = make_problem(4, 4, 3);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ScaledSystem scaled = jacobi_scale(stencil);
  for (i64 i = 0; i < scaled.stencil.diag.size(); ++i) {
    EXPECT_EQ(scaled.stencil.diag[i], 1.0f);
    EXPECT_GT(scaled.inv_sqrt_diag[i], 0.0f);
  }
  EXPECT_EQ(scaled.stencil.max_asymmetry(), 0.0);
}

TEST(LinearStencilTest, ScaledSystemIsEquivalent) {
  // A x = b  <=>  A~ y = b~ with x = D^{-1/2} y.
  const auto problem = make_problem(4, 3, 3);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ScaledSystem scaled = jacobi_scale(stencil);
  const ManufacturedSystem sys = manufacture_solution(stencil);

  // y_exact = D^{1/2} x_exact; check A~ y_exact == b~ in f64.
  const usize n = static_cast<usize>(stencil.extents.cell_count());
  std::vector<f64> y(n), ay(n);
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    y[static_cast<usize>(i)] = static_cast<f64>(sys.exact[i]) /
                               scaled.inv_sqrt_diag[i];
  }
  scaled.stencil.apply_f64(y, ay);
  const Array3<f32> scaled_rhs = scale_rhs(scaled, sys.rhs);
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    EXPECT_NEAR(ay[static_cast<usize>(i)], scaled_rhs[i],
                std::abs(scaled_rhs[i]) * 1e-4 + 1e-7);
  }
}

TEST(LinearStencilTest, ConstantVectorInNullspaceOfFluxPart) {
  // With sigma = 0, A * constant = 0 (pure difference operator).
  const auto problem = make_problem(4, 3, 3);
  const LinearStencil stencil = build_linear_stencil(problem, 0.0);
  const usize n = static_cast<usize>(stencil.extents.cell_count());
  std::vector<f64> u(n, 3.7), out(n);
  stencil.apply_f64(u, out);
  for (const f64 v : out) {
    EXPECT_NEAR(v, 0.0, 1e-8);
  }
}

TEST(LinearStencilTest, OperatorIsPositiveDefiniteWithShift) {
  const auto problem = make_problem(4, 4, 2);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const usize n = static_cast<usize>(stencil.extents.cell_count());
  Xoshiro256 rng(5);
  std::vector<f64> u(n), au(n);
  for (int trial = 0; trial < 20; ++trial) {
    f64 norm = 0.0;
    for (auto& v : u) {
      v = rng.uniform(-1.0, 1.0);
      norm += v * v;
    }
    stencil.apply_f64(u, au);
    f64 quad = 0.0;
    for (usize i = 0; i < n; ++i) {
      quad += u[i] * au[i];
    }
    EXPECT_GT(quad, 0.0) << "u'Au must be positive for u != 0";
    (void)norm;
  }
}

TEST(LinearStencilTest, ManufacturedRhsIsConsistent) {
  const auto problem = make_problem(5, 5, 3);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  // Residual of the exact solution is zero by construction (f64 apply).
  const usize n = static_cast<usize>(stencil.extents.cell_count());
  std::vector<f64> u(n), b(n);
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    u[static_cast<usize>(i)] = sys.exact[i];
  }
  stencil.apply_f64(u, b);
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    EXPECT_NEAR(b[static_cast<usize>(i)], sys.rhs[i],
                std::abs(b[static_cast<usize>(i)]) * 1e-6 + 1e-10);
  }
}

// --- dataflow CG ----------------------------------------------------------------

struct CgCase {
  i32 nx;
  i32 ny;
  i32 nz;
};

class DataflowCgShapeTest : public ::testing::TestWithParam<CgCase> {};

TEST_P(DataflowCgShapeTest, SolvesManufacturedSystem) {
  const auto [nx, ny, nz] = GetParam();
  const auto problem = make_problem(nx, ny, nz, 7);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  // Jacobi scaling tames the heterogeneous permeability's conditioning,
  // exactly as a host Krylov solver would precondition.
  const ScaledSystem scaled = jacobi_scale(stencil);

  CgKernelOptions kernel;
  kernel.relative_tolerance = 1e-6f;
  kernel.max_iterations = 400;
  const DataflowCgResult result = spec::run(
      cg_launch(scaled.stencil, scale_rhs(scaled, sys.rhs), kernel), {},
      gather_cg);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  EXPECT_TRUE(result.converged)
      << "CG did not converge in " << result.iterations << " iterations ("
      << result.final_residual_norm << " / " << result.initial_residual_norm
      << ")";

  // Solution error relative to the manufactured exact field.
  const Array3<f32> x = unscale_solution(scaled, result.solution);
  f64 err = 0.0, scale = 0.0;
  for (i64 i = 0; i < sys.exact.size(); ++i) {
    err = std::max(err, std::abs(static_cast<f64>(x[i]) - sys.exact[i]));
    scale = std::max(scale, std::abs(static_cast<f64>(sys.exact[i])));
  }
  // The residual tolerance bounds the solution error only up to the
  // conditioning of the scaled operator (the log-normal permeability
  // spans ~4 decades), so allow kappa * tol head-room.
  EXPECT_LT(err, scale * 2e-2) << "max error " << err;
}

INSTANTIATE_TEST_SUITE_P(Shapes, DataflowCgShapeTest,
                         ::testing::Values(CgCase{1, 1, 8}, CgCase{4, 4, 4},
                                           CgCase{5, 3, 4}, CgCase{6, 6, 2},
                                           CgCase{3, 7, 3}));

TEST(DataflowCgTest, MatchesHostKrylovSolution) {
  const auto problem = make_problem(5, 5, 4, 11);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);

  // Host: f64 CG on the same operator.
  const usize n = static_cast<usize>(stencil.extents.cell_count());
  std::vector<f64> rhs(n), x_host(n, 0.0);
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    rhs[static_cast<usize>(i)] = sys.rhs[i];
  }
  const solver::LinearOperator a = [&stencil](std::span<const f64> u,
                                              std::span<f64> out) {
    stencil.apply_f64(u, out);
  };
  solver::KrylovOptions host_options;
  host_options.relative_tolerance = 1e-10;
  host_options.max_iterations = 500;
  const solver::KrylovResult host =
      solver::conjugate_gradient(a, rhs, x_host, host_options);
  ASSERT_TRUE(host.converged);

  const ScaledSystem scaled = jacobi_scale(stencil);
  CgKernelOptions kernel;
  kernel.relative_tolerance = 1e-6f;
  kernel.max_iterations = 400;
  const DataflowCgResult fabric = spec::run(
      cg_launch(scaled.stencil, scale_rhs(scaled, sys.rhs), kernel), {},
      gather_cg);
  ASSERT_TRUE(fabric.ok() && fabric.converged);
  const Array3<f32> x_fabric = unscale_solution(scaled, fabric.solution);

  f64 scale = 0.0;
  for (const f64 v : x_host) {
    scale = std::max(scale, std::abs(v));
  }
  for (i64 i = 0; i < stencil.extents.cell_count(); ++i) {
    EXPECT_NEAR(x_fabric[i], x_host[static_cast<usize>(i)], scale * 5e-3)
        << "at " << i;
  }
}

TEST(DataflowCgTest, DeterministicAcrossRuns) {
  const auto problem = make_problem(4, 4, 3, 13);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  CgKernelOptions kernel;
  kernel.max_iterations = 100;
  const DataflowCgResult a =
      spec::run(cg_launch(stencil, sys.rhs, kernel), {}, gather_cg);
  const DataflowCgResult b =
      spec::run(cg_launch(stencil, sys.rhs, kernel), {}, gather_cg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  for (i64 i = 0; i < a.solution.size(); ++i) {
    EXPECT_EQ(a.solution[i], b.solution[i]);
  }
}

TEST(DataflowCgTest, IterationCapRespected) {
  const auto problem = make_problem(5, 5, 3, 17);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  CgKernelOptions kernel;
  kernel.max_iterations = 3;
  kernel.relative_tolerance = 1e-12f;  // unreachable
  const DataflowCgResult result =
      spec::run(cg_launch(stencil, sys.rhs, kernel), {}, gather_cg);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3);
}

TEST(DataflowCgTest, ZeroRhsConvergesInstantly) {
  const auto problem = make_problem(3, 3, 2, 19);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  Array3<f32> rhs(stencil.extents, 0.0f);
  const DataflowCgResult result =
      spec::run(cg_launch(stencil, rhs, {}), {}, gather_cg);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  for (i64 i = 0; i < result.solution.size(); ++i) {
    EXPECT_EQ(result.solution[i], 0.0f);
  }
}

TEST(DataflowCgTest, ResidualNormsDecrease) {
  const auto problem = make_problem(4, 4, 4, 23);
  const ScaledSystem scaled =
      jacobi_scale(build_linear_stencil(problem, kDt));
  const ManufacturedSystem sys = manufacture_solution(scaled.stencil);
  CgKernelOptions kernel;
  kernel.relative_tolerance = 1e-6f;
  const DataflowCgResult result =
      spec::run(cg_launch(scaled.stencil, sys.rhs, kernel), {}, gather_cg);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.final_residual_norm, result.initial_residual_norm * 1e-5);
}

TEST(DataflowCgTest, UsesFabricCommunication) {
  const auto problem = make_problem(4, 4, 3, 29);
  const LinearStencil stencil = build_linear_stencil(problem, kDt);
  const ManufacturedSystem sys = manufacture_solution(stencil);
  CgKernelOptions kernel;
  kernel.max_iterations = 10;
  const DataflowCgResult result =
      spec::run(cg_launch(stencil, sys.rhs, kernel), {}, gather_cg);
  ASSERT_TRUE(result.ok());
  // Halo exchange + reductions + broadcasts all move wavelets.
  EXPECT_GT(result.counters.wavelets_sent, 100u);
  EXPECT_GT(result.counters.fmov, 100u);
  EXPECT_GT(result.counters.fma, 0u) << "stencil apply uses FMAs";
}

}  // namespace
}  // namespace fvf::core
