// Tests of the acoustic-wave dataflow program (the Section 8 "other
// applications enabled by the diagonal pattern" demonstration).
#include <gtest/gtest.h>

#include <cmath>

#include "core/wave_program.hpp"
#include "physics/problem.hpp"

namespace fvf::core {
namespace {

/// A well-behaved wave operator: Jacobi-scaled TPFA Laplacian, kappa
/// small enough for leapfrog stability (kappa * ||A|| < 4 with unit
/// diagonal => kappa <= ~1).
struct WaveSetup {
  LinearStencil stencil;
  Array3<f32> initial;
  f32 kappa;
};

WaveSetup make_setup(i32 nx, i32 ny, i32 nz, u64 seed = 42) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  const physics::FlowProblem problem(spec);
  WaveSetup setup{jacobi_scale(build_linear_stencil(problem, 3600.0)).stencil,
                  gaussian_pulse(Extents3{nx, ny, nz}, 1.0, 2.0), 0.4f};
  return setup;
}

TEST(WaveProgramTest, GaussianPulseShape) {
  const Array3<f32> pulse = gaussian_pulse(Extents3{9, 9, 5}, 2.0, 1.5);
  EXPECT_NEAR(pulse(4, 4, 2), 2.0f, 1e-6f);  // peak at centre
  EXPECT_LT(pulse(0, 0, 0), pulse(4, 4, 2));
  EXPECT_GT(pulse(0, 0, 0), 0.0f);
  // Symmetry.
  EXPECT_EQ(pulse(3, 4, 2), pulse(5, 4, 2));
  EXPECT_EQ(pulse(4, 3, 2), pulse(4, 5, 2));
}

TEST(WaveProgramTest, MatchesHostReference) {
  const WaveSetup setup = make_setup(6, 5, 4);
  WaveKernelOptions kernel;
  kernel.timesteps = 8;
  kernel.kappa = setup.kappa;
  const DataflowWaveResult fabric = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(fabric.ok()) << fabric.errors[0];

  const Array3<f32> host = wave_reference_host(setup.stencil, setup.initial,
                                               setup.kappa, 8);
  f64 scale = 0.0;
  for (i64 i = 0; i < host.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<f64>(host[i])));
  }
  for (i64 i = 0; i < host.size(); ++i) {
    EXPECT_NEAR(fabric.field[i], host[i], scale * 1e-4) << "at " << i;
  }
}

TEST(WaveProgramTest, ZeroStepsRejectedOneStepWorks) {
  const WaveSetup setup = make_setup(3, 3, 3);
  WaveKernelOptions kernel;
  kernel.timesteps = 1;
  kernel.kappa = setup.kappa;
  const DataflowWaveResult result = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  const Array3<f32> host =
      wave_reference_host(setup.stencil, setup.initial, setup.kappa, 1);
  for (i64 i = 0; i < host.size(); ++i) {
    EXPECT_NEAR(result.field[i], host[i], 1e-4);
  }
}

TEST(WaveProgramTest, PulseSpreadsLaterally) {
  // After some steps, the corner (initially ~0) must have received
  // energy that could only arrive through the halo exchange.
  const WaveSetup setup = make_setup(7, 7, 3, 9);
  WaveKernelOptions kernel;
  kernel.timesteps = 12;
  kernel.kappa = setup.kappa;
  const DataflowWaveResult result = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(std::abs(result.field(0, 0, 1)),
            std::abs(setup.initial(0, 0, 1)) + 1e-6f)
      << "the pulse must propagate to the corner PE";
}

TEST(WaveProgramTest, StationaryFieldStaysStationaryWithoutOperator) {
  // kappa = 0: u^{t+1} = 2u - u_prev with u_prev = u -> field constant.
  const WaveSetup setup = make_setup(4, 4, 3, 11);
  WaveKernelOptions kernel;
  kernel.timesteps = 5;
  kernel.kappa = 0.0f;
  const DataflowWaveResult result = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(result.ok());
  for (i64 i = 0; i < result.field.size(); ++i) {
    EXPECT_EQ(result.field[i], setup.initial[i]);
  }
}

TEST(WaveProgramTest, DeterministicAcrossRuns) {
  const WaveSetup setup = make_setup(5, 4, 3, 13);
  WaveKernelOptions kernel;
  kernel.timesteps = 6;
  kernel.kappa = setup.kappa;
  const DataflowWaveResult a = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  const DataflowWaveResult b = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  for (i64 i = 0; i < a.field.size(); ++i) {
    EXPECT_EQ(a.field[i], b.field[i]);
  }
}

TEST(WaveProgramTest, UsesDiagonalTraffic) {
  const WaveSetup setup = make_setup(5, 5, 2, 17);
  WaveKernelOptions kernel;
  kernel.timesteps = 3;
  kernel.kappa = setup.kappa;
  const DataflowWaveResult result = spec::run(
      wave_launch(setup.stencil, setup.initial, kernel), {}, gather_wave);
  ASSERT_TRUE(result.ok());
  // 4 cardinal sends + 4 diagonal forwards per PE per step (interior).
  EXPECT_GT(result.counters.wavelets_sent,
            static_cast<u64>(4 * 25 * 3 * 2));
}

}  // namespace
}  // namespace fvf::core
