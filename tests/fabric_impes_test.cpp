// Tests of the transport-on-fabric program and the full fabric IMPES
// loop (pressure AND saturation kernels on the simulated WSE).
#include <gtest/gtest.h>

#include <cmath>

#include "core/fabric_impes.hpp"
#include "core/transport_program.hpp"
#include "mesh/fields.hpp"
#include "physics/problem.hpp"
#include "solver/twophase.hpp"

namespace fvf::core {
namespace {

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed = 42,
                                  f64 dome = 0.0) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
  spec.geomodel = physics::GeomodelKind::Homogeneous;
  spec.dome_amplitude = dome;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

TransportKernelOptions transport_options(const physics::FlowProblem& problem,
                                         f64 window) {
  TransportKernelOptions options;
  options.window_seconds = window;
  options.pore_volume =
      static_cast<f32>(problem.mesh().cell_volume() * 0.2);
  return options;
}

// --- transport program vs host mirror ----------------------------------------------

TEST(FabricTransportTest, MatchesHostMirrorBitwise) {
  const physics::FlowProblem problem = make_problem(5, 4, 3);
  const Extents3 ext = problem.extents();

  // A nontrivial pressure field (hydrostatic-ish) and a saturation patch.
  mesh::PressureFieldOptions pf;
  pf.perturbation = 5.0e4;
  const Array3<f32> pressure =
      mesh::hydrostatic_pressure(problem.mesh(), pf);
  Array3<f32> saturation(ext, 0.0f);
  saturation(2, 2, 1) = 0.6f;
  saturation(2, 1, 1) = 0.3f;
  Array3<f32> wells(ext, 0.0f);
  wells(1, 1, 0) = 1e-4f;

  TransportKernelOptions kernel = transport_options(problem, 1800.0);
  const DataflowTransportResult fabric = spec::run(
      transport_launch(problem, saturation, pressure, wells, kernel), {},
      gather_transport);
  ASSERT_TRUE(fabric.ok()) << fabric.errors[0];
  EXPECT_GT(fabric.substeps, 0);

  const Array3<f32> host = transport_reference_host(
      problem, saturation, pressure, wells, kernel);
  for (i64 i = 0; i < host.size(); ++i) {
    ASSERT_EQ(fabric.saturation[i], host[i]) << "at " << i;
  }
}

TEST(FabricTransportTest, ConservesVolumeWithoutWells) {
  const physics::FlowProblem problem = make_problem(4, 4, 3, 7);
  const Extents3 ext = problem.extents();
  Array3<f32> pressure(ext, 2.0e7f);
  // Off-centre saturation blob redistributes but conserves.
  Array3<f32> saturation(ext, 0.0f);
  saturation(1, 1, 1) = 0.8f;
  saturation(2, 1, 1) = 0.4f;
  Array3<f32> wells(ext, 0.0f);

  TransportKernelOptions kernel = transport_options(problem, 3600.0);
  kernel.fluid.gravity = 0.0f;
  const DataflowTransportResult result = spec::run(
      transport_launch(problem, saturation, pressure, wells, kernel), {},
      gather_transport);
  ASSERT_TRUE(result.ok()) << result.errors[0];

  f64 before = 0.0, after = 0.0;
  for (i64 i = 0; i < saturation.size(); ++i) {
    before += saturation[i];
    after += result.saturation[i];
  }
  EXPECT_NEAR(after, before, before * 1e-4)
      << "no wells: total saturation volume must be conserved";
}

TEST(FabricTransportTest, GravitySegregatesOnFabric) {
  // CO2 seeded at the bottom of a single column must move up when
  // gravity is on. Buoyancy requires a pressure field hydrostatic in the
  // heavier (wetting) phase: the non-wetting potential drop across a
  // vertical face is then (rho_w - rho_n) g dz > 0 upward.
  const physics::FlowProblem problem = make_problem(1, 1, 6, 11);
  const Extents3 ext = problem.extents();
  const TransportFluid fluid;  // defaults: brine 1050, CO2 700
  Array3<f32> pressure(ext);
  for (i32 z = 0; z < ext.nz; ++z) {
    pressure(0, 0, z) = static_cast<f32>(
        2.0e7 - fluid.density_wetting * fluid.gravity *
                    problem.mesh().elevation(0, 0, z));
  }
  Array3<f32> saturation(ext, 0.0f);
  saturation(0, 0, 0) = 0.8f;
  Array3<f32> wells(ext, 0.0f);

  TransportKernelOptions kernel = transport_options(problem, 4.0 * 3600.0);
  const DataflowTransportResult result = spec::run(
      transport_launch(problem, saturation, pressure, wells, kernel), {},
      gather_transport);
  ASSERT_TRUE(result.ok()) << result.errors[0];
  f32 above = 0.0f;
  for (i32 z = 1; z < ext.nz; ++z) {
    above += result.saturation(0, 0, z);
  }
  EXPECT_GT(above, 0.01f) << "buoyant CO2 must climb the column";
}

TEST(FabricTransportTest, DeterministicAcrossRuns) {
  const physics::FlowProblem problem = make_problem(4, 3, 3, 13);
  const Extents3 ext = problem.extents();
  Array3<f32> pressure(ext, 2.0e7f);
  Array3<f32> saturation(ext, 0.0f);
  saturation(1, 1, 1) = 0.5f;
  Array3<f32> wells(ext, 0.0f);
  wells(2, 1, 1) = 5e-5f;

  TransportKernelOptions kernel = transport_options(problem, 900.0);
  const DataflowTransportResult a = spec::run(
      transport_launch(problem, saturation, pressure, wells, kernel), {},
      gather_transport);
  const DataflowTransportResult b = spec::run(
      transport_launch(problem, saturation, pressure, wells, kernel), {},
      gather_transport);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.substeps, b.substeps);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  for (i64 i = 0; i < a.saturation.size(); ++i) {
    EXPECT_EQ(a.saturation[i], b.saturation[i]);
  }
}

// --- full IMPES on the fabric ----------------------------------------------------

TEST(FabricImpesTest, InjectionConservesCo2) {
  const physics::FlowProblem problem = make_problem(5, 5, 2, 17);
  FabricImpesOptions options;
  options.fluid.gravity = 0.0f;
  FabricImpesSimulator sim(problem, options);
  const f64 rate = 1e-4;
  sim.add_well(Coord3{2, 2, 0}, rate);

  f64 total_time = 0.0;
  for (int w = 0; w < 3; ++w) {
    const FabricImpesWindow window = sim.advance_window(900.0);
    EXPECT_TRUE(window.cg_converged);
    EXPECT_GT(window.transport_substeps, 0);
    total_time += 900.0;
  }
  const f64 injected = rate * total_time;
  EXPECT_NEAR(sim.co2_in_place(), injected, injected * 0.02);
}

TEST(FabricImpesTest, SaturationBounded) {
  const physics::FlowProblem problem = make_problem(4, 4, 2, 19);
  FabricImpesOptions options;
  FabricImpesSimulator sim(problem, options);
  sim.add_well(Coord3{1, 1, 0}, 3e-4);
  for (int w = 0; w < 2; ++w) {
    (void)sim.advance_window(1200.0);
  }
  for (i64 i = 0; i < sim.saturation().size(); ++i) {
    EXPECT_GE(sim.saturation()[i], 0.0f);
    EXPECT_LE(sim.saturation()[i], 1.0f);
  }
}

TEST(FabricImpesTest, PressureRisesAroundInjector) {
  const physics::FlowProblem problem = make_problem(5, 5, 2, 23);
  FabricImpesOptions options;
  FabricImpesSimulator sim(problem, options);
  sim.add_well(Coord3{2, 2, 0}, 1e-4);
  (void)sim.advance_window(600.0);
  EXPECT_GT(sim.pressure()(2, 2, 0), sim.pressure()(0, 0, 0));
}

TEST(FabricImpesTest, TracksHostImpesQualitatively) {
  // Same scenario on the all-host IMPES (solver::TwoPhaseSimulator) and
  // the all-fabric IMPES. Different pressure solvers and lagging details
  // mean no bitwise match, but the plumes must agree to a few percent.
  const physics::FlowProblem problem = make_problem(5, 5, 1, 29);
  const f64 rate = 2e-4;
  const f64 horizon = 3600.0;

  solver::TwoPhaseOptions host_options;
  host_options.include_gravity = false;
  solver::TwoPhaseSimulator host(problem, host_options);
  host.add_well(solver::InjectionWell{{2, 2, 0}, rate});
  ASSERT_TRUE(host.advance(horizon, 600.0).completed);

  FabricImpesOptions impes_options;
  impes_options.fluid.gravity = 0.0f;
  FabricImpesSimulator fabric(problem, impes_options);
  fabric.add_well(Coord3{2, 2, 0}, rate);
  for (int w = 0; w < 6; ++w) {
    (void)fabric.advance_window(600.0);
  }

  f64 diff2 = 0.0, norm2 = 0.0;
  for (i64 i = 0; i < problem.cell_count(); ++i) {
    const f64 a = fabric.saturation()[i];
    const f64 b = host.saturation()[i];
    diff2 += (a - b) * (a - b);
    norm2 += b * b;
  }
  ASSERT_GT(norm2, 0.0);
  EXPECT_LT(std::sqrt(diff2 / norm2), 0.08)
      << "fabric and host IMPES plumes must agree within a few percent";
}

}  // namespace
}  // namespace fvf::core
