// google-benchmark microbenchmarks of the kernel building blocks: the
// per-face flux, EOS pass, serial Algorithm 1 assembly, the simulated-GPU
// launch machinery, one dataflow iteration on the event simulator, and
// the Krylov solvers. These measure *host* execution time of this
// repository's code (not simulated device time).
#include <benchmark/benchmark.h>

#include <vector>

#include "baseline/baseline.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "mesh/fields.hpp"
#include "physics/flux.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"
#include "solver/flow_operator.hpp"
#include "solver/krylov.hpp"

namespace fvf {
namespace {

physics::FlowProblem bench_problem(i32 n, i32 nz) {
  return physics::make_benchmark_problem(Extents3{n, n, nz}, 42);
}

void BM_FaceFlux(benchmark::State& state) {
  const physics::FluidProperties fluid;
  const physics::KernelConstants constants =
      physics::make_kernel_constants(fluid);
  physics::NullOps ops;
  physics::FaceInputs in;
  in.p_self = 2.0e7f;
  in.p_neib = 2.05e7f;
  in.rho_self = 700.0f;
  in.rho_neib = 705.0f;
  in.z_self = 0.0f;
  in.z_neib = 2.0f;
  in.trans = 1e-12f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(physics::tpfa_face_flux(in, constants, ops));
    in.p_neib += 1.0f;  // defeat value caching
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaceFlux);

void BM_DensityPass(benchmark::State& state) {
  const i64 n = state.range(0);
  const physics::FluidProperties fluid;
  Array3<f32> p(Extents3{static_cast<i32>(n), 1, 1}, 2.0e7f);
  Array3<f32> rho(p.extents());
  for (auto _ : state) {
    physics::evaluate_density(fluid, p.span(), rho.span());
    benchmark::DoNotOptimize(rho.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DensityPass)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_SerialAssembly(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 16);
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), residual(ext);
  const Array3<f32>& p = problem.initial_pressure();
  for (auto _ : state) {
    physics::apply_algorithm1(problem.mesh(), problem.transmissibility(),
                              problem.fluid(), p.span(), density.span(),
                              residual.span());
    benchmark::DoNotOptimize(residual.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * ext.cell_count());
}
BENCHMARK(BM_SerialAssembly)->Arg(8)->Arg(16)->Arg(32);

void BM_RajaLikeLaunch(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 16);
  baseline::BaselineOptions options;
  options.iterations = 1;
  for (auto _ : state) {
    const auto result = baseline::run_raja_baseline(problem, options);
    benchmark::DoNotOptimize(result.residual.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * problem.cell_count());
}
BENCHMARK(BM_RajaLikeLaunch)->Arg(8)->Arg(16);

void BM_DataflowIteration(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 8);
  core::DataflowOptions options;
  options.iterations = 1;
  for (auto _ : state) {
    const auto result = core::run_dataflow_tpfa(problem, options);
    benchmark::DoNotOptimize(result.residual.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * problem.cell_count());
}
BENCHMARK(BM_DataflowIteration)->Arg(4)->Arg(8);

void BM_DataflowCgSolve(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 4);
  const core::ScaledSystem scaled =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0));
  const core::ManufacturedSystem sys =
      core::manufacture_solution(scaled.stencil);
  const core::CgKernelOptions kernel{.max_iterations = 300,
                                     .relative_tolerance = 1e-4f};
  for (auto _ : state) {
    const auto result = spec::run(
        core::cg_launch(scaled.stencil, sys.rhs, kernel), {}, core::gather_cg);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_DataflowCgSolve)->Arg(4)->Arg(6);

void BM_WaveTimestep(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 4);
  const core::LinearStencil stencil =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0)).stencil;
  const Array3<f32> pulse =
      core::gaussian_pulse(problem.extents(), 1.0, 2.0);
  const core::WaveKernelOptions kernel{.timesteps = 4, .kappa = 0.4f};
  for (auto _ : state) {
    const auto result = spec::run(core::wave_launch(stencil, pulse, kernel),
                                  {}, core::gather_wave);
    benchmark::DoNotOptimize(result.field.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * problem.cell_count() * 4);
}
BENCHMARK(BM_WaveTimestep)->Arg(6)->Arg(10);

void BM_FabricTransportWindow(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  physics::ProblemSpec spec;
  spec.extents = Extents3{n, n, 2};
  spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
  spec.geomodel = physics::GeomodelKind::Homogeneous;
  const physics::FlowProblem problem(spec);
  const Extents3 ext = problem.extents();
  Array3<f32> pressure(ext, 2.0e7f);
  Array3<f32> saturation(ext, 0.0f);
  saturation(n / 2, n / 2, 0) = 0.5f;
  Array3<f32> wells(ext, 0.0f);
  wells(n / 2, n / 2, 0) = 1e-4f;
  core::TransportKernelOptions kernel;
  kernel.window_seconds = 600.0;
  kernel.pore_volume = static_cast<f32>(problem.mesh().cell_volume() * 0.2);
  for (auto _ : state) {
    const auto result = spec::run(
        core::transport_launch(problem, saturation, pressure, wells, kernel),
        {}, core::gather_transport);
    benchmark::DoNotOptimize(result.substeps);
  }
}
BENCHMARK(BM_FabricTransportWindow)->Arg(6)->Arg(10);

void BM_PressureBump(benchmark::State& state) {
  Array3<f32> p(Extents3{64, 64, 8}, 2.0e7f);
  i32 it = 0;
  for (auto _ : state) {
    mesh::advance_pressure(p.span(), it++);
    benchmark::DoNotOptimize(p.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * p.size());
}
BENCHMARK(BM_PressureBump);

void BM_JacobianVector(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 8);
  solver::FlowOperator op(problem, 86400.0);
  const usize size = static_cast<usize>(op.size());
  std::vector<f64> p(size, 2.0e7), v(size, 1.0), out(size);
  op.set_previous_state(p);
  for (auto _ : state) {
    op.jacobian_vector(p, v, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * op.size());
}
BENCHMARK(BM_JacobianVector)->Arg(8)->Arg(16);

void BM_BiCGStabSolve(benchmark::State& state) {
  const i32 n = static_cast<i32>(state.range(0));
  const physics::FlowProblem problem = bench_problem(n, 6);
  solver::FlowOperator op(problem, 86400.0);
  const usize size = static_cast<usize>(op.size());
  std::vector<f64> p(size), diag(size);
  for (i64 i = 0; i < op.size(); ++i) {
    p[static_cast<usize>(i)] = problem.initial_pressure()[i];
  }
  op.set_previous_state(p);
  std::vector<f64> rhs(size, 1.0), x(size);
  const solver::LinearOperator jacobian = [&](std::span<const f64> in,
                                              std::span<f64> out) {
    op.jacobian_vector(p, in, out);
  };
  op.jacobian_diagonal(p, diag);
  const solver::LinearOperator precond =
      solver::make_jacobi_preconditioner(diag);
  solver::KrylovOptions options;
  options.relative_tolerance = 1e-8;
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    const auto result = solver::bicgstab(jacobian, rhs, x, options, precond);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_BiCGStabSolve)->Arg(6)->Arg(10);

}  // namespace
}  // namespace fvf
