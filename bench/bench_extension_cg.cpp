// Extension bench (paper Section 9 future work): conjugate gradients
// running on the simulated wafer-scale engine. Reports iteration counts,
// simulated device time, and weak-scaling behavior of the fabric solver.
#include "bench/bench_common.hpp"
#include "core/cg_program.hpp"
#include "core/linear_stencil.hpp"

namespace fvf::bench {
namespace {

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const BenchScale scale = BenchScale::from_cli(cli);
  BenchJsonWriter json("extension_cg", cli);
  const i32 nz = static_cast<i32>(cli.get_int("nz", 8));
  const f32 tol = static_cast<f32>(cli.get_double("tol", 1e-5));

  print_header("Extension: dataflow CG on the simulated WSE");
  TextTable table({"fabric", "unknowns", "iterations", "converged",
                   "cycles/iter", "device time", "wavelets"});
  f64 first_cycles_per_iter = 0.0;
  for (const i32 n : {4, 6, 8, 12}) {
    const physics::FlowProblem problem = physics::make_benchmark_problem(
        Extents3{n, n, nz}, 42);
    const core::ScaledSystem scaled =
        core::jacobi_scale(core::build_linear_stencil(problem, 3600.0));
    const core::ManufacturedSystem sys =
        core::manufacture_solution(scaled.stencil);

    core::CgKernelOptions kernel;
    kernel.relative_tolerance = tol;
    kernel.max_iterations = 600;
    dataflow::HarnessOptions options;
    // --threads / --fault-seed / --fault-rate, as for the TPFA benches;
    // a fault scenario auto-enables the halo reliability layer.
    options.execution = scale.execution();
    const core::DataflowCgResult result =
        spec::run(core::cg_launch(scaled.stencil, sys.rhs, kernel), options,
                  core::gather_cg);
    if (!result.ok()) {
      std::cerr << "fabric CG failed at " << n << ": " << result.errors[0]
                << '\n';
      return 1;
    }
    const f64 cycles_per_iter =
        result.makespan_cycles / std::max(1, result.iterations);
    if (first_cycles_per_iter == 0.0) {
      first_cycles_per_iter = cycles_per_iter;
    }
    table.add_row({std::to_string(n) + "x" + std::to_string(n),
                   format_count(problem.cell_count()),
                   std::to_string(result.iterations),
                   result.converged ? "yes" : "NO",
                   format_fixed(cycles_per_iter, 0),
                   format_fixed(result.device_seconds * 1e6, 1) + " us",
                   format_count(static_cast<i64>(
                       result.counters.wavelets_sent))});
    json.add_case("fabric_" + std::to_string(n) + "x" + std::to_string(n),
                  result);
    json.add_metric("iterations", static_cast<f64>(result.iterations));
    json.add_metric("converged", result.converged ? 1.0 : 0.0);
    json.add_metric("cycles_per_iteration", cycles_per_iter);
  }
  std::cout << table.render();
  std::cout << "Per-iteration cycles grow slowly with fabric size (the\n"
               "all-reduce chains are O(nx + ny) deep); iteration counts\n"
               "track the operator conditioning, not the fabric size.\n";
  return 0;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
