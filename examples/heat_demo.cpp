// 2D heat diffusion on the simulated wafer-scale engine — the first
// kernel authored purely as a `fvf::spec` stencil program rather than
// ported from a hand-written one. A pseudo-random initial field diffuses
// under an explicit 9-point Jacobi update; every step runs one
// static-halo exchange with all eight XY neighbors, generated entirely
// from the declarative spec by `spec::compile`.
//
//   ./heat_demo [--nx 16] [--ny 16] [--nz 4] [--steps 10] [--alpha 0.125]
//               [--threads N] [--seed S]
//               [--lint off|warn|strict] [--hazard-check]
//
// The fabric result must match the host mirror bit-for-bit; the demo
// exits non-zero on any mismatch.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dataflow/harness_cli.hpp"
#include "spec/heat.hpp"

int main(int argc, const char** argv) {
  using namespace fvf;
  const CliParser cli(argc, argv);
  const i32 nx = static_cast<i32>(cli.get_int("nx", 16));
  const i32 ny = static_cast<i32>(cli.get_int("ny", 16));
  const i32 nz = static_cast<i32>(cli.get_int("nz", 4));
  const Extents3 extents{nx, ny, nz};

  const Array3<f32> initial =
      spec::heat_initial_field(extents, static_cast<u64>(cli.get_int("seed", 42)));

  spec::HeatKernelOptions kernel;
  kernel.steps = static_cast<i32>(cli.get_int("steps", 10));
  kernel.alpha = static_cast<f32>(cli.get_double("alpha", 0.125));
  dataflow::HarnessOptions options;
  options.execution.threads = static_cast<i32>(cli.get_int("threads", 1));
  dataflow::apply_verification_flags(options, cli);

  std::cout << "9-point heat diffusion on a " << nx << "x" << ny
            << " fabric (" << nz << " independent layers), "
            << kernel.steps << " Jacobi steps, alpha " << kernel.alpha
            << "\n";
  const spec::DataflowHeatResult result =
      spec::run(spec::heat_launch(initial, kernel), options, spec::gather_heat);
  dataflow::print_hazard_summary(result, options.execution.hazard_check,
                                 std::cout);
  if (!result.ok()) {
    std::cerr << "run failed: " << result.errors[0] << "\n";
    return 1;
  }

  // Bitwise differential against the host mirror — the spec-generated
  // program must reproduce the serial arithmetic exactly.
  const Array3<f32> host = spec::heat_reference_host(initial, kernel);
  i64 mismatches = 0;
  f64 mean = 0.0;
  for (i64 i = 0; i < host.size(); ++i) {
    if (result.field[i] != host[i]) {
      ++mismatches;
    }
    mean += static_cast<f64>(result.field[i]);
  }
  mean /= static_cast<f64>(host.size());

  TextTable table({"metric", "value"}, {Align::Left, Align::Right});
  table.add_row({"steps completed",
                 format_count(static_cast<i64>(result.steps_completed))});
  table.add_row({"field mean", format_fixed(mean, 6)});
  table.add_row({"host-mirror mismatches", format_count(mismatches)});
  table.add_row({"simulated device time",
                 format_fixed(result.device_seconds * 1e6, 1) + " us"});
  table.add_row({"fabric wavelets",
                 format_count(static_cast<i64>(
                     result.counters.wavelets_sent))});
  std::cout << table.render();

  if (mismatches != 0) {
    std::cerr << "FAIL: fabric field diverged from the host mirror\n";
    return 1;
  }
  return 0;
}
