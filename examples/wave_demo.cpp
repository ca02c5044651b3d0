// Acoustic wave propagation on the simulated wafer-scale engine — the
// "other applications" the paper's diagonal communication pattern enables
// (Section 8). A Gaussian pressure pulse propagates through a
// heterogeneous medium via leapfrog time stepping; each step's spatial
// operator is applied through the same cardinal + diagonal halo exchange
// as the TPFA flux kernel.
//
//   ./wave_demo [--nx 16] [--ny 16] [--nz 6] [--steps 20] [--out wave.vtk]
//               [--threads N] [--fault-seed S --fault-rate R]
//               [--lint off|warn|strict] [--hazard-check]
//
// --fault-rate > 0 runs the propagation under seeded fault injection;
// the halo ack/retransmit layer is auto-enabled and the wavefield must
// still match the host reference.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/wave_program.hpp"
#include "dataflow/harness_cli.hpp"
#include "io/vtk_writer.hpp"
#include "physics/problem.hpp"

int main(int argc, const char** argv) {
  using namespace fvf;
  const CliParser cli(argc, argv);
  const i32 nx = static_cast<i32>(cli.get_int("nx", 16));
  const i32 ny = static_cast<i32>(cli.get_int("ny", 16));
  const i32 nz = static_cast<i32>(cli.get_int("nz", 6));
  const i32 steps = static_cast<i32>(cli.get_int("steps", 20));
  const std::string out = cli.get_string("out", "");

  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = static_cast<u64>(cli.get_int("seed", 42));
  const physics::FlowProblem problem(spec);

  // The heterogeneous "velocity model": the Jacobi-scaled TPFA Laplacian.
  const core::LinearStencil stencil =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0)).stencil;
  const Array3<f32> pulse =
      core::gaussian_pulse(spec.extents, 1.0, 2.0);

  core::WaveKernelOptions kernel;
  kernel.timesteps = steps;
  kernel.kappa = static_cast<f32>(cli.get_double("kappa", 0.4));
  dataflow::HarnessOptions options;
  // Tiled parallel event engine; every value produces bit-identical
  // results (the default stays serial).
  options.execution.threads = static_cast<i32>(cli.get_int("threads", 1));
  // Seeded fault scenario (same rate for all three fault classes); a
  // given seed/rate is bit-for-bit reproducible across --threads values.
  const f64 fault_rate = cli.get_double("fault-rate", 0.0);
  options.execution.fault = wse::FaultConfig::uniform(
      static_cast<u64>(cli.get_int("fault-seed", 1)), fault_rate);
  // Restrict bit flips to the halo colors the retransmit layer protects.
  options.execution.fault.flip_color_mask = 0x00FFu;
  // Static lint level and dynamic hazard detector (both off by default).
  dataflow::apply_verification_flags(options, cli);

  std::cout << "Leapfrog acoustic wave on a " << nx << "x" << ny
            << " fabric, " << steps << " timesteps, 11-point operator "
            << "(4 diagonal couplings per layer)\n";
  const core::DataflowWaveResult result = spec::run(
      core::wave_launch(stencil, pulse, kernel), options, core::gather_wave);
  if (fault_rate > 0.0) {
    const wse::FaultStats& fs = result.faults;
    std::cout << "Fault injection: " << fs.injected() << " injected ("
              << fs.stalls_injected << " stalls, " << fs.flips_injected
              << " flips, " << fs.halts_injected << " halts), "
              << fs.detected() << " detected, " << fs.recovered()
              << " recovered, " << fs.unrecovered() << " unrecovered\n";
  }
  dataflow::print_hazard_summary(result, options.execution.hazard_check,
                                 std::cout);
  if (!result.ok()) {
    std::cerr << "run failed: " << result.errors[0] << "\n";
    return 1;
  }

  const Array3<f32> host = core::wave_reference_host(
      stencil, pulse, kernel.kappa, steps);
  f64 err = 0.0, scale = 0.0, energy = 0.0;
  for (i64 i = 0; i < host.size(); ++i) {
    err = std::max(err,
                   std::abs(static_cast<f64>(result.field[i]) - host[i]));
    scale = std::max(scale, std::abs(static_cast<f64>(host[i])));
    energy += static_cast<f64>(result.field[i]) * result.field[i];
  }

  TextTable table({"metric", "value"}, {Align::Left, Align::Right});
  table.add_row({"field L2 energy", format_fixed(std::sqrt(energy), 4)});
  table.add_row({"max |fabric - host| / max|host|",
                 format_fixed(err / scale, 8)});
  table.add_row({"simulated device time",
                 format_fixed(result.device_seconds * 1e6, 1) + " us"});
  table.add_row({"fabric wavelets",
                 format_count(static_cast<i64>(
                     result.counters.wavelets_sent))});
  std::cout << table.render();

  if (!out.empty()) {
    io::write_vtk(out, problem.mesh(), {{"wavefield", &result.field}});
    std::cout << "Wrote " << out << "\n";
  }
  return err < scale * 1e-3 ? 0 : 1;
}
