// The whole IMPES loop on the simulated wafer-scale engine: the lagged
// pressure system is solved by the fabric CG program and the saturation
// transport advances as a fabric program with a global-minimum CFL
// all-reduce — the host only reassembles coefficients between windows,
// mirroring the paper's "the host is only used to schedule the workload"
// (Section 7.1) and realizing its Section 9 future work.
//
//   ./fabric_impes_demo [--nx 8] [--ny 8] [--nz 2] [--windows 4]
//                       [--threads N] [--fault-seed S --fault-rate R]
//                       [--lint off|warn|strict] [--hazard-check]
//
// --fault-rate > 0 runs every window's CG + transport launch under
// seeded fault injection (both pipelines auto-enable the halo
// ack/retransmit layer).
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/fabric_impes.hpp"
#include "dataflow/harness_cli.hpp"
#include "physics/problem.hpp"

int main(int argc, const char** argv) {
  using namespace fvf;
  const CliParser cli(argc, argv);
  const i32 nx = static_cast<i32>(cli.get_int("nx", 8));
  const i32 ny = static_cast<i32>(cli.get_int("ny", 8));
  const i32 nz = static_cast<i32>(cli.get_int("nz", 2));
  const i32 windows = static_cast<i32>(cli.get_int("windows", 4));
  const f64 window_s = cli.get_double("window", 900.0);
  const f64 rate = cli.get_double("rate", 2e-4);

  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
  spec.geomodel = physics::GeomodelKind::Homogeneous;
  spec.seed = static_cast<u64>(cli.get_int("seed", 42));
  const physics::FlowProblem problem(spec);

  core::FabricImpesOptions options;
  // Tiled parallel event engine + seeded fault scenario, as for the
  // single-kernel demos; bit-for-bit reproducible across --threads.
  wse::ExecutionOptions& execution = options.harness.execution;
  execution.threads = static_cast<i32>(cli.get_int("threads", 1));
  execution.fault = wse::FaultConfig::uniform(
      static_cast<u64>(cli.get_int("fault-seed", 1)),
      cli.get_double("fault-rate", 0.0));
  // Restrict bit flips to the halo colors the retransmit layer protects.
  execution.fault.flip_color_mask = 0x00FFu;
  // Static lint level and dynamic hazard detector, applied to both fabric
  // launches of every window (the shared flag plumbing of the
  // single-kernel demos).
  dataflow::apply_verification_flags(options.harness, cli);
  core::FabricImpesSimulator sim(problem, options);
  const Coord3 well{nx / 2, ny / 2, 0};
  sim.add_well(well, rate);

  std::cout << "IMPES entirely on the fabric: " << problem.describe()
            << "\nInjector at (" << well.x << ',' << well.y << ',' << well.z
            << "), " << rate << " m^3/s, " << windows << " windows of "
            << window_s << " s\n\n";

  TextTable table({"window", "CG its", "substeps", "CO2 in place [m^3]",
                   "well-cell S", "fabric time [us]"});
  f64 time = 0.0;
  u64 hazards = 0;
  for (i32 w = 1; w <= windows; ++w) {
    const core::FabricImpesWindow report = sim.advance_window(window_s);
    time += window_s;
    hazards += report.hazards;
    if (!report.cg_converged) {
      std::cerr << "pressure solve failed in window " << w << "\n";
      return 1;
    }
    table.add_row({std::to_string(w), std::to_string(report.cg_iterations),
                   std::to_string(report.transport_substeps),
                   format_fixed(sim.co2_in_place(), 4),
                   format_fixed(sim.saturation()(well.x, well.y, well.z), 4),
                   format_fixed(report.device_seconds * 1e6, 1)});
  }
  std::cout << table.render();
  if (execution.hazard_check) {
    std::cout << "hazard check: "
              << (hazards == 0 ? "clean" : std::to_string(hazards) +
                                               " finding(s)")
              << " across " << windows << " windows\n";
  }

  const f64 injected = rate * time;
  const f64 error = std::abs(sim.co2_in_place() - injected) / injected;
  std::cout << "\nInjected " << format_fixed(injected, 4)
            << " m^3; in place " << format_fixed(sim.co2_in_place(), 4)
            << " m^3 (volume-balance error "
            << format_fixed(100.0 * error, 3) << "%)\n";
  return error < 0.02 ? 0 : 1;
}
