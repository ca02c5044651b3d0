// Extension bench: the full IMPES loop on the simulated WSE (paper
// Section 9 future work, end to end). Sweeps the fabric size and reports
// the simulated device time of the pressure (CG) and transport kernels,
// plus the volume-balance quality of the distributed explicit transport.
#include "bench/bench_common.hpp"
#include "core/fabric_impes.hpp"

namespace fvf::bench {
namespace {

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const BenchScale scale = BenchScale::from_cli(cli);
  BenchJsonWriter json("extension_impes", cli);
  const i32 nz = static_cast<i32>(cli.get_int("nz", 2));
  const i32 windows = static_cast<i32>(cli.get_int("windows", 3));
  const f64 window_s = cli.get_double("window", 900.0);
  const f64 rate = cli.get_double("rate", 2e-4);

  print_header("Extension: IMPES entirely on the fabric");
  TextTable table({"fabric", "cells", "CG its/window", "substeps/window",
                   "device time/window", "volume error"});
  for (const i32 n : {4, 6, 8}) {
    physics::ProblemSpec spec;
    spec.extents = Extents3{n, n, nz};
    spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
    spec.geomodel = physics::GeomodelKind::Homogeneous;
    spec.seed = 42;
    const physics::FlowProblem problem(spec);

    core::FabricImpesOptions options;
    // --threads / --fault-seed / --fault-rate drive both fabric kernels
    // of every window (reliability auto-enables under faults).
    options.harness.execution = scale.execution();
    core::FabricImpesSimulator sim(problem, options);
    sim.add_well(Coord3{n / 2, n / 2, 0}, rate);

    i64 cg_its = 0;
    i64 substeps = 0;
    f64 device = 0.0;
    for (i32 w = 0; w < windows; ++w) {
      const core::FabricImpesWindow report = sim.advance_window(window_s);
      if (!report.cg_converged) {
        std::cerr << "pressure solve failed at fabric " << n << '\n';
        return 1;
      }
      cg_its += report.cg_iterations;
      substeps += report.transport_substeps;
      device += report.device_seconds;
    }
    const f64 injected = rate * window_s * windows;
    const f64 error =
        std::abs(sim.co2_in_place() - injected) / injected;
    table.add_row(
        {std::to_string(n) + "x" + std::to_string(n),
         format_count(problem.cell_count()),
         format_fixed(static_cast<f64>(cg_its) / windows, 1),
         format_fixed(static_cast<f64>(substeps) / windows, 1),
         format_fixed(device / windows * 1e6, 1) + " us",
         format_fixed(100.0 * error, 4) + "%"});
    BenchJsonCase& c = json.add_case("fabric_" + std::to_string(n) + "x" +
                                     std::to_string(n));
    c.device_seconds = device;
    json.add_metric("windows", static_cast<f64>(windows));
    json.add_metric("cg_iterations", static_cast<f64>(cg_its));
    json.add_metric("transport_substeps", static_cast<f64>(substeps));
    json.add_metric("volume_error", error);
  }
  std::cout << table.render();
  std::cout << "Pressure (fabric CG) dominates; transport adds one halo\n"
               "exchange + one MIN all-reduce per sub-step. The volume\n"
               "error column shows the distributed explicit transport is\n"
               "conservative.\n";
  return 0;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
