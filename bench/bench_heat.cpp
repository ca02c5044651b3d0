// Heat-diffusion bench: the spec-only 9-point kernel on the simulated
// fabric, tracked by the bench_compare regression gate. Every recorded
// number is a simulated-device quantity (cycles, instruction counters,
// wavelets) — deterministic across machines — so the committed baseline
// gates with the default tight tolerance. The run also bit-compares the
// fabric field against the host mirror: a lowering regression fails the
// bench before it can shift the baseline.
//
//   ./bench_heat [--fabric 12] [--nz-low 12] [--iterations 8]
//                [--threads N] [--json-dir out]
#include "bench/bench_common.hpp"
#include "spec/heat.hpp"

namespace fvf::bench {
namespace {

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  BenchScale scale = BenchScale::from_cli(cli);
  if (!cli.has("fabric")) {
    scale.fabric = 12;
  }
  if (!cli.has("iterations")) {
    scale.iterations = 8;
  }
  BenchJsonWriter json("heat", cli);

  print_header("9-point heat diffusion (spec-compiled kernel)");
  const Extents3 extents{scale.fabric, scale.fabric, scale.nz_low};
  const Array3<f32> initial = spec::heat_initial_field(extents, scale.seed);

  spec::HeatKernelOptions kernel;
  kernel.steps = static_cast<i32>(scale.iterations);
  dataflow::HarnessOptions options;
  options.execution = scale.execution();
  const spec::DataflowHeatResult result =
      spec::run(spec::heat_launch(initial, kernel), options, spec::gather_heat);
  if (!result.ok()) {
    std::cerr << "run failed: " << result.errors[0] << '\n';
    return 1;
  }

  // Correctness guard: the generated program must reproduce the host
  // mirror bit-for-bit before its perf numbers mean anything.
  const Array3<f32> host = spec::heat_reference_host(initial, kernel);
  i64 mismatches = 0;
  for (i64 i = 0; i < host.size(); ++i) {
    if (result.field[i] != host[i]) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " host-mirror mismatch(es); not recording perf numbers\n";
    return 1;
  }

  const f64 cells = static_cast<f64>(extents.cell_count());
  TextTable table(
      {"fabric", "steps", "sim cycles", "wavelets", "scalar ops/cell"});
  table.add_row(
      {std::to_string(scale.fabric) + "x" + std::to_string(scale.fabric),
       std::to_string(result.steps_completed),
       format_fixed(result.makespan_cycles, 0),
       format_count(static_cast<i64>(result.counters.wavelets_sent)),
       format_fixed(static_cast<f64>(result.counters.scalar_misc) / cells,
                    1)});
  std::cout << table.render();

  json.add_case("heat_" + std::to_string(scale.fabric) + "x" +
                    std::to_string(scale.fabric) + "x" +
                    std::to_string(scale.nz_low),
                result);
  json.add_metric("steps_completed",
                  static_cast<f64>(result.steps_completed));
  json.add_metric("host_mirror_mismatches", static_cast<f64>(mismatches));
  return 0;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
