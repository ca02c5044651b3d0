// Ablation of Section 5.3.1: PE-memory buffer reuse. With reuse, four
// scratch columns are cycled like hand-allocated registers; without it,
// every intermediate of the 13-operation face kernel gets its own column.
// The reward is the maximum column depth (mesh Nz) that fits in a 48 KiB
// PE — the paper's "largest possible problem".
#include "bench/bench_common.hpp"
#include "core/tpfa_program.hpp"
#include "spec/compile.hpp"

namespace fvf::bench {
namespace {

/// The TPFA spec with or without buffer reuse.
spec::CompiledSpec tpfa_spec(bool reuse) {
  core::TpfaKernelOptions options;
  options.reuse_buffers = reuse;
  return spec::compile(core::make_tpfa_spec(options));
}

/// Bytes the spec declares per PE at depth `nz`, code included.
usize footprint(const spec::CompiledSpec& tpfa, i32 nz) {
  return tpfa.data_footprint_bytes(nz) + tpfa.code_footprint_bytes();
}

i32 max_depth(const spec::CompiledSpec& tpfa) {
  i32 best = 0;
  for (i32 nz = 1; nz <= 512; ++nz) {
    if (footprint(tpfa, nz) <= wse::PeMemory::kDefaultBudget) {
      best = nz;
    }
  }
  return best;
}

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const BenchScale scale = BenchScale::from_cli(cli);

  print_header("Ablation: PE-memory buffer reuse (Section 5.3.1)");

  const spec::CompiledSpec reused = tpfa_spec(true);
  const spec::CompiledSpec unreused = tpfa_spec(false);
  TextTable table({"Nz", "footprint w/ reuse", "footprint w/o reuse",
                   "fits 48 KiB (reuse / no reuse)"});
  for (const i32 nz : {32, 64, 128, 202, 203, 246, 247}) {
    const usize with = footprint(reused, nz);
    const usize without = footprint(unreused, nz);
    const auto fits = [](usize b) {
      return b <= wse::PeMemory::kDefaultBudget ? "yes" : "NO";
    };
    table.add_row({std::to_string(nz), format_bytes(with),
                   format_bytes(without),
                   std::string(fits(with)) + " / " + fits(without)});
  }
  std::cout << table.render();

  const i32 depth_reuse = max_depth(reused);
  const i32 depth_no_reuse = max_depth(unreused);
  std::cout << "Maximum column depth: " << depth_reuse
            << " with reuse (paper's largest mesh: Nz = 246), "
            << depth_no_reuse << " without ("
            << format_fixed(100.0 * (depth_reuse - depth_no_reuse) /
                                static_cast<f64>(depth_no_reuse),
                            1)
            << "% deeper problems thanks to reuse)\n";

  // Reuse is memory-only: identical numerics and cycle counts.
  const Extents3 ext{scale.fabric, scale.fabric, scale.nz_low};
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(ext, scale.seed);
  core::DataflowOptions with;
  with.iterations = scale.iterations;
  core::DataflowOptions without = with;
  without.kernel.reuse_buffers = false;
  const core::DataflowResult a = core::run_dataflow_tpfa(problem, with);
  const core::DataflowResult b = core::run_dataflow_tpfa(problem, without);
  if (!a.ok() || !b.ok()) {
    std::cerr << "run failed\n";
    return 1;
  }
  i64 mismatches = 0;
  for (i64 i = 0; i < a.residual.size(); ++i) {
    mismatches += (a.residual[i] != b.residual[i]);
  }
  std::cout << "Peak PE memory: " << format_bytes(a.max_pe_memory)
            << " with reuse vs " << format_bytes(b.max_pe_memory)
            << " without; residual mismatches: " << mismatches
            << " (must be 0)\n";
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
