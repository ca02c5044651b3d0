// Host memory and time of a TPFA fabric launch, stage by stage: live heap
// bytes per PE (a counting operator new), the process's resident set and
// the stage's wall seconds for the problem build, the strict-lint load,
// the memoized load and the run.
// Section 5.3.1 of the paper keeps per-PE device memory small; this is the
// simulator's host-side counterpart, to set against the 43 words per cell
// the TPFA spec declares.
//
//   bench_host_memory [--nx 256] [--ny 256] [--nz 12] [--threads 1]
//                     [--iterations 2] [--seed 2] [--json-dir .]
//
// The run's record carries the event queue's high-water depth and the
// payload arenas' reserved bytes, printed under the stage table. Writes
// BENCH_host_memory.json: one case per stage plus those two figures. They
// depend on the C library's allocator and the host, so no baseline of
// them is committed.
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench/bench_common.hpp"
#include "bench/counting_new.hpp"
#include "common/timer.hpp"
#include "wse/router.hpp"

namespace fvf::bench {
namespace {

/// One field of /proc/self/status in MB (VmRSS: resident now; VmHWM:
/// peak resident).
f64 status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

struct Stage {
  std::string name;
  /// Heap bytes the stage leaves live, per PE, over the stage's start.
  f64 held_per_pe = 0.0;
  /// Peak heap bytes during the stage, per PE, over the stage's start.
  f64 peak_per_pe = 0.0;
  f64 rss_mb = 0.0;
  f64 hwm_mb = 0.0;
  f64 seconds = 0.0;
};

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const Extents3 ext{static_cast<i32>(cli.get_int("nx", 256)),
                     static_cast<i32>(cli.get_int("ny", 256)),
                     static_cast<i32>(cli.get_int("nz", 12))};
  core::TpfaKernelOptions kernel;
  kernel.iterations = static_cast<i32>(cli.get_int("iterations", 2));
  dataflow::HarnessOptions options;
  options.execution.threads = static_cast<i32>(cli.get_int("threads", 1));
  const u64 seed = static_cast<u64>(cli.get_int("seed", 2));
  const f64 pes = static_cast<f64>(ext.nx) * static_cast<f64>(ext.ny);

#ifdef FVF_SANITIZED_ALLOCATOR
  std::cerr << "warning: the sanitizer runtime owns operator new; heap "
               "figures read zero\n";
#endif
  std::vector<Stage> stages;
  long long start = 0;
  WallTimer timer;
  const auto begin = [&] {
    start = counting::live_bytes();
    counting::reset_peak();
    timer.reset();
  };
  const auto end = [&](std::string name) {
    const f64 seconds = timer.seconds();
    stages.push_back(
        {std::move(name),
         static_cast<f64>(counting::live_bytes() - start) / pes,
         static_cast<f64>(counting::peak_bytes() - start) / pes,
         status_mb("VmRSS"), status_mb("VmHWM"), seconds});
  };

  print_header("Host memory of a TPFA launch: " + std::to_string(ext.nx) +
               "x" + std::to_string(ext.ny) + "x" + std::to_string(ext.nz) +
               ", " + std::to_string(options.execution.threads) +
               " thread(s)");
  begin();
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(ext, seed);
  end("problem build");
  {
    // The first load of a shape runs the mandatory strict lint and
    // memoizes the pass.
    begin();
    const spec::Load<> strict =
        spec::load(core::tpfa_launch(problem, kernel), options);
    end("strict-lint load");
  }
  begin();
  std::optional<spec::Load<>> load;
  load.emplace(spec::load(core::tpfa_launch(problem, kernel), options));
  end("memoized load");
  begin();
  const dataflow::RunInfo report = load->harness->run();
  end("run");
  if (!report.ok()) {
    std::cerr << "run failed: " << report.errors.front() << '\n';
    return 1;
  }
  load.reset();

  // The router array is mapped outside the heap (MappedAllocator); its
  // bytes are listed beside the loads' heap figures, not inside them.
  TextTable table({"stage", "held heap B/PE", "peak heap B/PE", "RSS MB",
                   "peak RSS MB", "wall s"});
  BenchJsonWriter json("host_memory", cli);
  for (const Stage& stage : stages) {
    table.add_row({stage.name, format_fixed(stage.held_per_pe, 0),
                   format_fixed(stage.peak_per_pe, 0),
                   format_fixed(stage.rss_mb, 1),
                   format_fixed(stage.hwm_mb, 1),
                   format_fixed(stage.seconds, 3)});
    json.add_case(stage.name);
    json.add_metric("held_heap_bytes_per_pe", stage.held_per_pe);
    json.add_metric("peak_heap_bytes_per_pe", stage.peak_per_pe);
    json.add_metric("rss_mb", stage.rss_mb);
    json.add_metric("peak_rss_mb", stage.hwm_mb);
    json.add_metric("seconds", stage.seconds);
  }
  json.add_case("run host state");
  json.add_metric("event_queue_high_water",
                  static_cast<f64>(report.event_queue_high_water));
  json.add_metric("payload_arena_bytes",
                  static_cast<f64>(report.payload_arena_bytes));
  json.add_metric("windows_stepped",
                  static_cast<f64>(report.windows_stepped));
  json.add_metric("payloads_rehomed",
                  static_cast<f64>(report.payloads_rehomed));
  std::cout << table.render();
  std::cout << "Router array (mapped, outside the heap): "
            << sizeof(wse::Router) << " B/PE; device cycles "
            << format_fixed(report.makespan_cycles, 1) << "\n"
            << "Run: event queue high water "
            << report.event_queue_high_water << " events; payload arenas "
            << format_fixed(static_cast<f64>(report.payload_arena_bytes) /
                                (1024.0 * 1024.0),
                            1)
            << " MB reserved; " << report.windows_stepped
            << " windows stepped; " << report.payloads_rehomed
            << " payloads re-homed\n";
  return 0;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
