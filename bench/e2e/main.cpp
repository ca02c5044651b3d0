// End-to-end benchmark: one workload per process (so peak RSS is the
// workload's own), set-up timed as often as the workload can repeat it,
// scenarios timed for --seconds, every result checked against its oracle.
//
//   bench_e2e --workload <name> [--seed 1] [--seconds 10]
//             [--trace 0 | --trace 1 --spans <trace.json>]
//             [--out <result.json>] [--smoke]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. Exit status is 0 only
// when every check passed.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "e2e.hpp"
#include "workloads.hpp"

namespace {

using namespace fvf;
using namespace fvf::e2e;

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across exec, so it would report the
/// launching shell's or harness's peak whenever that one is larger.
f64 peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_metrics(const Report& report) {
  for (const auto* catalog : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *catalog) {
      const auto it = report.metrics.find(std::string(def.name));
      if (it != report.metrics.end()) {
        std::cout << "  " << def.name << " = " << format_number(it->second)
                  << ' ' << def.unit << '\n';
      }
    }
  }
  for (const auto& [key, value] : report.notes) {
    std::cout << "  [" << key << "] " << value << '\n';
  }
}

void write_out(const std::string& path, const Report& report,
               const std::string& workload, u64 seed, f64 seconds) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"seconds\": " << format_number(seconds)
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << format_number(value) << ", \"unit\": \"" << unit_of(name)
        << "\"}";
    first = false;
  }
  out << "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : report.notes) {
    out << (first ? "" : ", ") << '"' << key << "\": \"" << value << '"';
    first = false;
  }
  out << "}}\n";
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const std::string workload_name = cli.get_string("workload", "");
  const i64 seed = cli.get_int("seed", 1);
  const f64 seconds = cli.get_double("seconds", 10.0);
  const i64 trace = cli.get_int("trace", 0);
  const bool smoke = cli.has("smoke");
  const std::string spans_path = cli.get_string("spans", "");
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::cerr << "bench_e2e: --seed must be >= 0, --seconds > 0, --trace 0|1\n";
    return 2;
  }
  if (trace == 1 && spans_path.empty()) {
    std::cerr << "bench_e2e: --trace 1 needs --spans <trace.json>\n";
    return 2;
  }
  std::unique_ptr<Workload> workload =
      make_workload(workload_name, static_cast<u64>(seed), smoke);
  if (workload == nullptr) {
    std::cerr << "bench_e2e: --workload must be one of:";
    for (const std::string& name : workload_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 2;
  }

  SpanLog spans(trace == 1);
  Report report;
  const std::vector<f64> setups = workload->setup(spans);
  report.set("setup_s", median(setups));
  report.note("setup_s.samples", join_numbers(setups));

  workload->run(seconds, spans, report);
  report.set("peak_rss_mb", peak_rss_mb());

  if (spans.enabled()) {
    if (!write_chrome_trace(spans_path, spans.snapshot(),
                            "bench_e2e " + workload_name)) {
      throw std::runtime_error("cannot write span trace " + spans_path);
    }
    report.note("trace.file", spans_path);
  }
  if (const auto out = cli.value("out")) {
    write_out(*out, report, workload_name, static_cast<u64>(seed), seconds);
  }

  std::cout << workload_name << " seed " << seed << ": " << report.attempted
            << " attempted, " << report.failed << " failed\n";
  print_metrics(report);
  for (const std::string& failure : report.failures) {
    std::cout << "FAILED: " << failure << '\n';
  }
  std::cout << result_line(report, trace == 1) << std::endl;
  return report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, const char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << '\n';
    return 1;
  }
}
