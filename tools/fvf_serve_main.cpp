// fvf_serve — scenario-service front-end of the simulator.
//
// Reads scenario request lines (request.hpp grammar: `program=<kernel>
// nx=8 seed=7 threads=4 ...`, one request per line, `#` comments) from
// --requests <file> and/or positional arguments, submits all of them to
// a ScenarioService, waits for every response, and prints one status
// line per request plus machine-readable service stats.
//
//   fvf_serve --requests scenarios.txt [--workers 2]
//             [--queue-capacity 64] [--checkpoint-dir dir]
//             [--backend auto|wse|gpusim]
//             [--stats-json out.json] [--print-responses]
//
// --backend sets the default execution backend for request lines that
// don't carry their own `backend=` field (auto routes background
// requests to gpusim); unknown values fail loudly with the inventory.
//
// Exit codes: 0 every response Ok, 1 at least one request failed / was
// shed / missed its deadline, 2 usage or parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "common/cli.hpp"
#include "serve/service.hpp"

namespace {

using namespace fvf;

std::vector<std::string> request_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const usize first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

void write_stats_json(std::ostream& os, const serve::ServiceStats& stats) {
  os << "{\n"
     << "  \"submitted\": " << stats.submitted << ",\n"
     << "  \"completed\": " << stats.completed << ",\n"
     << "  \"failed\": " << stats.failed << ",\n"
     << "  \"shed\": " << stats.shed << ",\n"
     << "  \"deadline_expired\": " << stats.deadline_expired << ",\n"
     << "  \"cache_hits\": " << stats.memo.hits << ",\n"
     << "  \"cache_misses\": " << stats.memo.misses << ",\n"
     << "  \"cache_hit_rate\": " << stats.memo.hit_rate() << ",\n"
     << "  \"coalesced\": " << stats.coalesced << ",\n"
     << "  \"queue_depth\": " << stats.queue_depth << ",\n"
     << "  \"max_queue_depth\": " << stats.max_queue_depth << ",\n"
     << "  \"latency_p50_ms\": " << stats.latency_p50_ms << ",\n"
     << "  \"latency_p99_ms\": " << stats.latency_p99_ms << ",\n"
     << "  \"cold_simulations\": " << stats.executor.simulations << ",\n"
     << "  \"problem_cache_hit_rate\": " << stats.executor.problems.hit_rate()
     << ",\n"
     << "  \"problem_cache_evictions\": " << stats.executor.problems.evictions
     << ",\n"
     << "  \"setup_cache_hit_rate\": " << stats.executor.setups.hit_rate()
     << ",\n"
     << "  \"setup_cache_evictions\": " << stats.executor.setups.evictions
     << ",\n"
     << "  \"lint_cache_evictions\": " << stats.executor.lint.evictions
     << ",\n"
     << "  \"checkpoints_saved\": " << stats.executor.checkpoints_saved
     << ",\n"
     << "  \"resumes\": " << stats.executor.resumes << "\n"
     << "}\n";
}

}  // namespace

int main(int argc, const char** argv) {
  try {
    const CliParser cli(argc, argv);
    std::vector<std::string> lines;
    if (cli.has("requests")) {
      lines = request_lines(cli.get_string("requests", ""));
    }
    for (const std::string& arg : cli.positional()) {
      lines.push_back(arg);
    }
    if (lines.empty()) {
      std::cerr << "usage: fvf_serve --requests <file> [--workers 2]\n"
                   "       [--queue-capacity 64] [--cache-entries 1024]\n"
                   "       [--checkpoint-dir dir]\n"
                   "       [--backend auto|" << api::backend_name_list()
                << "]\n"
                   "       [--stats-json out.json] [--print-responses]\n"
                   "       [\"program=<kernel> nx=8 seed=7\" ...]\n";
      return 2;
    }

    // Default backend for lines without their own backend= field. The
    // value is validated up front: an unknown spelling aborts before any
    // request is submitted, listing the registered backends.
    const std::string backend = cli.get_string("backend", "auto");
    if (backend != "auto") {
      (void)api::parse_backend(backend);
    }
    for (std::string& line : lines) {
      if (line.find("backend") == std::string::npos && backend != "auto") {
        line += " backend=" + backend;
      }
    }

    serve::ServiceOptions options;
    options.workers = static_cast<i32>(cli.get_int("workers", 2));
    options.queue_capacity = static_cast<usize>(
        cli.get_int("queue-capacity", static_cast<i64>(options.queue_capacity)));
    options.cache_entries = static_cast<usize>(
        cli.get_int("cache-entries", static_cast<i64>(options.cache_entries)));
    options.checkpoint_dir = cli.get_string("checkpoint-dir", "");
    const bool print_responses = cli.get_bool("print-responses", false);

    serve::ScenarioService service(options);
    std::vector<std::shared_future<serve::ScenarioResponse>> futures;
    futures.reserve(lines.size());
    for (const std::string& line : lines) {
      futures.push_back(service.submit_line(line));
    }
    if (options.workers == 0) {
      service.drain();
    }

    usize not_ok = 0;
    for (usize i = 0; i < futures.size(); ++i) {
      const serve::ScenarioResponse& response = futures[i].get();
      if (!response.ok()) {
        ++not_ok;
      }
      std::ostringstream hash;
      hash << std::hex << response.scenario_hash;
      std::cout << serve::status_name(response.status) << "  scenario="
                << hash.str()
                << (response.cache_hit ? " [memo]"
                    : response.coalesced ? " [coalesced]"
                    : response.resumed   ? " [resumed]"
                                         : "")
                << "  " << lines[i] << "\n";
      if (!response.error.empty()) {
        std::cout << "      " << response.error << "\n";
      }
      if (print_responses && response.ok()) {
        std::cout << serve::serialize_response(response);
      }
    }

    const serve::ServiceStats stats = service.stats();
    // Responses, not jobs: a coalesced waiter got an ok answer even
    // though stats.completed counts the one shared execution once.
    std::cout << "\nserved " << stats.submitted << " request(s): "
              << futures.size() - not_ok << " ok, " << stats.failed
              << " failed, "
              << stats.shed << " shed, " << stats.deadline_expired
              << " deadline-expired; cache hit rate "
              << stats.memo.hit_rate() << ", p50 " << stats.latency_p50_ms
              << " ms, p99 " << stats.latency_p99_ms << " ms\n";
    if (cli.has("stats-json")) {
      std::ofstream out(cli.get_string("stats-json", ""));
      if (!out.good()) {
        throw std::runtime_error("cannot write stats json");
      }
      write_stats_json(out, stats);
    }
    return not_ok == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fvf_serve: " << e.what() << "\n";
    return 2;
  }
}
