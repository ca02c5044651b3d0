#include "dataflow/fabric_harness.hpp"

#include <iostream>
#include <sstream>

#include "obs/perfetto.hpp"

namespace fvf::dataflow {

HarnessOptions FabricHarness::effective(HarnessOptions options) {
  if (!options.trace_json_path.empty()) {
    // Exporting a timeline needs spans: phase attribution alone only
    // accumulates totals. Leave explicit capacities alone.
    if (options.execution.phase_span_capacity == 0) {
      options.execution.phase_span_capacity = 1u << 14;
    }
  }
  return options;
}

FabricHarness::FabricHarness(Coord2 extents, const HarnessOptions& options)
    : extents_(extents),
      options_(effective(options)),
      fabric_(extents.x, extents.y, options_.timings, options_.pe_memory_budget,
              options_.execution) {
  if (options_.trace == nullptr && !options_.trace_json_path.empty()) {
    // Keep-latest so a long run still shows its final iterations in the
    // exported timeline rather than an empty tail.
    owned_trace_ = std::make_unique<wse::TraceRecorder>(
        usize{1} << 20, wse::TraceRecorder::Mode::KeepLatest);
    options_.trace = owned_trace_.get();
  }
  if (options_.trace != nullptr) {
    fabric_.set_tracer(*options_.trace);
  }
}

lint::Options FabricHarness::lint_options(bool full) const {
  lint::Options options;
  options.check_routing = full;
  options.check_memory = full;
  options.check_reconfiguration = full;
  // Flow analyses (buffer bounds, cross-color deadlock, determinism)
  // compare against the loaded fabric's own router_buffer_depth
  // (router_buffer_depth = 0 in lint::Options), and the memory check
  // against each PE's own budget (memory_budget = 0).
  options.check_flow = full;
  options.color_claimed = [this](wse::Color c) { return colors_.claimed(c); };
  options.color_map = [this] { return colors_.describe(); };
  options.color_label = [this](wse::Color c) {
    std::ostringstream os;
    os << "color " << static_cast<int>(c.id());
    const std::string_view owner = colors_.owner_of(c);
    if (!owner.empty()) {
      os << " ('" << owner << "')";
    }
    return os.str();
  };
  return options;
}

void FabricHarness::verify_load() const {
  const bool full = options_.lint != lint::Level::Off;
  const lint::Report report = lint::run(fabric_, lint_options(full));
  // A configured-but-unclaimed color fails the load at every lint level:
  // that fail-fast contract predates the linter, and a silently
  // misrouted color is never survivable.
  for (const lint::Diagnostic& d : report.diagnostics) {
    if (d.check == lint::Check::UnclaimedColor) {
      throw ContractViolation(d.message);
    }
  }
  if (report.clean()) {
    return;
  }
  if (options_.lint == lint::Level::Strict && report.error_count() > 0) {
    throw ContractViolation(
        "fabric program failed static verification (--lint=strict):\n" +
        report.describe());
  }
  if (options_.lint != lint::Level::Off) {
    std::cerr << "fvf::lint: " << report.error_count() << " error(s), "
              << report.warning_count() << " warning(s)\n"
              << report.describe();
  }
}

lint::Report FabricHarness::lint_report() const {
  FVF_REQUIRE_MSG(fabric_.pe(0, 0).program() != nullptr,
                  "FabricHarness::lint_report requires a prior load()");
  return lint::run(fabric_, lint_options(/*full=*/true));
}

RunInfo FabricHarness::run(u64 max_events) {
  RunInfo info = fabric_.run(max_events);
  if (!options_.trace_json_path.empty()) {
    if (!obs::write_perfetto_json(options_.trace_json_path, fabric_,
                                  options_.trace)) {
      std::cerr << "warning: could not write trace timeline to "
                << options_.trace_json_path << "\n";
    }
  }
  return info;
}

}  // namespace fvf::dataflow
