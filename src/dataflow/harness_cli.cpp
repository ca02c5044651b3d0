#include "dataflow/harness_cli.hpp"

#include <ostream>
#include <string>

#include "common/assert.hpp"
#include "common/cli.hpp"

namespace fvf::dataflow {

void apply_verification_flags(HarnessOptions& options, const CliParser& cli) {
  options.execution.hazard_check = cli.has("hazard-check");
  const std::string level = cli.get_string("lint", "off");
  if (level == "off") {
    options.lint = lint::Level::Off;
  } else if (level == "warn") {
    options.lint = lint::Level::Warn;
  } else if (level == "strict") {
    options.lint = lint::Level::Strict;
  } else {
    FVF_FAIL("unknown --lint level '" << level
                                      << "' (expected off|warn|strict)");
  }
}

void print_hazard_summary(const RunInfo& info, bool enabled,
                          std::ostream& out) {
  if (!enabled) {
    return;
  }
  if (info.hazards_total == 0) {
    out << "hazard check: clean\n";
    return;
  }
  out << "hazard check: " << info.hazards_total << " finding(s)\n";
  for (const std::string& hazard : info.hazards) {
    out << "  " << hazard << '\n';
  }
  if (info.hazards_suppressed > 0) {
    out << "  (" << info.hazards_suppressed
        << " further finding(s) past the recording cap)\n";
  }
}

}  // namespace fvf::dataflow
