/// \file harness_cli.hpp
/// \brief Shared CLI plumbing for the verification flags every
///        fabric-facing binary exposes.
///
/// All demos and benches accept the same two switches:
///
///   --lint off|warn|strict   static fabric-program verification level
///                            applied at load (fvf::lint); default off
///   --hazard-check           dynamic simulated-memory hazard detector
///                            (receive-into-live-buffer, overlapping
///                            DSD read/write); off by default and
///                            bit-identical to a run without it
///
/// Parsing them once here keeps the flag names, defaults, and error
/// text identical across binaries.
#pragma once

#include <iosfwd>

#include "dataflow/run_info.hpp"

namespace fvf {
class CliParser;
}  // namespace fvf

namespace fvf::dataflow {

/// Applies `--lint` and `--hazard-check` to `options`. Throws
/// ContractViolation when `--lint` names an unknown level.
void apply_verification_flags(HarnessOptions& options, const CliParser& cli);

/// Prints the run's hazard findings to `out`: one line per recorded
/// hazard plus a suppression note, or a "clean" line when the detector
/// flagged nothing. No-op when `enabled` is false (detector off).
void print_hazard_summary(const RunInfo& info, bool enabled,
                          std::ostream& out);

}  // namespace fvf::dataflow
