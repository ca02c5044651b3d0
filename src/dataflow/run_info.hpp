/// \file run_info.hpp
/// \brief Shared launch options and run accounting of the fvf::dataflow
///        runtime (Layer 2 data types).
///
/// Every program pipeline used to re-plumb timings/execution/trace/memory
/// options into the fabric by hand and copy a drifting subset of the
/// RunReport into its own result struct. HarnessOptions and RunInfo are
/// the single definitions both sides share: every launch takes one
/// HarnessOptions, every fabric result embeds RunInfo, and
/// FabricHarness::run fills the whole RunInfo for every program alike.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dataflow/color_plan.hpp"
#include "lint/lint.hpp"
#include "obs/phase.hpp"
#include "wse/fabric.hpp"

namespace fvf::dataflow {

/// Fabric launch configuration common to every dataflow program.
struct HarnessOptions {
  wse::FabricTimings timings{};
  wse::ExecutionOptions execution{};
  usize pe_memory_budget = wse::PeMemory::kDefaultBudget;
  /// Static verification level applied after load (fvf::lint). Off runs
  /// only the historic unclaimed-color audit; Warn runs every check and
  /// prints findings to stderr; Strict fails the load on any
  /// error-severity finding. Unclaimed colors fail the load at every
  /// level — that contract predates the linter.
  lint::Level lint = lint::Level::Off;
  /// The halo ack/retransmit layer (dataflow::HaloExchange) of
  /// static-halo launches; switch-protocol launches ignore it. Bit flips
  /// force it on: the fabric drops corrupted blocks, and the
  /// implicit-FIFO halo protocol cannot survive a drop.
  bool reliability = false;
  /// Optional event recorder (communication-pattern capture). Installed
  /// via Fabric::set_tracer(TraceRecorder&) so the run report also
  /// carries the recorder's capacity-drop count. Must outlive the run.
  wse::TraceRecorder* trace = nullptr;
  /// When non-empty, the harness exports a Perfetto/Chrome trace_event
  /// timeline of the run to this path (obs::write_perfetto_json): phase
  /// spans per PE plus the trace stream. Enables phase-span recording,
  /// and attaches an internal keep-latest recorder when `trace` is null,
  /// so the timeline includes routed-block and fault markers by default.
  std::string trace_json_path;
};

/// Accounting of one fabric run, embedded by every program result.
struct RunInfo {
  /// Simulated device time for the whole run, from the fabric clock.
  f64 device_seconds = 0.0;
  f64 makespan_cycles = 0.0;
  /// Aggregate instruction/traffic counters over all PEs.
  wse::PeCounters counters{};
  /// Fabric-link wavelets per managed communication color (indices follow
  /// dataflow/colors.hpp: 0-3 cardinal data, 4-7 diagonal forwards, 8-11
  /// AllReduce trees, 12-15 reliability NACKs).
  std::array<u64, ColorPlan::kManagedColors> color_traffic{};
  /// Peak per-PE memory footprint (bytes).
  usize max_pe_memory = 0;
  u64 events_processed = 0;
  /// Measured per-phase cycle attribution summed over all PEs — the
  /// Table 3-style time split (all zero when
  /// ExecutionOptions::phase_profiling is off).
  obs::PhaseCycles phase_cycles{};
  /// Per-PE attribution, row-major (y * width + x; empty when profiling
  /// is off). Each entry's total() equals that PE's final clock.
  std::vector<obs::PhaseCycles> pe_phase_cycles;
  /// Fault-injection outcome (all zero when injection is disabled).
  wse::FaultStats faults{};
  /// Trace accounting when a recorder was attached: records emitted by
  /// the engine and records the recorder dropped at capacity.
  u64 trace_events_emitted = 0;
  u64 trace_records_dropped = 0;
  /// Total errors raised vs. messages suppressed past the recording cap.
  u64 errors_total = 0;
  u64 errors_suppressed = 0;
  std::vector<std::string> errors;
  /// Memory hazards flagged by ExecutionOptions::hazard_check (empty, and
  /// all counters zero, when the detector is off).
  std::vector<std::string> hazards;
  u64 hazards_total = 0;
  u64 hazards_suppressed = 0;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

/// Accumulates the accounting of a second launch into `into`: the
/// multi-launch jobs (IMPES windows, the scenario service's long jobs)
/// report one RunInfo covering every fabric run they issued. Scalars and
/// counters add, max_pe_memory takes the max, error/hazard lists append.
/// Per-PE phase attribution is per-launch and does not aggregate — the
/// result's pe_phase_cycles is cleared (the summed phase_cycles split is
/// kept).
void accumulate(RunInfo& into, const RunInfo& launch);

}  // namespace fvf::dataflow
