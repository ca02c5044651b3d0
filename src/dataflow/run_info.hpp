/// \file run_info.hpp
/// \brief Shared launch options and run record of the fvf::dataflow
///        runtime (Layer 2 data types).
///
/// Every program pipeline used to re-plumb timings/execution/trace/memory
/// options into the fabric by hand and copy a drifting subset of the
/// fabric's run report into its own result struct. HarnessOptions and
/// RunInfo are the single definitions both sides share: every launch
/// takes one HarnessOptions, and every fabric result embeds the RunInfo
/// that wse::Fabric::run fills whole.
#pragma once

#include <string>

#include "lint/lint.hpp"
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

/// Accounting of one fabric run, embedded by every program result: the
/// fabric's own run record (its fields are documented there). In a
/// dataflow load, color_traffic indices follow dataflow/colors.hpp: 0-3
/// cardinal data, 4-7 diagonal forwards, 8-11 AllReduce trees, 12-15
/// reliability NACKs; colors 16-23 are never configured.
using RunInfo = wse::RunReport;

/// Accumulates the accounting of a second launch into `into`: the
/// multi-launch jobs (IMPES windows, the scenario service's long jobs)
/// report one RunInfo covering every fabric run they issued. Scalars and
/// counters add (pes_done counts PE completions over the launches, and
/// the host counts windows_stepped and payloads_rehomed add too),
/// max_pe_memory and the host figures event_queue_high_water and
/// payload_arena_bytes take the max (each launch frees its queues and
/// arenas when it ends), error/hazard lists append. Per-PE phase
/// attribution is per-launch and does not aggregate — the result's
/// pe_phase_cycles is cleared (the summed phase_cycles split is kept).
void accumulate(RunInfo& into, const RunInfo& launch);

}  // namespace fvf::dataflow
