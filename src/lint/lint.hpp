/// \file lint.hpp
/// \brief fvf::lint — static verification of a constructed-but-not-executed
///        fabric program.
///
/// The correctness burden of a dataflow program sits in hand-routed colors,
/// switch positions, and per-PE memory budgets: a mis-routed color parks
/// wavelets in a router input buffer forever, an oversubscribed PE fails at
/// first allocation, and both only surface mid-run (or never). fvf::lint
/// walks the loaded-but-unexecuted fabric — router switch configurations,
/// PeProgram color bindings (handles_color), declared sends
/// (send_declarations), and declared memory footprints (reserve_memory) —
/// and reports typed diagnostics with PE coordinates and color names,
/// before a single event runs.
///
/// Diagnostic catalogue (Check):
///
///   unclaimed-color     a router configures a color no component claimed
///                       in the ColorPlan (the historic load-time audit)
///   switch-reconfigured a color's switch positions were installed more
///                       than once during load: a later component replaced
///                       the table an earlier one planned its traffic on
///   routing-cycle       the per-color routing graph (union over all switch
///                       positions) contains a cycle: wavelets can
///                       circulate forever (deadlock potential)
///   dead-end            traffic is routed into a router input that no
///                       switch position of the receiving PE accepts: the
///                       blocks wait in the input buffer forever (or, on an
///                       unconfigured color, fail the run)
///   unrouted-send       a program declares a send on a color whose switch
///                       positions never accept the Ramp: injected wavelets
///                       are parked at the sender
///   unhandled-delivery  a declared send can reach a PE's Ramp whose
///                       program does not handle the color (handles_color)
///   memory-over-budget  the declared static footprint (reserve_memory)
///                       exceeds the PE byte budget
///   memory-near-limit   (warning) the footprint is at least 90% of the
///                       budget
///
/// Flow analyses (see lint/flow.hpp for the model):
///
///   buffer-overflow-possible  the worst-case router input-buffer
///                       occupancy, from declared sends and
///                       switch-position unions, exceeds
///                       router_buffer_depth; the diagnostic carries the
///                       minimal sufficient depth in `bound`
///   cross-color-deadlock declared send orderings
///                       (PeProgram::channel_dependencies) plus the
///                       routing plan form a wait cycle across colors
///   order-sensitive-reduction (warning) an f32 accumulation declared to
///                       fold in arrival order can be reached by two or
///                       more senders: the result depends on delivery
///                       interleaving
///
/// Off-fabric traffic is deliberately *not* a finding: every shipped
/// program injects on all movement colors and lets the wafer edge absorb
/// boundary traffic, exactly like the real machine.
///
/// How it runs (lint/class_certificate.hpp): one pass over the PEs interns
/// each PE's lint-visible facts (per configured color its switch table,
/// configure count and handled deliveries; its sends with their in-flight
/// bounds; its channel dependencies and arrival-order folds) into a PE
/// class, and records which classes neighbor which. Every per-PE path,
/// cycle and reachable Ramp maps onto that quotient, so when the quotient
/// proves the routing, reconfiguration and flow checks clean, run()
/// returns the claim audit and the per-PE memory check alone. Otherwise
/// it runs those checks per PE, so every diagnostic, and the report, is
/// the same either way.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "wse/fabric.hpp"

namespace fvf::lint {

/// Verification level a harness launch opts into (--lint=strict|warn|off).
enum class Level : u8 {
  Off,     ///< only the historic unclaimed-color audit runs
  Warn,    ///< full lint; findings print to stderr, the run proceeds
  Strict,  ///< full lint; any error-severity finding fails the load
};

/// The typed diagnostic classes (see the file comment for the catalogue).
enum class Check : u8 {
  UnclaimedColor,
  SwitchReconfigured,
  RoutingCycle,
  DeadEnd,
  UnroutedSend,
  UnhandledDelivery,
  MemoryOverBudget,
  MemoryNearLimit,
  BufferOverflowPossible,
  CrossColorDeadlock,
  OrderSensitiveReduction,
};

enum class Severity : u8 { Warning, Error };

/// Stable kebab-case slug of a check, used in rendered reports and golden
/// message files.
[[nodiscard]] std::string_view check_name(Check check) noexcept;

/// One finding. `message` is the full human-readable text (it already
/// names the PE and color); `pe` and `color` carry the same facts typed,
/// for tools that want to group or filter.
struct Diagnostic {
  Check check{};
  Severity severity = Severity::Error;
  Coord2 pe{};
  std::optional<wse::Color> color;
  std::string message;
  /// Computed quantity where the check has one — today the minimal
  /// sufficient router_buffer_depth on buffer-overflow-possible.
  std::optional<u64> bound{};
  /// PEs the finding stands for: identical per-PE memory findings are
  /// reported once, at the first PE in raster order (`pe`).
  u64 count = 1;
};

/// Lint configuration. The callbacks decouple fvf::lint from the dataflow
/// layer above it: the ColorPlan supplies claim/naming context without a
/// library dependency in that direction. lint::run spreads its per-color
/// checks, flow walks and memory checks over the linted fabric's
/// host_threads() (ExecutionOptions::threads from wse::kParallelMinPes
/// PEs up; the report is identical either way), so the callbacks may be
/// invoked from several threads at once and must be safe to call
/// concurrently.
struct Options {
  /// Routing-graph checks: cycles, dead-ends, unrouted sends, unhandled
  /// deliveries.
  bool check_routing = true;
  /// Per-PE static memory verification.
  bool check_memory = true;
  /// Switch-position reconfiguration hazards.
  bool check_reconfiguration = true;
  /// Flow analyses: buffer bounds, cross-color deadlock, reduction-order
  /// determinism (lint/flow.hpp).
  bool check_flow = true;
  /// Router input-buffer depth the buffer-bound analysis compares
  /// against; 0 uses the loaded fabric's configured depth
  /// (ExecutionOptions::router_buffer_depth).
  u32 router_buffer_depth = 0;
  /// Budget override for the memory check; 0 uses each PE's own budget.
  usize memory_budget = 0;
  /// Optional override of the programs the memory check probes: when
  /// set, the check builds a fresh program per PE with it and probes that
  /// one. When null, it probes the loaded programs.
  wse::ProgramFactory probe_factory;
  /// Claim oracle (ColorPlan::claimed). The unclaimed-color audit is
  /// skipped when null.
  std::function<bool(wse::Color)> color_claimed;
  /// Renders the color map appended to unclaimed-color diagnostics
  /// (ColorPlan::describe).
  std::function<std::string()> color_map;
  /// Human label of a color, e.g. "color 3 ('tpfa cardinal exchange')".
  /// Defaults to "color <id>" when null.
  std::function<std::string(wse::Color)> color_label;
};

struct Report {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool clean() const noexcept { return diagnostics.empty(); }
  [[nodiscard]] usize error_count() const noexcept;
  [[nodiscard]] usize warning_count() const noexcept;
  /// One line per diagnostic: "<severity>[<check>] <message>\n". The
  /// rendering is deterministic (fixed iteration order), so golden-message
  /// tests can compare it verbatim.
  [[nodiscard]] std::string describe() const;
};

/// Runs every enabled check over a loaded (but not executed) fabric.
[[nodiscard]] Report run(const wse::Fabric& fabric, const Options& options);

}  // namespace fvf::lint
