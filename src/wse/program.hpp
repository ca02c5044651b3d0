/// \file program.hpp
/// \brief The dataflow execution model: a per-PE program whose handlers
///        are activated by wavelet arrivals (color-triggered tasks).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "wse/fabric_types.hpp"
#include "wse/memory.hpp"
#include "wse/router.hpp"

namespace fvf::wse {

class PeApi;

/// A send this PE's program intends to perform on a color (data block or
/// control wavelet), declared for static verification: fvf::lint checks
/// that every declared send has a Ramp-accepting switch position on the
/// sender and that every Ramp delivery it can reach finds a handler.
struct SendDeclaration {
  Color color{};
  bool control = false;
  /// Upper bound on blocks of this declaration that may be in flight —
  /// injected but not yet accepted by a switch position — at any one
  /// instant. fvf::lint's buffer-bound analyzer sums these bounds along
  /// union-graph reachability to bound the worst-case router input-buffer
  /// occupancy against ExecutionOptions::router_buffer_depth. The default
  /// matches the runtime's one-round-ahead skew guard (the current round's
  /// block plus at most one early next-round block).
  u32 in_flight = 2;
};

/// Declares that this PE sends on `dependent` only after its deliveries
/// on `prerequisite` arrive (within one round): the edge set of
/// fvf::lint's cross-color wait-for graph. Only *blocking* intra-round
/// orderings belong here — round-to-round progressions (this round's
/// reduction enabling next round's halo) must not be declared, or every
/// iterative program would report a spurious cycle.
struct ChannelDependency {
  Color prerequisite{};
  Color dependent{};
};

/// Declares an f32 accumulation this PE performs over deliveries on
/// `colors`. When `folds_in_arrival_order` is set, the result depends on
/// the order blocks happen to arrive in; fvf::lint's determinism analyzer
/// then verifies the routing plan pins that order (at most one declared
/// sender can reach this PE's Ramp over the group). Order-insensitive
/// folds (min/max, or program-pinned canonical orders) need no entry.
struct ReductionDeclaration {
  std::vector<Color> colors;
  bool folds_in_arrival_order = false;
  /// Human name of the accumulator, used in diagnostics.
  std::string label;
};

/// A per-PE program. One instance is created for every PE at load time.
/// Handlers run to completion (tasks are not preemptible), may perform
/// DSD computations through the PeApi, and may send wavelet blocks or
/// control wavelets.
class PeProgram {
 public:
  virtual ~PeProgram() = default;

  /// Installs the program's routing configuration on this PE's router.
  /// Called once at load time, before any handler runs.
  virtual void configure_router(Router& router) = 0;

  /// Declares the program's static PE memory footprint into `mem`.
  /// A program calls it from on_start; fvf::lint calls it on the loaded,
  /// not yet run programs, with ledgers of its own, to verify the
  /// footprint against the byte budget. It only sees the ledger it is
  /// handed and must declare the same reservations each time it is
  /// called.
  virtual void reserve_memory(PeMemory& mem) const;

  /// Whether a wavelet of `color` delivered to this PE's Ramp would find
  /// a task (data-block handler, or control handler when `control`).
  /// Pure classification for fvf::lint's unhandled-delivery check; the
  /// default accepts everything so hand-rolled programs lint clean
  /// without overriding it.
  [[nodiscard]] virtual bool handles_color(Color color, bool control) const;

  /// Appends the colors this program sends on to `sends`, for
  /// fvf::lint's routing checks. Appending lets the linter reuse one
  /// buffer over a fabric instead of taking a vector per PE. Default:
  /// nothing declared, which exempts the program from the unrouted-send
  /// and reachability analyses.
  virtual void send_declarations(std::vector<SendDeclaration>& sends) const;

  /// Appends the blocking send orderings of this program (see
  /// ChannelDependency) to `deps`, for fvf::lint's cross-color deadlock
  /// analysis. Default: none.
  virtual void channel_dependencies(std::vector<ChannelDependency>& deps) const;

  /// Arrival-order f32 accumulations of this program (see
  /// ReductionDeclaration), for fvf::lint's determinism analysis.
  /// Default: none.
  [[nodiscard]] virtual std::vector<ReductionDeclaration>
  reduction_declarations() const;

  /// Origin note appended to fvf::lint flow diagnostics that involve
  /// `color`: programs generated from a higher-level description (e.g.
  /// spec::SpecPeProgram) name the StencilSpec field that produced the
  /// traffic, so a diagnostic points at the declaration to fix rather
  /// than the lowered routing artifact. Empty = no note.
  [[nodiscard]] virtual std::string describe_channel(Color color) const;

  /// Activated once at cycle zero on every PE.
  virtual void on_start(PeApi& api) = 0;

  /// Activated when a data block of `color` is delivered to the Ramp.
  /// `from` is the link the block entered this router through.
  virtual void on_data(PeApi& api, Color color, Dir from,
                       std::span<const u32> data) = 0;

  /// Activated when a control wavelet of `color` is delivered to the Ramp
  /// (after the traversed routers have advanced their switch positions).
  virtual void on_control(PeApi& api, Color color, Dir from);

  /// Activated when a timer scheduled via PeApi::schedule_timer expires.
  /// `tag` is the opaque value the program passed when arming it.
  virtual void on_timer(PeApi& api, u32 tag);

  /// Classifies the task a delivery would activate, for the per-phase
  /// cycle profiler (see obs/phase.hpp). Called at dispatch when
  /// ExecutionOptions::phase_profiling is on; handlers may refine the
  /// attribution mid-task via PeApi::set_phase. Pure classification —
  /// must not mutate program state.
  [[nodiscard]] virtual obs::Phase task_phase(Color color, bool control,
                                              bool timer) const noexcept;
};

inline void PeProgram::reserve_memory(PeMemory&) const {}
inline bool PeProgram::handles_color(Color, bool) const { return true; }
inline void PeProgram::send_declarations(std::vector<SendDeclaration>&) const {}
inline void PeProgram::channel_dependencies(
    std::vector<ChannelDependency>&) const {}
inline std::vector<ReductionDeclaration> PeProgram::reduction_declarations()
    const {
  return {};
}
inline std::string PeProgram::describe_channel(Color) const { return {}; }
inline void PeProgram::on_control(PeApi&, Color, Dir) {}
inline void PeProgram::on_timer(PeApi&, u32) {}
inline obs::Phase PeProgram::task_phase(Color, bool, bool) const noexcept {
  return obs::Phase::LocalCompute;
}

/// Factory invoked once per PE at load time.
using ProgramFactory =
    std::function<std::unique_ptr<PeProgram>(Coord2 coord, Coord2 fabric_size)>;

}  // namespace fvf::wse
