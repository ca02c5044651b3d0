/// \file iterative_kernel.hpp
/// \brief Layer 3 of the fvf::dataflow runtime: the shared per-PE phase
///        machine every dataflow program iterates through.
///
/// All five programs (TPFA, CG, transport, wave, IMPES' two kernels)
/// follow the same shape: reserve PE memory, begin a phase, exchange halo
/// columns with the ten XY neighbors, do local compute as blocks arrive,
/// optionally agree on a global scalar via AllReduce, then advance or
/// finish. IterativeKernelProgram owns the wse::PeProgram entry points
/// and performs declarative per-color dispatch:
///
///   - an attached HaloExchange (use_halo_exchange) receives its
///     cardinal/diagonal blocks, NACK retransmit requests, and watchdog
///     timers automatically, invoking the on_halo_block /
///     on_halo_complete hooks;
///   - an attached wse::AllReduceSum (use_allreduce) receives its four
///     tree colors;
///   - explicitly bound colors (bind_data / bind_control) go to the
///     on_bound_data / on_bound_control hooks — this is how the TPFA
///     program keeps its Figure 6 switch-protocol exchange verbatim while
///     still living on the runtime;
///   - anything else raises a contract violation naming the color.
///
/// Derived programs implement physics + phase hooks only.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "dataflow/colors.hpp"
#include "dataflow/halo_exchange.hpp"
#include "wse/collectives.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvf::dataflow {

class IterativeKernelProgram : public wse::PeProgram {
 public:
  // --- wse::PeProgram entry points (owned by the runtime) ---------------
  void configure_router(wse::Router& router) final;
  void on_start(wse::PeApi& api) final;
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data) final;
  void on_control(wse::PeApi& api, wse::Color color, wse::Dir from) final;
  void on_timer(wse::PeApi& api, u32 tag) final;

  /// Phase classification for the per-phase cycle profiler, mirroring the
  /// dispatch precedence of on_data: bound colors carry the phase they
  /// were bound with for that kind (data or control), AllReduce colors
  /// are AllReduce, halo-exchange colors are Halo, NACK blocks and
  /// watchdog timers are Reliability.
  [[nodiscard]] obs::Phase task_phase(wse::Color color, bool control,
                                      bool timer) const noexcept final;

  /// Static handler coverage for fvf::lint, mirroring the dispatch
  /// precedence of on_data / on_control exactly: a delivery is handled iff
  /// dispatch would find a bound color or an attached component for it.
  [[nodiscard]] bool handles_color(wse::Color color,
                                   bool control) const final;

  /// Sends of the attached components (halo exchange, AllReduce) plus the
  /// derived program's own program_send_declarations().
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const final;

  /// Orderings of the attached components plus the derived program's own
  /// program_channel_dependencies(), plus the phase-structure bridge:
  /// when both components are attached, every all-reduce send waits for
  /// the halo round (contribute runs from on_halo_complete or later).
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const final;

  /// Arrival-order folds of the attached AllReduce plus the derived
  /// program's own program_reduction_declarations().
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const final;

 protected:
  IterativeKernelProgram(Coord2 coord, Coord2 fabric_size);
  ~IterativeKernelProgram() override;

  // --- component attachment (call from the derived constructor) ---------
  /// Attaches the shared 10-neighbor halo exchange on the canonical
  /// cardinal/diagonal colors. The runtime then routes those colors (and
  /// the NACK block plus watchdog timers when `reliability` is enabled)
  /// to the exchange and invokes on_halo_block / on_halo_complete.
  void use_halo_exchange(i32 block_length,
                         HaloReliabilityOptions reliability = {});

  /// Attaches an AllReduce engine; its four colors dispatch to it.
  void use_allreduce(wse::AllReduceColors colors, i32 length,
                     wse::ReduceOp op = wse::ReduceOp::Sum);

  /// Declarative per-color dispatch for program-owned colors: deliveries
  /// of a bound color go to on_bound_data / on_bound_control, ahead of
  /// any attached component. `phase` tags the tasks that kind of delivery
  /// activates for the cycle profiler (handlers can still retag mid-task
  /// via PeApi::set_phase); data and control keep separate tags.
  void bind_data(wse::Color color,
                 obs::Phase phase = obs::Phase::LocalCompute);
  void bind_control(wse::Color color,
                    obs::Phase phase = obs::Phase::LocalCompute);

  [[nodiscard]] HaloExchange& exchange() {
    FVF_REQUIRE(exchange_ != nullptr);
    return *exchange_;
  }
  [[nodiscard]] wse::AllReduceSum& allreduce() {
    FVF_REQUIRE(allreduce_ != nullptr);
    return *allreduce_;
  }
  [[nodiscard]] Coord2 coord() const noexcept { return coord_; }
  [[nodiscard]] Coord2 fabric_size() const noexcept { return fabric_size_; }

  // --- phase hooks -------------------------------------------------------
  /// Starts the program's first phase. The runtime reserves the program's
  /// declared footprint first (wse::PeProgram::reserve_memory, which
  /// derived programs must override — fvf::lint probes the same
  /// declaration against the byte budget without executing anything).
  virtual void begin(wse::PeApi& api) = 0;
  /// Sends performed by the derived program itself on its bound colors
  /// (the component sends are declared automatically). Override alongside
  /// bind_data / bind_control so fvf::lint can trace the traffic.
  [[nodiscard]] virtual std::vector<wse::SendDeclaration>
  program_send_declarations() const;
  /// Blocking intra-round orderings among the program's own bound colors
  /// (see wse::ChannelDependency), for the cross-color deadlock analysis.
  [[nodiscard]] virtual std::vector<wse::ChannelDependency>
  program_channel_dependencies() const;
  /// Arrival-order f32 folds the program performs over its bound colors
  /// (see wse::ReductionDeclaration), for the determinism analysis.
  [[nodiscard]] virtual std::vector<wse::ReductionDeclaration>
  program_reduction_declarations() const;
  /// One halo block of the current round arrived (use_halo_exchange).
  /// The view stays valid until the next begin_round.
  virtual void on_halo_block(wse::PeApi& api, mesh::Face face,
                             wse::Dsd block);
  /// All expected halo blocks of the round were processed.
  virtual void on_halo_complete(wse::PeApi& api);
  /// Installs routes for program-owned colors (bound via bind_data /
  /// bind_control); attached components install their own routes first.
  virtual void configure_routes(wse::Router& router);
  /// A data block arrived on a color bound with bind_data.
  virtual void on_bound_data(wse::PeApi& api, wse::Color color, wse::Dir from,
                             std::span<const u32> data);
  /// A control wavelet arrived on a color bound with bind_control.
  virtual void on_bound_control(wse::PeApi& api, wse::Color color,
                                wse::Dir from);

 private:
  [[nodiscard]] static bool bound(u32 mask, wse::Color color) noexcept {
    return (mask & (1u << color.id())) != 0;
  }

  Coord2 coord_;
  Coord2 fabric_size_;
  /// Attached components, held by pointer: programs that attach neither
  /// (the switch-protocol TPFA) pay one null pointer each.
  std::unique_ptr<HaloExchange> exchange_;
  std::unique_ptr<wse::AllReduceSum> allreduce_;
  /// Colors bound with bind_data / bind_control, one bit per color id.
  u32 bound_data_ = 0;
  u32 bound_control_ = 0;
  /// Profiler tag per bound color, one array per kind.
  std::array<obs::Phase, wse::Color::kMaxColors> data_phase_{};
  std::array<obs::Phase, wse::Color::kMaxColors> control_phase_{};
};

}  // namespace fvf::dataflow
