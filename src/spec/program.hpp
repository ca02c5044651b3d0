/// \file program.hpp
/// \brief SpecPeProgram — the one PE engine: the `wse::PeProgram` that
///        `spec::compile` generates (parameterized by the CompiledSpec;
///        the physics arrives as a StencilKernel).
///
/// Every fabric kernel runs as this class. Each PE is one color-triggered
/// task machine that drives its kernel through the one hook protocol
/// (start, begin_round, on_block, on_round_complete, on_reduced). Every
/// other entry point (routes, dispatch, profiler phases, the lint
/// declarations) is the halo exchange, then the optional reduction tree:
///
///   - the exchange is a dataflow::HaloExchange held by value, whose
///     discipline follows the spec: SwitchProtocol runs the paper's
///     Figure 6 switch protocol (TPFA), StaticHalo static routes, with
///     the NACK/watchdog layer when the launch binds reliability;
///   - the reduction tree (StaticHalo only) runs reductions back to back
///     for as long as the kernel answers Reduce;
///   - ExchangeKind::None has no exchange: no colors and no kernel hook.
///
/// The golden traces pin the event order of both protocols. A delivery
/// no component claims is a contract violation naming the PE and the
/// color.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "dataflow/halo_exchange.hpp"
#include "spec/compile.hpp"
#include "wse/collectives.hpp"
#include "wse/program.hpp"

namespace fvf::spec {

class SpecPeProgram : public wse::PeProgram,
                      private dataflow::HaloExchange::Client {
 public:
  /// Launch-time inputs the ColorPlan hands back after claiming.
  struct LaunchBindings {
    std::optional<wse::AllReduceColors> reduce;
    /// The halo ack/retransmit layer (StaticHalo only).
    bool reliability = false;
  };

  /// `compiled` is shared by every PE of a load (one compile per
  /// launch, not per PE). `kernel` may be null only for programs that are
  /// linted but never run (spec::lint_report, the defect corpus fixtures).
  SpecPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                std::shared_ptr<const CompiledSpec> compiled,
                LaunchBindings bindings, std::unique_ptr<StencilKernel> kernel);
  /// The halo exchange holds `this` as its client.
  SpecPeProgram(const SpecPeProgram&) = delete;
  SpecPeProgram& operator=(const SpecPeProgram&) = delete;

  [[nodiscard]] i32 completed_rounds() const noexcept {
    return exchange_ ? exchange_->completed_rounds() : 0;
  }

  /// The engine-owned kernel, for reading results back after a run.
  [[nodiscard]] const StencilKernel& kernel() const { return require_kernel(); }

  // --- wse::PeProgram ----------------------------------------------------
  void configure_router(wse::Router& router) final;
  /// The spec's ordered memory layout, verbatim.
  void reserve_memory(wse::PeMemory& mem) const final;
  /// Reserves the footprint, then starts the first round.
  void on_start(wse::PeApi& api) final;
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data) final;
  void on_control(wse::PeApi& api, wse::Color color, wse::Dir from) final;
  /// The halo exchange's retransmit watchdog.
  void on_timer(wse::PeApi& api, u32 tag) final;

  /// Mirrors the dispatch of on_data / on_control exactly: a delivery is
  /// handled iff dispatch would find a handler for it.
  [[nodiscard]] bool handles_color(wse::Color color, bool control) const final;
  /// Profiler phase of a delivery: exchange colors are Halo, reduction
  /// colors AllReduce, NACK blocks and watchdog timers Reliability, and
  /// anything else LocalCompute. Under the static disciplines the exchange
  /// retags to LocalCompute when it hands a block or a round to the
  /// kernel; under Switch the kernel retags itself.
  [[nodiscard]] obs::Phase task_phase(wse::Color color, bool control,
                                      bool timer) const noexcept final;
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const final;
  /// The exchange's and the reduction tree's blocking orderings, plus the
  /// phase-structure bridge when both exist: every reduction send waits
  /// for the halo round (the contribution runs from round completion or
  /// later).
  void channel_dependencies(
      std::vector<wse::ChannelDependency>& deps) const final;
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const final;
  /// Origin note for fvf::lint flow diagnostics: maps a color back to the
  /// StencilSpec field that generates its traffic (exchange, shape,
  /// reduction, reliability binding), so a finding points at the spec
  /// declaration to fix rather than the lowered routing artifact.
  [[nodiscard]] std::string describe_channel(wse::Color color) const final;

 private:
  // --- dataflow::HaloExchange::Client ------------------------------------
  void on_block(wse::PeApi& api, mesh::Face face, wse::Dsd data) final;
  void on_round_complete(
      wse::PeApi& api,
      const dataflow::HaloExchange::FaceBlocks& blocks) final;

  /// DefectInjection::drop_east_data_handler: East data deliveries find
  /// no handler.
  [[nodiscard]] bool dropped(wse::Color color, bool control) const noexcept;
  /// Whether a delivery of `color` goes to the exchange: everything it
  /// handles, less a dropped handler.
  [[nodiscard]] bool to_exchange(wse::Color color, bool control) const noexcept;
  /// Carries out a kernel's answer: the next round, completion, or a
  /// reduction whose result goes back to the kernel.
  void apply(wse::PeApi& api, RoundOutcome outcome);

  [[nodiscard]] StencilKernel& require_kernel() const;

  Coord2 coord_;
  i32 nz_ = 0;
  std::shared_ptr<const CompiledSpec> compiled_;
  std::unique_ptr<StencilKernel> kernel_;
  /// Null when the spec declares no reduction.
  std::unique_ptr<wse::AllReduceSum> allreduce_;
  /// Empty for ExchangeKind::None.
  std::optional<dataflow::HaloExchange> exchange_;
};

}  // namespace fvf::spec
