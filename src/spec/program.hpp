/// \file program.hpp
/// \brief SpecPeProgram — the one PE engine: the `wse::PeProgram` that
///        `spec::compile` generates (parameterized by the CompiledSpec;
///        the physics arrives as a StencilKernel).
///
/// Every fabric kernel runs as this class. Each PE is one color-triggered
/// task machine that drives its kernel through the one hook protocol
/// (start, begin_round, on_block, on_round_complete, on_reduced) whatever
/// the exchange; every other entry point (routes, dispatch, profiler
/// phases, the lint declarations) is a `switch` on the spec's exchange
/// kind:
///
///   - SwitchProtocol is an operation-for-operation port of the
///     hand-written TPFA exchange (Figure 6 roles and routes, Figure 5
///     diagonal forwarding, the <=1-iteration-ahead receive buffers, the
///     control-triggered phase-2 sends, and the completion gating on the
///     send obligation) — the golden traces prove the lowering is
///     faithful. The engine handles the cardinal data and control colors
///     and, for the nine-point shape, the diagonal forwards itself. A
///     block of the next round waits in an early slot, so the kernel's
///     views of this round's blocks hold until the round completes.
///   - StaticHalo drives the shared HaloExchange component (cardinal and
///     diagonal blocks, NACKs and watchdog timers under reliability)
///     plus the optional reduction tree, running reductions back to back
///     for as long as the kernel answers Reduce; the CG and wave golden
///     traces pin its event order. Both components sit behind pointers,
///     so switch-protocol PEs pay two null pointers for them.
///   - None has no colors and runs no kernel hook.
///
/// A delivery no branch claims is a contract violation naming the PE and
/// the color.
#pragma once

#include <array>
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

class SpecPeProgram : public wse::PeProgram {
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
  /// The halo exchange's handlers hold `this`.
  SpecPeProgram(const SpecPeProgram&) = delete;
  SpecPeProgram& operator=(const SpecPeProgram&) = delete;

  [[nodiscard]] i32 completed_rounds() const noexcept { return round_; }

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
  /// anything else LocalCompute. The handlers retag themselves when they
  /// hand a block to the kernel.
  [[nodiscard]] obs::Phase task_phase(wse::Color color, bool control,
                                      bool timer) const noexcept final;
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const final;
  /// The exchange's and the reduction tree's blocking orderings, plus the
  /// phase-structure bridge when both exist: every reduction send waits
  /// for the halo round (the contribution runs from round completion or
  /// later).
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const final;
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const final;
  /// Origin note for fvf::lint flow diagnostics: maps a color back to the
  /// StencilSpec field that generates its traffic (exchange, shape,
  /// reduction, reliability binding), so a finding points at the spec
  /// declaration to fix rather than the lowered routing artifact.
  [[nodiscard]] std::string describe_channel(wse::Color color) const final;

 private:
  struct CardinalState {
    bool phase1_sender = false;  ///< sends at round start
    bool has_upstream = false;   ///< expects data (+control) arrivals
    i32 received = 0;            ///< total data blocks delivered
    i32 processed = 0;           ///< total blocks consumed by the kernel
    i32 controls = 0;            ///< total control wavelets delivered
    i32 sends = 0;               ///< total blocks sent
    bool buffered = false;       ///< an unconsumed (early) block
  };
  struct DiagonalState {
    bool expected = false;  ///< the corner neighbor exists
    i32 received = 0;
    i32 processed = 0;
    bool buffered = false;
  };

  /// Switch protocol: the data colors the engine handles (every cardinal
  /// color unless a defect drops one, and the diagonal forwards of the
  /// nine-point shape).
  [[nodiscard]] bool switch_handles_data(wse::Color color) const noexcept;

  // Switch-protocol machinery (Figure 6 port).
  void handle_cardinal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_diagonal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_control(wse::PeApi& api, wse::Color color);
  void send_block(wse::PeApi& api, wse::Color color);
  void process_cardinal(wse::PeApi& api, wse::Color color);
  void process_diagonal(wse::PeApi& api, wse::Color color);
  /// Completes the round once every expected block was consumed and
  /// every cardinal send went out.
  void check_completion(wse::PeApi& api);

  // Round driver (both exchange kinds).
  /// The kernel's begin_round, then this round's sends and early blocks.
  void start_round(wse::PeApi& api);
  /// Every expected block of the round was processed: the kernel's
  /// on_round_complete with the round's views.
  void complete_round(wse::PeApi& api, const StencilKernel::FaceBlocks& blocks);
  /// Carries out a kernel's answer: the next round, completion, or a
  /// reduction whose result goes back to the kernel.
  void apply(wse::PeApi& api, RoundOutcome outcome);

  [[nodiscard]] StencilKernel& require_kernel() const;

  /// Switch-protocol receive buffer of a cardinal or diagonal color.
  [[nodiscard]] std::span<f32> card_buf(wse::Color color) noexcept;
  [[nodiscard]] std::span<f32> diag_buf(wse::Color color) noexcept;
  /// Where a block of the next round waits, by receive-buffer slot
  /// (cardinal_index, or 4 + diagonal_index); allocated on first use.
  [[nodiscard]] std::span<f32> early_buf(usize slot);

  Coord2 coord_;
  std::shared_ptr<const CompiledSpec> compiled_;
  std::unique_ptr<StencilKernel> kernel_;
  /// StaticHalo components, held by pointer: null for the other exchange
  /// kinds (the reduction tree also when the spec declares none).
  std::unique_ptr<dataflow::HaloExchange> exchange_;
  std::unique_ptr<wse::AllReduceSum> allreduce_;
  /// Launch-time color/reliability bindings kept for describe_channel.
  std::optional<wse::AllReduceColors> reduce_colors_;
  bool reliability_enabled_ = false;
  i32 nz_ = 0;
  i32 block_len_ = 0;  ///< block_words_per_cell * nz
  bool nine_point_ = false;

  // Switch-protocol receive buffers (four cardinal, then four diagonal
  // blocks in one allocation), their early slots (null until a neighbor
  // runs a round ahead), the kernel's block of the current round
  // (block_len_ words, sent on every cardinal color), and per-color state.
  std::unique_ptr<f32[]> recv_;
  std::unique_ptr<f32[]> early_;
  const f32* block_ = nullptr;
  i32 round_ = 0;
  i32 cards_processed_this_round_ = 0;
  i32 diags_processed_this_round_ = 0;
  i32 expected_cards_ = 0;
  i32 expected_diags_ = 0;
  std::array<CardinalState, 4> card_;
  std::array<DiagonalState, 4> diag_;
};

}  // namespace fvf::spec
