/// \file program.hpp
/// \brief SpecPeProgram — the `IterativeKernelProgram` subclass that
///        `spec::compile` generates (one engine, parameterized by the
///        CompiledSpec; the physics arrives as a StencilKernel).
///
/// The SwitchProtocol mode is an operation-for-operation port of the
/// hand-written TPFA exchange (Figure 6 roles and routes, Figure 5
/// diagonal forwarding, the <=1-iteration-ahead receive buffers, the
/// control-triggered phase-2 sends, and the completion gating on the
/// send obligation) — the golden traces prove the lowering is faithful.
/// The StaticHalo mode drives the shared HaloExchange component plus the
/// optional reduction tree, mirroring the transport program's event
/// order exactly.
#pragma once

#include <memory>
#include <string>

#include "dataflow/iterative_kernel.hpp"
#include "spec/compile.hpp"

namespace fvf::spec {

class SpecPeProgram : public dataflow::IterativeKernelProgram {
 public:
  /// Launch-time inputs the ColorPlan hands back after claiming.
  struct LaunchBindings {
    std::optional<wse::AllReduceColors> reduce;
    dataflow::HaloReliabilityOptions reliability{};
  };

  /// `compiled` is shared by every PE of a load (one compile per
  /// launch, not per PE). `kernel` may be null only for programs that are
  /// linted but never run (the defect corpus fixtures).
  SpecPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                std::shared_ptr<const CompiledSpec> compiled,
                LaunchBindings bindings, std::unique_ptr<StencilKernel> kernel);

  [[nodiscard]] const CompiledSpec& compiled() const noexcept {
    return *compiled_;
  }
  [[nodiscard]] i32 completed_rounds() const noexcept { return round_; }

  /// One-line diagnostic of the engine's communication state (per-color
  /// send/receive/control counters); used by deadlock reports and tests.
  [[nodiscard]] std::string debug_state() const;

 protected:
  [[nodiscard]] StencilKernel* kernel() const noexcept {
    return kernel_.get();
  }

 private:
  struct CardinalState {
    bool phase1_sender = false;  ///< sends at round start
    bool has_upstream = false;   ///< expects data (+control) arrivals
    i32 received = 0;            ///< total data blocks delivered
    i32 processed = 0;           ///< total blocks consumed by the kernel
    i32 controls = 0;            ///< total control wavelets delivered
    i32 sends = 0;               ///< total blocks sent
    bool buffered = false;       ///< unconsumed block in the recv buffer
  };
  struct DiagonalState {
    bool expected = false;  ///< the corner neighbor exists
    i32 received = 0;
    i32 processed = 0;
    bool buffered = false;
  };

  // wse::PeProgram / IterativeKernelProgram phase hooks.
  void reserve_memory(wse::PeMemory& mem) override;
  void begin(wse::PeApi& api) override;
  void configure_routes(wse::Router& router) override;
  [[nodiscard]] std::vector<wse::SendDeclaration> program_send_declarations()
      const override;
  [[nodiscard]] std::vector<wse::ChannelDependency>
  program_channel_dependencies() const override;
  /// Origin note for fvf::lint flow diagnostics: maps a color back to the
  /// StencilSpec field that generates its traffic (exchange, shape,
  /// reduction, reliability binding), so a finding points at the spec
  /// declaration to fix rather than the lowered routing artifact.
  [[nodiscard]] std::string describe_channel(wse::Color color) const override;
  void on_halo_block(wse::PeApi& api, mesh::Face face,
                     wse::Dsd block) override;
  void on_halo_complete(wse::PeApi& api) override;
  /// Switch-protocol dispatch: cardinal and diagonal data blocks, and the
  /// cardinal control wavelets.
  void on_bound_data(wse::PeApi& api, wse::Color color, wse::Dir from,
                     std::span<const u32> data) override;
  void on_bound_control(wse::PeApi& api, wse::Color color,
                        wse::Dir from) override;

  // Switch-protocol machinery (Figure 6 port).
  void handle_cardinal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_diagonal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_control(wse::PeApi& api, wse::Color color);
  void begin_iteration(wse::PeApi& api);
  void send_block(wse::PeApi& api, wse::Color color);
  void process_cardinal(wse::PeApi& api, wse::Color color);
  void process_diagonal(wse::PeApi& api, wse::Color color);
  void check_completion(wse::PeApi& api);
  void finalize_round(wse::PeApi& api);

  // Static-halo machinery (HaloExchange + reduction driver).
  void start_round(wse::PeApi& api);
  void apply_action(wse::PeApi& api, RoundAction action);

  [[nodiscard]] StencilKernel& require_kernel() const;

  /// Switch-protocol receive buffer of a cardinal or diagonal color.
  [[nodiscard]] std::span<f32> card_buf(wse::Color color) noexcept;
  [[nodiscard]] std::span<f32> diag_buf(wse::Color color) noexcept;

  std::shared_ptr<const CompiledSpec> compiled_;
  std::unique_ptr<StencilKernel> kernel_;
  /// Launch-time color/reliability bindings kept for describe_channel.
  std::optional<wse::AllReduceColors> reduce_colors_;
  bool reliability_enabled_ = false;
  i32 nz_ = 0;
  i32 block_len_ = 0;  ///< block_words_per_cell * nz
  bool nine_point_ = false;

  // Switch-protocol receive buffers (four cardinal, then four diagonal
  // blocks in one allocation) and per-color state.
  std::vector<f32> recv_;
  i32 round_ = 0;
  i32 cards_processed_this_round_ = 0;
  i32 diags_processed_this_round_ = 0;
  i32 expected_cards_ = 0;
  i32 expected_diags_ = 0;
  std::array<CardinalState, 4> card_;
  std::array<DiagonalState, 4> diag_;
};

}  // namespace fvf::spec
