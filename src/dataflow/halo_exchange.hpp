/// \file halo_exchange.hpp
/// \brief Reusable 10-neighbor halo exchange for dataflow programs with
///        static routes (no Figure 6 switch protocol): every PE sends one
///        fixed-length block per round on each cardinal color and
///        forwards received cardinal blocks to the rotated diagonal
///        target (Figure 5). The StaticHalo exchange of
///        spec::SpecPeProgram (CG, transport, wave, heat); the TPFA flux
///        program keeps the engine's own Figure 6 switch protocol.
///
/// Round semantics: blocks are tagged implicitly by per-link FIFO order.
/// A neighbor may run at most one round ahead; such early blocks wait
/// beside their receive buffer and are delivered at the next begin_round.
/// The owner is notified once per processed block and once per completed
/// round. Block views (the handler's and round_blocks') stay valid until
/// the next begin_round in both modes, so owners may read them at round
/// completion.
///
/// Reliability layer (HarnessOptions::reliability): under fault
/// injection the fabric *drops* corrupted blocks at the parity check, so
/// FIFO tagging is no longer sound. The reliable mode prepends an
/// explicit round tag to every block, keeps a bounded resend buffer at
/// the origin (cardinal payloads) and the intermediary (diagonal
/// forwards), and arms a per-round watchdog timer: when it fires with
/// blocks still missing, the receiver NACKs the upstream neighbor on a
/// dedicated color (kNackColors) and the neighbor retransmits. Retries
/// are bounded; exhaustion raises a protocol error so an unrecoverable
/// run is *reported*, never silently wrong. Duplicates (a retransmit
/// racing the stalled original) are suppressed by tag.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dataflow/colors.hpp"
#include "wse/fabric.hpp"

namespace fvf::dataflow {

class HaloExchange {
 public:
  /// Invoked for every processed block of the *current* round with the
  /// face it supplies and a view of the received data. The view stays
  /// valid until the next begin_round.
  using BlockHandler =
      std::function<void(wse::PeApi&, mesh::Face, wse::Dsd data)>;
  /// Invoked exactly once per round, after all expected blocks of that
  /// round were processed. May start the next round.
  using RoundHandler = std::function<void(wse::PeApi&)>;

  /// Cycles the per-round watchdog of the reliable mode waits before
  /// NACKing missing blocks. Must comfortably exceed a healthy round's
  /// latency or spurious NACKs cost bandwidth (they are suppressed as
  /// duplicates, never corrupt).
  static constexpr f64 kWatchdogCycles = 4096.0;
  /// Watchdog firings per round before the PE declares the round
  /// unrecoverable and raises a protocol error.
  static constexpr i32 kMaxRetries = 8;

  /// `reliable` turns the ack/retransmit layer on. Off runs the
  /// implicit-FIFO protocol untouched: no tag word on the wire, no
  /// timers, no NACK routes.
  HaloExchange(Coord2 coord, Coord2 fabric_size, i32 block_length,
               bool reliable = false);

  /// Installs the static routes for the cardinal + diagonal colors (plus
  /// the NACK colors when the reliability layer is enabled); call from
  /// configure_router.
  void configure_router(wse::Router& router) const;

  /// Whether `color` belongs to this exchange (the cardinal and diagonal
  /// blocks).
  [[nodiscard]] static bool owns(wse::Color color) noexcept {
    return is_cardinal_color(color) || is_diagonal_color(color);
  }

  /// Sends this PE performs per round, for fvf::lint's routing checks:
  /// the four unconditional cardinal payloads, the diagonal forward for
  /// every cardinal link with an upstream neighbor (Figure 5 intermediary
  /// role), and — in reliable mode — the NACK toward each upstream.
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations() const;

  /// Blocking intra-round send orderings for fvf::lint's cross-color
  /// deadlock analysis: the diagonal forward happens inside the cardinal
  /// block's handler, and — in reliable mode — a retransmit happens only
  /// after the downstream receiver's NACK arrives.
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const;

  /// Colors this PE expects halo deliveries on each round (cardinal and
  /// diagonal links with an existing upstream neighbor): the arrivals
  /// that gate round completion. Owners use this to declare orderings of
  /// later phases (e.g. an all-reduce contribution that waits for the
  /// halo round).
  [[nodiscard]] std::vector<wse::Color> upstream_colors() const;

  void set_handlers(BlockHandler on_block, RoundHandler on_round_complete);

  /// Starts the next round: sends `payload` on all four cardinal colors
  /// and consumes blocks that arrived early. May complete the round
  /// synchronously (boundary PEs with no neighbors, or all blocks early).
  void begin_round(wse::PeApi& api, std::span<const f32> payload);

  /// Feeds a block to the exchange. Precondition: owns(color).
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data);

  /// Feeds a retransmit request (the NACK block) to the exchange; only
  /// meaningful when the reliability layer is enabled.
  void on_nack(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data);

  /// Watchdog expiry; forward from PeProgram::on_timer.
  void on_timer(wse::PeApi& api, u32 tag);

  /// Views of the current round's blocks by face: one per cardinal and
  /// diagonal link with an upstream neighbor, empty elsewhere. They view
  /// the same buffers the block handler saw and stay valid until the next
  /// begin_round.
  [[nodiscard]] std::array<std::optional<wse::Dsd>, mesh::kFaceCount>
  round_blocks();

  [[nodiscard]] i32 rounds_started() const noexcept { return round_; }
  /// Blocks expected per round (existing cardinal + diagonal neighbors).
  [[nodiscard]] i32 expected_blocks() const noexcept {
    return expected_cards_ + expected_diags_;
  }

 private:
  /// A received-but-unprocessed block. In reliable mode at most two per
  /// link can be pending: the retransmitted current round and the next
  /// round sent by a neighbor that already completed the current one. The
  /// FIFO mode keeps only a block of the next round here.
  struct Buffered {
    i32 tag = 0;
    std::vector<f32> data;
  };

  struct LinkState {
    bool has_upstream = false;
    i32 received = 0;
    i32 processed = 0;
    bool buffered = false;
    /// Pending tagged blocks, plus (reliable mode) the tag last NACKed
    /// (0 = none; a matching arrival counts as a protocol-level recovery).
    std::vector<Buffered> pending;
    i32 nacked_tag = 0;
  };

  [[nodiscard]] LinkState& link(wse::Color color) noexcept {
    return is_cardinal_color(color) ? card_[cardinal_index(color)]
                                    : diag_[diagonal_index(color)];
  }
  /// The per-face receive buffer of a link.
  [[nodiscard]] std::vector<f32>& buffer(wse::Color color) noexcept {
    return is_cardinal_color(color) ? card_buf_[cardinal_index(color)]
                                    : diag_buf_[diagonal_index(color)];
  }

  void consume_block(wse::PeApi& api, wse::Color color);
  void check_round_complete(wse::PeApi& api);

  // Reliable-mode internals.
  void on_data_reliable(wse::PeApi& api, wse::Color color,
                        std::span<const u32> data);
  void try_process_reliable(wse::PeApi& api, wse::Color color);
  void send_tagged(wse::PeApi& api, wse::Color color, i32 tag,
                   std::span<const f32> payload);
  void send_nack(wse::PeApi& api, wse::Color data_color, i32 tag);
  void arm_watchdog(wse::PeApi& api);

  Coord2 coord_;
  Coord2 fabric_;
  i32 block_length_ = 0;
  bool reliable_ = false;
  BlockHandler on_block_;
  RoundHandler on_round_complete_;

  std::array<std::vector<f32>, 4> card_buf_;
  std::array<std::vector<f32>, 4> diag_buf_;
  std::array<LinkState, 4> card_;
  std::array<LinkState, 4> diag_;
  i32 expected_cards_ = 0;
  i32 expected_diags_ = 0;
  i32 round_ = 0;
  i32 done_this_round_ = 0;
  bool round_open_ = false;

  /// Reliable mode: bounded resend buffers. A NACK can only request the
  /// current or the previous round (a neighbor is never two rounds
  /// behind a PE that completed the round in between), so two slots
  /// indexed by round parity suffice. `origin_*` answers cardinal NACKs
  /// with this PE's own payload; `diag_*` answers diagonal NACKs with the
  /// cardinal block this PE forwarded as the Figure 5 intermediary.
  std::array<std::vector<f32>, 2> origin_resend_;
  std::array<i32, 2> origin_tag_{0, 0};
  std::array<std::array<std::vector<f32>, 2>, 4> diag_resend_;
  std::array<std::array<i32, 2>, 4> diag_tag_{};
  i32 retries_ = 0;
  bool retries_exhausted_ = false;
};

}  // namespace fvf::dataflow
