/// \file halo_exchange.hpp
/// \brief The one 10-neighbor halo exchange of every fabric kernel: each
///        round a PE sends one fixed-length block on each cardinal color,
///        receives a block from each cardinal neighbor and forwards it to
///        the rotated diagonal target (Figure 5), and hands every block of
///        the round to its client. spec::SpecPeProgram holds one per PE.
///
/// Only the sending of cardinal blocks depends on the protocol, so it is
/// the exchange's discipline (HaloDiscipline):
///
///   - Switch is the paper's Figure 6 two-step switch protocol (TPFA):
///     two-position routes, a control wavelet after each block, phase-2
///     senders that wait for their upstream's control, and a round that
///     completes only once the PE sent its own block on every color.
///   - Fifo uses static routes: every PE sends on all four colors at
///     round start (CG, transport, wave, heat).
///   - Reliable is Fifo with an ack/retransmit layer (below).
///
/// Receiving is one code path for all three. Blocks are tagged by per-link
/// FIFO order (Reliable: by an explicit round tag). A neighbor may run at
/// most one round ahead; its block waits in the link's early slot and is
/// delivered at the next begin_round. All eight receive buffers are one
/// allocation and the early slots a second, made on first use. Block
/// views (the client's on_block and the round's FaceBlocks) stay valid
/// until the next begin_round, so clients may read them at round
/// completion. Fifo and Reliable retag the profiler phase to LocalCompute
/// before each client hook; Switch leaves the phase to its client.
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
/// racing the stalled original) are suppressed by tag. Its state lives
/// behind one pointer, allocated only in this mode.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dataflow/colors.hpp"
#include "wse/fabric.hpp"

namespace fvf::dataflow {

/// How a PE sends its cardinal blocks (see the file comment).
enum class HaloDiscipline : u8 { Switch, Fifo, Reliable };

class HaloExchange {
 public:
  /// The round's block views by face: one per cardinal and diagonal link
  /// with an upstream neighbor, empty elsewhere.
  using FaceBlocks = std::array<std::optional<wse::Dsd>, mesh::kFaceCount>;

  /// Receives the exchange's blocks and completed rounds.
  class Client {
   public:
    /// Every processed block of the *current* round, with the face it
    /// supplies.
    virtual void on_block(wse::PeApi& api, mesh::Face face,
                          wse::Dsd data) = 0;
    /// Exactly once per round, after every expected block of the round
    /// was processed (and, under Switch, every own block sent). May start
    /// the next round.
    virtual void on_round_complete(wse::PeApi& api,
                                   const FaceBlocks& blocks) = 0;

   protected:
    ~Client() = default;
  };

  /// Cycles the per-round watchdog of the reliable mode waits before
  /// NACKing missing blocks. Must comfortably exceed a healthy round's
  /// latency or spurious NACKs cost bandwidth (they are suppressed as
  /// duplicates, never corrupt).
  static constexpr f64 kWatchdogCycles = 4096.0;
  /// Watchdog firings per round before the PE declares the round
  /// unrecoverable and raises a protocol error.
  static constexpr i32 kMaxRetries = 8;

  /// `diagonals` adds the four diagonal forwards (the nine-point shape).
  /// `client` may be null for an exchange that is only declared, never
  /// run (lint of kernel-less programs).
  HaloExchange(Coord2 coord, Coord2 fabric_size, i32 block_length,
               HaloDiscipline discipline, bool diagonals, Client* client);
  ~HaloExchange();

  /// Installs the routes of the cardinal colors (switch positions or
  /// static), of the diagonal forwards, and of the NACK colors when
  /// reliable; call from configure_router.
  void configure_router(wse::Router& router) const;

  /// Whether a delivery of `color` goes to this exchange: the cardinal
  /// blocks, the diagonal forwards of the nine-point shape, the NACKs
  /// when reliable, and under Switch the cardinal control wavelets.
  [[nodiscard]] bool handles(wse::Color color, bool control) const noexcept;
  /// Profiler phase of a delivery of `color`, or none when the exchange
  /// does not book it. Exchange traffic is Halo. Under the static
  /// disciplines the phase follows the color alone (control or not), and
  /// the NACK colors are Reliability even with the layer off.
  [[nodiscard]] std::optional<obs::Phase> phase(wse::Color color,
                                                bool control) const noexcept;

  /// Appends the sends this PE performs per round to `sends`, for
  /// fvf::lint's routing checks: the four unconditional cardinal payloads
  /// (plus, under Switch, their control wavelets), the diagonal forward
  /// for every cardinal link with an upstream neighbor (Figure 5
  /// intermediary role), and — in reliable mode — the NACK toward each
  /// upstream.
  void send_declarations(std::vector<wse::SendDeclaration>& sends) const;

  /// Appends the blocking intra-round send orderings to `deps`, for
  /// fvf::lint's cross-color deadlock analysis: a Switch phase-2 sender
  /// waits for its upstream's control, the diagonal forward happens
  /// inside the cardinal block's handler, and — in reliable mode — a
  /// retransmit happens only after the downstream receiver's NACK
  /// arrives.
  void channel_dependencies(std::vector<wse::ChannelDependency>& deps) const;

  /// Calls fn(color) for every color this PE expects halo deliveries on
  /// each round (cardinal, then diagonal links with an existing upstream
  /// neighbor): the arrivals that gate round completion. Owners use this
  /// to declare orderings of later phases (e.g. an all-reduce
  /// contribution that waits for the halo round).
  template <typename Fn>
  void each_upstream_color(Fn&& fn) const {
    for (const auto& group : {kCardinalColors, kDiagonalColors}) {
      for (const wse::Color c : group) {
        if (has_upstream(c)) {
          fn(c);
        }
      }
    }
  }

  /// Starts the next round: sends `payload` on the cardinal colors the
  /// discipline sends on now, and hands over blocks that arrived early.
  /// May complete the round synchronously (boundary PEs with no
  /// neighbors, or all blocks early). `payload` must stay valid until
  /// the round completes: Switch phase-2 senders send it later.
  void begin_round(wse::PeApi& api, std::span<const f32> payload);

  /// Feeds a delivery the exchange handles (see handles()).
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data);
  /// Switch discipline: the upstream's control wavelet on a cardinal
  /// color, which releases a phase-2 send.
  void on_control(wse::PeApi& api, wse::Color color);
  /// Watchdog expiry; forward from PeProgram::on_timer.
  void on_timer(wse::PeApi& api, u32 tag);

  [[nodiscard]] i32 completed_rounds() const noexcept {
    return round_open_ ? round_ - 1 : round_;
  }
  /// Blocks expected per round (existing cardinal + diagonal neighbors).
  [[nodiscard]] i32 expected_blocks() const noexcept { return expected_; }
  [[nodiscard]] bool reliable() const noexcept {
    return discipline_ == HaloDiscipline::Reliable;
  }

 private:
  /// Per-link receive state, indexed by slot(): the four cardinal colors,
  /// then the four diagonal forwards.
  struct Link {
    i32 received = 0;   ///< blocks delivered: the FIFO round tag
    i32 processed = 0;  ///< blocks handed to the client
  };
  struct Reliability;

  [[nodiscard]] static usize slot(wse::Color color) noexcept {
    return is_cardinal_color(color) ? cardinal_index(color)
                                    : 4 + diagonal_index(color);
  }
  [[nodiscard]] static u8 bit(usize slot) noexcept {
    return static_cast<u8>(1u << slot);
  }
  [[nodiscard]] bool has_upstream(wse::Color color) const noexcept {
    return (upstream_ & bit(slot(color))) != 0;
  }
  [[nodiscard]] std::span<f32> recv(wse::Color color) const noexcept;
  [[nodiscard]] std::span<f32> early(wse::Color color);

  void send_switch_block(wse::PeApi& api, wse::Color color);
  /// Hands the link's current block to the client.
  void deliver(wse::PeApi& api, wse::Color color);
  /// Completes the round once every expected block was handed over (and,
  /// under Switch, every cardinal block sent).
  void complete_if_done(wse::PeApi& api);

  // Reliable-mode internals.
  void on_data_reliable(wse::PeApi& api, wse::Color color,
                        std::span<const u32> data);
  void on_nack(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data);
  void send_tagged(wse::PeApi& api, wse::Color color, i32 tag,
                   std::span<const f32> payload);
  void send_nack(wse::PeApi& api, wse::Color data_color, i32 tag);
  void arm_watchdog(wse::PeApi& api);

  Client* client_;
  std::unique_ptr<f32[]> recv_;   ///< 8 receive buffers, by slot()
  std::unique_ptr<f32[]> early_;  ///< 8 early slots, made on first use
  std::unique_ptr<Reliability> reliability_;
  const f32* payload_ = nullptr;  ///< this round's block (Switch sends)
  Coord2 coord_;
  Coord2 fabric_;
  i32 block_length_;
  i32 round_ = 0;  ///< rounds started
  i32 done_this_round_ = 0;
  std::array<Link, 8> links_{};
  /// Switch discipline: control wavelets delivered per cardinal color.
  std::array<i32, 4> controls_{};
  i32 expected_ = 0;
  HaloDiscipline discipline_;
  bool diagonals_;
  bool round_open_ = false;
  u8 upstream_ = 0;  ///< slot bits: an upstream neighbor exists
  u8 early_full_ = 0;  ///< slot bits: a next-round block waits early
  u8 phase1_ = 0;  ///< Switch cardinal bits: sends at round start
  u8 sent_ = 0;    ///< Switch cardinal bits: sent this round
};

}  // namespace fvf::dataflow
