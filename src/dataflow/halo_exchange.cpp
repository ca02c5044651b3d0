#include "dataflow/halo_exchange.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/assert.hpp"

namespace fvf::dataflow {

namespace {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::Dsd;
using wse::FabricDsd;
using wse::PeApi;
using wse::RouteRule;
using wse::unpack_f32;

[[nodiscard]] mesh::Face face_of(Color color) noexcept {
  return is_cardinal_color(color) ? cardinal_face(color) : diagonal_face(color);
}

/// What a color's route does at one PE.
enum class Role : u8 {
  /// Static routes (Fifo and Reliable cardinals, diagonal forwards and
  /// NACKs): Ramp -> movement direction, upstream -> Ramp.
  PassThrough,
  /// Figure 6 edge PE with no upstream: nothing ever arrives, so a single
  /// broadcast-root position suffices (its own control wraps in place).
  Edge,
  /// Figure 6 phase-1 sender: send, then receive from upstream.
  Phase1,
  /// Figure 6 phase-2 sender: receive from upstream, then send.
  Phase2,
};
constexpr usize kRoles = 4;

/// The switch table of `role` for a color moving toward `move`. Every
/// table is packed once per process, so every PE of every load configures
/// its router from these and a load builds no table of its own.
[[nodiscard]] const ColorConfig& switch_table(Role role, Dir move) {
  using Tables =
      std::array<std::array<ColorConfig, wse::kFabricDirCount>, kRoles>;
  static const Tables tables = [] {
    Tables t;
    for (const Dir m : wse::kFabricDirs) {
      const Dir up = wse::opposite(m);
      const auto set = [&](Role which,
                           const std::vector<wse::SwitchPosition>& positions) {
        t[static_cast<usize>(which)][static_cast<usize>(m)] =
            ColorConfig(positions);
      };
      set(Role::PassThrough, {wse::position({RouteRule{Dir::Ramp, {m}},
                                             RouteRule{up, {Dir::Ramp}}})});
      set(Role::Edge, {wse::position(Dir::Ramp, {m})});
      set(Role::Phase1,
          {wse::position(Dir::Ramp, {m}), wse::position(up, {Dir::Ramp})});
      set(Role::Phase2,
          {wse::position(up, {Dir::Ramp}), wse::position(Dir::Ramp, {m})});
    }
    return t;
  }();
  return tables[static_cast<usize>(role)][static_cast<usize>(move)];
}

}  // namespace

/// Reliable-mode state: bounded resend buffers, NACK bookkeeping and the
/// watchdog's retry count. A NACK can only request the current or the
/// previous round (a neighbor is never two rounds behind a PE that
/// completed the round in between), so two resend slots indexed by round
/// parity suffice: slots 0-1 answer cardinal NACKs with this PE's own
/// payload, and 2 + 2 * diagonal_index + parity answer diagonal NACKs
/// with the cardinal block this PE forwarded as the Figure 5
/// intermediary.
struct HaloExchange::Reliability {
  explicit Reliability(i32 block_length)
      : length(static_cast<usize>(block_length)), resend(10 * length) {}

  [[nodiscard]] std::span<f32> slot(usize k) noexcept {
    return {resend.data() + k * length, length};
  }

  usize length;
  std::vector<f32> resend;
  std::array<i32, 10> resend_tag{};
  /// Per link, the tag last NACKed (0 = none; a matching arrival counts
  /// as a protocol-level recovery).
  std::array<i32, 8> nacked_tag{};
  i32 retries = 0;
  bool retries_exhausted = false;
};

HaloExchange::HaloExchange(Coord2 coord, Coord2 fabric_size, i32 block_length,
                           HaloDiscipline discipline, bool diagonals,
                           Client* client)
    : client_(client),
      coord_(coord),
      fabric_(fabric_size),
      block_length_(block_length),
      discipline_(discipline),
      diagonals_(diagonals) {
  FVF_REQUIRE(block_length > 0);
  recv_ = std::make_unique<f32[]>(8 * static_cast<usize>(block_length));
  const auto exists = [&](mesh::Face face) {
    const Coord3 off = mesh::face_offset(face);
    const i32 nx = coord_.x + off.x;
    const i32 ny = coord_.y + off.y;
    return nx >= 0 && nx < fabric_.x && ny >= 0 && ny < fabric_.y;
  };
  for (const Color c : kCardinalColors) {
    const u8 b = bit(cardinal_index(c));
    const bool upstream = exists(cardinal_face(c));
    upstream_ |= upstream ? b : u8{0};
    // Communication roles (Figure 6): even PEs along a color's movement
    // axis — and edge PEs with no upstream — send in phase 1; the rest
    // wait for the upstream's control wavelet.
    const Dir m = movement_dir(c);
    const i32 axis = (m == Dir::East || m == Dir::West) ? coord.x : coord.y;
    phase1_ |= (axis % 2 == 0 || !upstream) ? b : u8{0};
  }
  if (diagonals_) {
    for (const Color c : kDiagonalColors) {
      upstream_ |= exists(diagonal_face(c)) ? bit(slot(c)) : u8{0};
    }
  }
  expected_ = std::popcount(upstream_);
  if (reliable()) {
    reliability_ = std::make_unique<Reliability>(block_length);
  }
}

HaloExchange::~HaloExchange() = default;

std::span<f32> HaloExchange::recv(Color color) const noexcept {
  const auto len = static_cast<usize>(block_length_);
  return {recv_.get() + slot(color) * len, len};
}

std::span<f32> HaloExchange::early(Color color) {
  const auto len = static_cast<usize>(block_length_);
  if (early_ == nullptr) {
    early_ = std::make_unique<f32[]>(8 * len);
  }
  return {early_.get() + slot(color) * len, len};
}

void HaloExchange::configure_router(wse::Router& router) const {
  for (const Color c : kCardinalColors) {
    const Role role = discipline_ != HaloDiscipline::Switch ? Role::PassThrough
                      : !has_upstream(c)                     ? Role::Edge
                      : (phase1_ & bit(cardinal_index(c))) != 0
                          ? Role::Phase1
                          : Role::Phase2;
    router.configure(c, switch_table(role, movement_dir(c)));
  }
  if (diagonals_) {
    for (const Color c : kDiagonalColors) {
      router.configure(c, switch_table(Role::PassThrough, movement_dir(c)));
    }
  }
  if (reliable()) {
    // NACKs travel one hop against the data flow: same static
    // pass-through shape as the halo colors.
    for (const Color c : kNackColors) {
      router.configure(c,
                       switch_table(Role::PassThrough, nack_movement_dir(c)));
    }
  }
}

bool HaloExchange::handles(Color color, bool control) const noexcept {
  if (control) {
    return discipline_ == HaloDiscipline::Switch && is_cardinal_color(color);
  }
  if (is_cardinal_color(color)) {
    return true;
  }
  if (is_diagonal_color(color)) {
    return diagonals_;
  }
  return reliable() && is_nack_color(color);
}

std::optional<obs::Phase> HaloExchange::phase(Color color,
                                              bool control) const noexcept {
  if (discipline_ == HaloDiscipline::Switch) {
    if (handles(color, control)) {
      return obs::Phase::Halo;
    }
    return std::nullopt;
  }
  if (is_nack_color(color)) {
    return obs::Phase::Reliability;
  }
  if (handles(color, false)) {
    return obs::Phase::Halo;
  }
  return std::nullopt;
}

void HaloExchange::send_declarations(
    std::vector<wse::SendDeclaration>& sends) const {
  for (const Color c : kCardinalColors) {
    // begin_round injects on every cardinal color unconditionally;
    // boundary traffic is absorbed at the wafer edge by design. Under
    // Switch the role-flipping control wavelet follows each block.
    sends.push_back({c, false});
    if (discipline_ == HaloDiscipline::Switch) {
      sends.push_back({c, true});
    }
    if (has_upstream(c)) {
      if (diagonals_) {
        sends.push_back({diagonal_forward_color(c), false});
      }
      if (reliable()) {
        sends.push_back({nack_color_toward(upstream_dir(c)), false});
      }
    }
  }
  if (reliable()) {
    for (const Color c : kDiagonalColors) {
      if (has_upstream(c)) {
        sends.push_back({nack_color_toward(upstream_dir(c)), false});
      }
    }
  }
}

void HaloExchange::channel_dependencies(
    std::vector<wse::ChannelDependency>& deps) const {
  const auto downstream_exists = [&](Dir move) {
    const Coord2 off = wse::dir_offset(move);
    const i32 nx = coord_.x + off.x;
    const i32 ny = coord_.y + off.y;
    return nx >= 0 && nx < fabric_.x && ny >= 0 && ny < fabric_.y;
  };
  for (const Color c : kCardinalColors) {
    if (has_upstream(c)) {
      if (discipline_ == HaloDiscipline::Switch &&
          (phase1_ & bit(cardinal_index(c))) == 0) {
        // Figure 6 phase-2 role: this PE sends only after the upstream's
        // control wavelet flips the switch (on_control gating). The
        // upstream is a phase-1 sender (or edge PE), so the chain ends.
        deps.push_back({c, c});
      }
      if (diagonals_) {
        // Figure 5 intermediary: the rotated forward is sent from inside
        // the cardinal block's handler.
        deps.push_back({c, diagonal_forward_color(c)});
      }
    }
    if (reliable() && downstream_exists(movement_dir(c))) {
      // Origin retransmit of the cardinal payload waits for the
      // downstream receiver's NACK. The NACK itself is watchdog-timer
      // triggered and therefore has no prerequisite: the wait chain ends
      // there.
      deps.push_back({nack_color_toward(upstream_dir(c)), c});
    }
  }
  if (reliable()) {
    for (const Color c : kDiagonalColors) {
      if (has_upstream(diagonal_source_color(c)) &&
          downstream_exists(movement_dir(c))) {
        // Intermediary retransmit of a forwarded diagonal block.
        deps.push_back({nack_color_toward(upstream_dir(c)), c});
      }
    }
  }
}

void HaloExchange::begin_round(PeApi& api, std::span<const f32> payload) {
  FVF_REQUIRE(static_cast<i32>(payload.size()) == block_length_);
  FVF_REQUIRE_MSG(!round_open_, "begin_round while a round is in flight");
  FVF_REQUIRE(client_ != nullptr);
  ++round_;
  done_this_round_ = 0;
  round_open_ = true;
  payload_ = payload.data();

  switch (discipline_) {
    case HaloDiscipline::Switch:
      sent_ = 0;
      // Phase-1 sends, plus phase-2 sends whose trigger control arrived
      // early.
      for (const Color c : kCardinalColors) {
        const usize i = cardinal_index(c);
        if ((phase1_ & bit(i)) != 0 || controls_[i] >= round_) {
          send_switch_block(api, c);
        }
      }
      break;
    case HaloDiscipline::Fifo:
      for (const Color c : kCardinalColors) {
        api.send(c, payload);
      }
      break;
    case HaloDiscipline::Reliable: {
      Reliability& r = *reliability_;
      r.retries = 0;
      r.retries_exhausted = false;
      // Keep the payload for cardinal retransmits.
      const usize parity = static_cast<usize>(round_) & 1;
      std::copy(payload.begin(), payload.end(), r.slot(parity).begin());
      r.resend_tag[parity] = round_;
      for (const Color c : kCardinalColors) {
        send_tagged(api, c, round_, payload);
      }
      break;
    }
  }

  // Blocks that arrived one round early are current now: move them into
  // their receive buffers (their FMOVs were charged on arrival) and hand
  // them over.
  for (const auto& group : {kCardinalColors, kDiagonalColors}) {
    for (const Color c : group) {
      const u8 b = bit(slot(c));
      if ((early_full_ & b) != 0) {
        const std::span<const f32> waiting = early(c);
        std::copy(waiting.begin(), waiting.end(), recv(c).begin());
        early_full_ &= static_cast<u8>(~b);
        deliver(api, c);
      }
    }
  }
  complete_if_done(api);
  if (reliable() && round_open_ && expected_ > 0) {
    arm_watchdog(api);
  }
}

void HaloExchange::send_switch_block(PeApi& api, Color color) {
  // Injection is halo traffic (it only costs PE cycles in the blocking-
  // send ablation, where the stall should not be booked as compute).
  api.set_phase(obs::Phase::Halo);
  api.send(color,
           std::span<const f32>(payload_, static_cast<usize>(block_length_)));
  api.send_control(color);
  sent_ |= bit(cardinal_index(color));
}

void HaloExchange::on_control(PeApi& api, Color color) {
  FVF_REQUIRE(handles(color, /*control=*/true));
  const usize i = cardinal_index(color);
  ++controls_[i];
  // Phase-2 senders transmit when their upstream's command arrives and
  // their block of the round is not sent yet; early commands (the
  // upstream running one round ahead) are honored at the next
  // begin_round. Completing a round is gated on having sent, so the
  // client's state can never advance past an unsent block.
  if ((phase1_ & bit(i)) == 0 && round_open_ && (sent_ & bit(i)) == 0 &&
      controls_[i] >= round_) {
    send_switch_block(api, color);
    complete_if_done(api);
  }
}

void HaloExchange::deliver(PeApi& api, Color color) {
  ++links_[slot(color)].processed;
  ++done_this_round_;
  if (discipline_ != HaloDiscipline::Switch) {
    // The block handler is the program's physics: its cycles are
    // compute, not halo traffic (profiler retag; no observable effect on
    // the run). A Switch client retags itself.
    api.set_phase(obs::Phase::LocalCompute);
  }
  client_->on_block(api, face_of(color), Dsd::of(recv(color)));
}

void HaloExchange::complete_if_done(PeApi& api) {
  // Under Switch a round also waits for this PE's own block on every
  // cardinal color: otherwise the client's state could advance while a
  // downstream neighbor still waits for the current state (the send
  // obligation).
  if (!round_open_ || done_this_round_ != expected_ ||
      (discipline_ == HaloDiscipline::Switch && sent_ != 0xF)) {
    return;
  }
  // Close the round before notifying: the client may begin the next.
  round_open_ = false;
  if (discipline_ != HaloDiscipline::Switch) {
    api.set_phase(obs::Phase::LocalCompute);
  }
  FaceBlocks blocks;
  for (const auto& group : {kCardinalColors, kDiagonalColors}) {
    for (const Color c : group) {
      if (has_upstream(c)) {
        blocks[static_cast<usize>(face_of(c))] = Dsd::of(recv(c));
      }
    }
  }
  client_->on_round_complete(api, blocks);
}

void HaloExchange::on_data(PeApi& api, Color color, Dir from,
                           std::span<const u32> data) {
  FVF_REQUIRE(handles(color, false));
  if (is_nack_color(color)) {
    on_nack(api, color, from, data);
    return;
  }
  FVF_REQUIRE_MSG(from == upstream_dir(color),
                  "halo block arrived from an unexpected link");
  FVF_REQUIRE_MSG(has_upstream(color),
                  "halo block from a nonexistent neighbor");
  if (reliable()) {
    on_data_reliable(api, color, data);
    return;
  }
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_length_);
  const u8 b = bit(slot(color));
  const i32 tag = links_[slot(color)].received++;
  FVF_REQUIRE_MSG((early_full_ & b) == 0, "halo receive buffer overrun");
  FVF_REQUIRE_MSG(tag <= round_, "neighbor ran more than 1 round ahead");

  // Drain the wavelets into PE memory (the FMOVs/cell of Table 4). A
  // block of the next round (the neighbor ran one round ahead) lands in
  // its early slot: this round's block stays in the receive buffer, where
  // the client may read it until the next begin_round.
  const bool current = round_open_ && tag == round_ - 1;
  const std::span<f32> buf = current ? recv(color) : early(color);
  api.fmovs(Dsd::of(buf), FabricDsd::of(data));
  if (diagonals_ && is_cardinal_color(color)) {
    // Intermediary role (Figure 5): forward the block to the rotated
    // diagonal target immediately, overlapping our own partial flux.
    api.send(diagonal_forward_color(color), buf);
  }
  if (!current) {
    early_full_ |= b;
    return;
  }
  deliver(api, color);
  complete_if_done(api);
}

void HaloExchange::on_data_reliable(PeApi& api, Color color,
                                    std::span<const u32> data) {
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_length_ + 1);
  Reliability& r = *reliability_;
  const usize k = slot(color);
  Link& s = links_[k];
  const i32 tag = static_cast<i32>(unpack_f32(data[0]));
  if (tag <= s.processed) {
    // A retransmit raced the (stalled) original, or a spurious NACK was
    // answered: already consumed, drop.
    return;
  }
  // Every accepted block is of this round or of the next, and only the
  // next round's can wait: a second copy of it is a duplicate.
  if ((early_full_ & bit(k)) != 0 && tag == round_ + 1) {
    return;
  }
  if (tag > round_ + 1) {
    std::ostringstream os;
    os << "halo protocol violation at PE(" << coord_.x << ',' << coord_.y
       << "): color " << static_cast<int>(color.id()) << " block tagged "
       << tag << " while in round " << round_;
    api.report_protocol_error(os.str());
    return;
  }
  const bool current = round_open_ && tag == round_;
  FVF_REQUIRE_MSG(current || (early_full_ & bit(k)) == 0,
                  "halo receive buffer overrun");

  const std::span<f32> buf = current ? recv(color) : early(color);
  api.fmovs(Dsd::of(buf), FabricDsd::of(data.subspan(1)));
  if (r.nacked_tag[k] == tag) {
    // The block we actively requested arrived: a protocol-level
    // recovery. (If the original was merely stalled, not dropped, this
    // over-reports; FaultStats clamps against the drop count.)
    api.report_fault_recovered(1);
    r.nacked_tag[k] = 0;
  }
  if (diagonals_ && is_cardinal_color(color)) {
    // Intermediary role (Figure 5): forward for the diagonal second hop,
    // and keep a copy so a diagonal NACK can be answered.
    const Color fwd = diagonal_forward_color(color);
    const usize resend = 2 + 2 * diagonal_index(fwd) +
                         (static_cast<usize>(tag) & 1);
    std::copy(buf.begin(), buf.end(), r.slot(resend).begin());
    r.resend_tag[resend] = tag;
    send_tagged(api, fwd, tag, buf);
  }
  if (!current) {
    early_full_ |= bit(k);
    return;
  }
  deliver(api, color);
  complete_if_done(api);
}

void HaloExchange::send_tagged(PeApi& api, Color color, i32 tag,
                               std::span<const f32> payload) {
  // Wire format in reliable mode: [round tag | payload]. The two-span
  // send streams both straight from memory (no staging copy).
  const f32 tag_word = static_cast<f32>(tag);
  api.send(color, std::span<const f32>(&tag_word, 1), payload);
}

void HaloExchange::send_nack(PeApi& api, Color data_color, i32 tag) {
  const Color nack = nack_color_toward(upstream_dir(data_color));
  const std::array<f32, 2> request{static_cast<f32>(data_color.id()),
                                   static_cast<f32>(tag)};
  api.send(nack, request);
}

void HaloExchange::on_nack(PeApi& api, Color color, Dir from,
                           std::span<const u32> data) {
  FVF_REQUIRE(from == wse::opposite(nack_movement_dir(color)));
  FVF_REQUIRE(data.size() == 2);
  Reliability& r = *reliability_;
  const Color requested{static_cast<u8>(unpack_f32(data[0]))};
  const i32 tag = static_cast<i32>(unpack_f32(data[1]));
  const usize parity = static_cast<usize>(tag) & 1;
  // A cardinal request is answered from this PE's own payload; a stale
  // one (a payload no longer held) is impossible for a live neighbor,
  // which is never two rounds behind. A diagonal request this
  // intermediary cannot answer means it never received the cardinal
  // block itself: its own watchdog is recovering it, and the normal
  // forward path serves the target when it arrives (or the target
  // re-NACKs).
  usize resend = 0;
  if (is_cardinal_color(requested)) {
    resend = parity;
  } else if (is_diagonal_color(requested)) {
    resend = 2 + 2 * diagonal_index(requested) + parity;
  } else {
    return;
  }
  if (r.resend_tag[resend] == tag) {
    send_tagged(api, requested, tag, r.slot(resend));
  }
}

void HaloExchange::on_timer(PeApi& api, u32 tag) {
  if (!reliable() || reliability_->retries_exhausted) {
    return;
  }
  Reliability& r = *reliability_;
  if (!round_open_ || static_cast<i32>(tag) != round_) {
    return;  // stale watchdog from an already-completed round
  }
  if (r.retries >= kMaxRetries) {
    r.retries_exhausted = true;
    std::ostringstream os;
    os << "halo retransmit retries exhausted at PE(" << coord_.x << ','
       << coord_.y << ") after " << r.retries << " attempts in round "
       << round_;
    api.report_protocol_error(os.str());
    return;
  }
  ++r.retries;
  for (const auto& group : {kCardinalColors, kDiagonalColors}) {
    for (const Color c : group) {
      if (has_upstream(c) && links_[slot(c)].processed < round_) {
        send_nack(api, c, round_);
        r.nacked_tag[slot(c)] = round_;
      }
    }
  }
  arm_watchdog(api);
}

void HaloExchange::arm_watchdog(PeApi& api) {
  api.schedule_timer(kWatchdogCycles, static_cast<u32>(round_));
}

}  // namespace fvf::dataflow
