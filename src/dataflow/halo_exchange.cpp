#include "dataflow/halo_exchange.hpp"

#include <sstream>
#include <utility>

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

}  // namespace

HaloExchange::HaloExchange(Coord2 coord, Coord2 fabric_size, i32 block_length,
                           bool reliable)
    : coord_(coord),
      fabric_(fabric_size),
      block_length_(block_length),
      reliable_(reliable) {
  FVF_REQUIRE(block_length > 0);
  const usize n = static_cast<usize>(block_length);
  for (auto& buf : card_buf_) {
    buf.assign(n, 0.0f);
  }
  for (auto& buf : diag_buf_) {
    buf.assign(n, 0.0f);
  }
  const auto exists = [&](mesh::Face face) {
    const Coord3 off = mesh::face_offset(face);
    const i32 nx = coord_.x + off.x;
    const i32 ny = coord_.y + off.y;
    return nx >= 0 && nx < fabric_.x && ny >= 0 && ny < fabric_.y;
  };
  for (const Color c : kCardinalColors) {
    LinkState& s = card_[cardinal_index(c)];
    s.has_upstream = exists(cardinal_face(c));
    expected_cards_ += s.has_upstream;
  }
  for (const Color c : kDiagonalColors) {
    LinkState& s = diag_[diagonal_index(c)];
    s.has_upstream = exists(diagonal_face(c));
    expected_diags_ += s.has_upstream;
  }
}

void HaloExchange::configure_router(wse::Router& router) const {
  for (const Color c : kCardinalColors) {
    router.configure(c, ColorConfig({wse::position(
                            {RouteRule{Dir::Ramp, {movement_dir(c)}},
                             RouteRule{upstream_dir(c), {Dir::Ramp}}})}));
  }
  for (const Color c : kDiagonalColors) {
    router.configure(c, ColorConfig({wse::position(
                            {RouteRule{Dir::Ramp, {movement_dir(c)}},
                             RouteRule{upstream_dir(c), {Dir::Ramp}}})}));
  }
  if (reliable_) {
    // NACKs travel one hop against the data flow: same static
    // pass-through shape as the halo colors.
    for (const Color c : kNackColors) {
      const Dir move = nack_movement_dir(c);
      router.configure(
          c, ColorConfig({wse::position({RouteRule{Dir::Ramp, {move}},
                                         RouteRule{wse::opposite(move),
                                                   {Dir::Ramp}}})}));
    }
  }
}

std::vector<wse::SendDeclaration> HaloExchange::send_declarations() const {
  std::vector<wse::SendDeclaration> sends;
  for (const Color c : kCardinalColors) {
    // begin_round injects on every cardinal color unconditionally;
    // boundary traffic is absorbed at the wafer edge by design.
    sends.push_back({c, false});
    if (card_[cardinal_index(c)].has_upstream) {
      sends.push_back({diagonal_forward_color(c), false});
      if (reliable_) {
        sends.push_back({nack_color_toward(upstream_dir(c)), false});
      }
    }
  }
  if (reliable_) {
    for (const Color c : kDiagonalColors) {
      if (diag_[diagonal_index(c)].has_upstream) {
        sends.push_back({nack_color_toward(upstream_dir(c)), false});
      }
    }
  }
  return sends;
}

std::vector<wse::ChannelDependency> HaloExchange::channel_dependencies()
    const {
  std::vector<wse::ChannelDependency> deps;
  const auto downstream_exists = [&](Dir move) {
    const Coord2 off = wse::dir_offset(move);
    const i32 nx = coord_.x + off.x;
    const i32 ny = coord_.y + off.y;
    return nx >= 0 && nx < fabric_.x && ny >= 0 && ny < fabric_.y;
  };
  for (const Color c : kCardinalColors) {
    if (card_[cardinal_index(c)].has_upstream) {
      // Figure 5 intermediary: the rotated forward is sent from inside
      // the cardinal block's handler.
      deps.push_back({c, diagonal_forward_color(c)});
    }
    if (reliable_ && downstream_exists(movement_dir(c))) {
      // Origin retransmit of the cardinal payload waits for the
      // downstream receiver's NACK. The NACK itself is watchdog-timer
      // triggered and therefore has no prerequisite: the wait chain ends
      // there.
      deps.push_back({nack_color_toward(upstream_dir(c)), c});
    }
  }
  if (reliable_) {
    for (const Color c : kDiagonalColors) {
      const Color source = diagonal_source_color(c);
      if (card_[cardinal_index(source)].has_upstream &&
          downstream_exists(movement_dir(c))) {
        // Intermediary retransmit of a forwarded diagonal block.
        deps.push_back({nack_color_toward(upstream_dir(c)), c});
      }
    }
  }
  return deps;
}

std::vector<wse::Color> HaloExchange::upstream_colors() const {
  std::vector<Color> colors;
  for (const Color c : kCardinalColors) {
    if (card_[cardinal_index(c)].has_upstream) {
      colors.push_back(c);
    }
  }
  for (const Color c : kDiagonalColors) {
    if (diag_[diagonal_index(c)].has_upstream) {
      colors.push_back(c);
    }
  }
  return colors;
}

void HaloExchange::set_handlers(BlockHandler on_block,
                                RoundHandler on_round_complete) {
  on_block_ = std::move(on_block);
  on_round_complete_ = std::move(on_round_complete);
}

void HaloExchange::begin_round(PeApi& api, std::span<const f32> payload) {
  FVF_REQUIRE(static_cast<i32>(payload.size()) == block_length_);
  FVF_REQUIRE_MSG(!round_open_, "begin_round while a round is in flight");
  FVF_REQUIRE(on_block_ != nullptr && on_round_complete_ != nullptr);
  ++round_;
  done_this_round_ = 0;
  round_open_ = true;

  if (reliable_) {
    retries_ = 0;
    retries_exhausted_ = false;
    // Keep the payload for cardinal retransmits (two-slot buffer indexed
    // by round parity; a NACK only ever asks for the current or the
    // previous round).
    const usize slot = static_cast<usize>(round_) & 1;
    origin_resend_[slot].assign(payload.begin(), payload.end());
    origin_tag_[slot] = round_;
    for (const Color c : kCardinalColors) {
      send_tagged(api, c, round_, payload);
    }
    for (const Color c : kCardinalColors) {
      try_process_reliable(api, c);
    }
    for (const Color c : kDiagonalColors) {
      try_process_reliable(api, c);
    }
    check_round_complete(api);
    if (round_open_ && expected_blocks() > 0) {
      arm_watchdog(api);
    }
    return;
  }

  for (const Color c : kCardinalColors) {
    api.send(c, payload);
  }
  // Blocks that arrived one round early are current now.
  for (const Color c : kCardinalColors) {
    LinkState& s = card_[cardinal_index(c)];
    if (s.buffered && s.processed == round_ - 1) {
      consume_block(api, c);
    }
  }
  for (const Color c : kDiagonalColors) {
    LinkState& s = diag_[diagonal_index(c)];
    if (s.buffered && s.processed == round_ - 1) {
      consume_block(api, c);
    }
  }
  check_round_complete(api);
}

void HaloExchange::consume_block(PeApi& api, Color color) {
  LinkState& s = link(color);
  FVF_ASSERT(s.buffered);
  std::vector<f32>& buf = buffer(color);
  if (!s.pending.empty()) {
    // An early block: the previous round's view may die now.
    std::swap(buf, s.pending.front().data);
    s.pending.clear();
  }
  // The block handler is the program's physics: its cycles are compute,
  // not halo traffic (profiler retag; no observable effect on the run).
  api.set_phase(obs::Phase::LocalCompute);
  on_block_(api, face_of(color), Dsd::of(buf));
  ++s.processed;
  s.buffered = false;
  ++done_this_round_;
}

std::array<std::optional<Dsd>, mesh::kFaceCount> HaloExchange::round_blocks() {
  std::array<std::optional<Dsd>, mesh::kFaceCount> blocks;
  for (const auto& colors : {kCardinalColors, kDiagonalColors}) {
    for (const Color c : colors) {
      if (link(c).has_upstream) {
        blocks[static_cast<usize>(face_of(c))] = Dsd::of(buffer(c));
      }
    }
  }
  return blocks;
}

void HaloExchange::on_data(PeApi& api, Color color, Dir from,
                           std::span<const u32> data) {
  FVF_REQUIRE(owns(color));
  FVF_REQUIRE(from == upstream_dir(color));
  if (reliable_) {
    on_data_reliable(api, color, data);
    return;
  }
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_length_);

  LinkState& s = link(color);
  FVF_REQUIRE_MSG(s.has_upstream, "halo block from a nonexistent neighbor");
  const i32 tag = s.received;
  ++s.received;
  FVF_REQUIRE_MSG(!s.buffered, "halo receive buffer overrun");
  FVF_REQUIRE_MSG(tag <= round_, "neighbor ran more than 1 round ahead");

  // A block of the next round (the neighbor ran one round ahead) waits
  // outside the per-face buffer, whose view stays valid until the next
  // begin_round; consume_block moves it in.
  std::vector<f32>* buf = &buffer(color);
  if (tag == round_) {
    s.pending.push_back(
        {tag, std::vector<f32>(static_cast<usize>(block_length_))});
    buf = &s.pending.back().data;
  }
  api.fmovs(Dsd::of(*buf), FabricDsd::of(data));
  s.buffered = true;
  if (is_cardinal_color(color)) {
    // Intermediary role (Figure 5): forward for the diagonal second hop.
    api.send(diagonal_forward_color(color), *buf);
  }
  if (round_open_ && tag == round_ - 1) {
    consume_block(api, color);
    check_round_complete(api);
  }
}

void HaloExchange::on_data_reliable(PeApi& api, Color color,
                                    std::span<const u32> data) {
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_length_ + 1);
  LinkState& s = link(color);
  FVF_REQUIRE_MSG(s.has_upstream, "halo block from a nonexistent neighbor");

  const i32 tag = static_cast<i32>(unpack_f32(data[0]));
  if (tag <= s.processed) {
    // A retransmit raced the (stalled) original, or a spurious NACK was
    // answered: already consumed, drop.
    return;
  }
  for (const Buffered& entry : s.pending) {
    if (entry.tag == tag) {
      return;
    }
  }
  if (tag > round_ + 1) {
    std::ostringstream os;
    os << "halo protocol violation at PE(" << coord_.x << ',' << coord_.y
       << "): color " << static_cast<int>(color.id()) << " block tagged "
       << tag << " while in round " << round_;
    api.report_protocol_error(os.str());
    return;
  }
  FVF_REQUIRE_MSG(s.pending.size() < 2, "halo receive buffer overrun");

  Buffered entry;
  entry.tag = tag;
  entry.data.assign(static_cast<usize>(block_length_), 0.0f);
  api.fmovs(Dsd::of(entry.data), FabricDsd::of(data.subspan(1)));
  ++s.received;
  if (s.nacked_tag == tag) {
    // The block we actively requested arrived: a protocol-level
    // recovery. (If the original was merely stalled, not dropped, this
    // over-reports; FaultStats clamps against the drop count.)
    api.report_fault_recovered(1);
    s.nacked_tag = 0;
  }
  if (is_cardinal_color(color)) {
    // Intermediary role (Figure 5): forward for the diagonal second hop,
    // and keep a copy so a diagonal NACK can be answered.
    const Color fwd = diagonal_forward_color(color);
    const usize idx = diagonal_index(fwd);
    const usize slot = static_cast<usize>(tag) & 1;
    diag_resend_[idx][slot] = entry.data;
    diag_tag_[idx][slot] = tag;
    send_tagged(api, fwd, tag, entry.data);
  }
  s.pending.push_back(std::move(entry));
  try_process_reliable(api, color);
  check_round_complete(api);
}

void HaloExchange::try_process_reliable(PeApi& api, Color color) {
  if (!round_open_) {
    return;
  }
  LinkState& s = link(color);
  if (s.processed != round_ - 1) {
    return;
  }
  for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
    if (it->tag != round_) {
      continue;
    }
    // Move the block into the stable per-face buffer before notifying:
    // handler views must survive until the next begin_round (owners may
    // stash them), while the pending entry dies below.
    std::vector<f32>& buf = buffer(color);
    std::swap(buf, it->data);
    s.processed = round_;
    ++done_this_round_;
    s.pending.erase(it);
    api.set_phase(obs::Phase::LocalCompute);
    on_block_(api, face_of(color), Dsd::of(buf));
    return;
  }
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
  FVF_REQUIRE(reliable_);
  FVF_REQUIRE(is_nack_color(color));
  FVF_REQUIRE(from == wse::opposite(nack_movement_dir(color)));
  FVF_REQUIRE(data.size() == 2);
  const Color requested{static_cast<u8>(unpack_f32(data[0]))};
  const i32 tag = static_cast<i32>(unpack_f32(data[1]));
  const usize slot = static_cast<usize>(tag) & 1;
  if (is_cardinal_color(requested)) {
    if (origin_tag_[slot] == tag) {
      send_tagged(api, requested, tag, origin_resend_[slot]);
    }
    // else: stale request for a payload we no longer hold — impossible
    // for a live neighbor (it is never two rounds behind); drop.
  } else if (is_diagonal_color(requested)) {
    const usize idx = diagonal_index(requested);
    if (diag_tag_[idx][slot] == tag) {
      send_tagged(api, requested, tag, diag_resend_[idx][slot]);
    }
    // else: this intermediary never received the cardinal block itself.
    // Our own watchdog is recovering it; the normal forward path will
    // serve the diagonal target when it arrives, or the target re-NACKs.
  }
}

void HaloExchange::on_timer(PeApi& api, u32 tag) {
  if (!reliable_ || retries_exhausted_) {
    return;
  }
  if (!round_open_ || static_cast<i32>(tag) != round_) {
    return;  // stale watchdog from an already-completed round
  }
  if (retries_ >= kMaxRetries) {
    retries_exhausted_ = true;
    std::ostringstream os;
    os << "halo retransmit retries exhausted at PE(" << coord_.x << ','
       << coord_.y << ") after " << retries_ << " attempts in round "
       << round_;
    api.report_protocol_error(os.str());
    return;
  }
  ++retries_;
  for (const Color c : kCardinalColors) {
    LinkState& s = card_[cardinal_index(c)];
    if (s.has_upstream && s.processed < round_) {
      send_nack(api, c, round_);
      s.nacked_tag = round_;
    }
  }
  for (const Color c : kDiagonalColors) {
    LinkState& s = diag_[diagonal_index(c)];
    if (s.has_upstream && s.processed < round_) {
      send_nack(api, c, round_);
      s.nacked_tag = round_;
    }
  }
  arm_watchdog(api);
}

void HaloExchange::arm_watchdog(PeApi& api) {
  api.schedule_timer(kWatchdogCycles, static_cast<u32>(round_));
}

void HaloExchange::check_round_complete(PeApi& api) {
  if (round_open_ && done_this_round_ == expected_blocks()) {
    // Close the round before notifying: the handler may begin the next.
    round_open_ = false;
    // The completion hook continues the program (next phase/iteration).
    api.set_phase(obs::Phase::LocalCompute);
    on_round_complete_(api);
  }
}

}  // namespace fvf::dataflow
