#include "spec/program.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace fvf::spec {

using namespace dataflow;

namespace {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::Dsd;
using wse::FabricDsd;
using wse::PeApi;
using wse::PeCompute;
using wse::RouteRule;

/// Coordinate of this PE along the movement axis of a cardinal color.
i32 axis_coord(Coord2 coord, Color color) {
  const Dir m = movement_dir(color);
  return (m == Dir::East || m == Dir::West) ? coord.x : coord.y;
}

bool neighbor_exists(Coord2 coord, Coord2 fabric, Dir d) {
  const Coord2 off = wse::dir_offset(d);
  const i32 nx = coord.x + off.x;
  const i32 ny = coord.y + off.y;
  return nx >= 0 && nx < fabric.x && ny >= 0 && ny < fabric.y;
}

}  // namespace

// Default StencilKernel hooks: reject calls so a kernel that misses a
// hook it is driven through fails with a named hook, not a silent no-op.
RoundOutcome StencilKernel::start(PeCompute&) {
  return RoundOutcome{RoundAction::Continue};
}
std::span<const f32> StencilKernel::begin_round(PeCompute&) {
  FVF_FAIL("StencilKernel::begin_round not implemented");
}
void StencilKernel::on_block(PeCompute&, mesh::Face, Dsd) {
  FVF_FAIL("StencilKernel::on_block not implemented");
}
RoundOutcome StencilKernel::on_round_complete(PeCompute&,
                                              const FaceBlocks&) {
  FVF_FAIL("StencilKernel::on_round_complete not implemented");
}
RoundOutcome StencilKernel::on_reduced(PeCompute&, f32) {
  FVF_FAIL("StencilKernel::on_reduced not implemented");
}

SpecPeProgram::SpecPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                             std::shared_ptr<const CompiledSpec> compiled,
                             LaunchBindings bindings,
                             std::unique_ptr<StencilKernel> kernel)
    : coord_(coord),
      compiled_(std::move(compiled)),
      kernel_(std::move(kernel)),
      nz_(nz) {
  FVF_REQUIRE(compiled_ != nullptr);
  FVF_REQUIRE(nz_ >= 1);
  nine_point_ = compiled_->nine_point();
  block_len_ = compiled_->block_words() * nz_;
  const StencilSpec& spec = compiled_->spec();

  switch (spec.exchange) {
    case ExchangeKind::None:
      break;

    case ExchangeKind::SwitchProtocol: {
      recv_ = std::make_unique<f32[]>(8 * static_cast<usize>(block_len_));

      // Communication roles (Figure 6): even PEs along a color's movement
      // axis — and edge PEs with no upstream — send in phase 1; the rest
      // wait for the upstream's control wavelet.
      expected_cards_ = 0;
      for (const Color c : kCardinalColors) {
        CardinalState& cs = card_[cardinal_index(c)];
        cs.has_upstream = neighbor_exists(coord, fabric_size, upstream_dir(c));
        cs.phase1_sender = (axis_coord(coord, c) % 2 == 0) || !cs.has_upstream;
        if (cs.has_upstream) {
          ++expected_cards_;
        }
      }
      expected_diags_ = 0;
      for (const Color c : kDiagonalColors) {
        DiagonalState& ds = diag_[diagonal_index(c)];
        const mesh::Face face = diagonal_face(c);
        const Coord3 off = mesh::face_offset(face);
        const i32 cx = coord.x + off.x;
        const i32 cy = coord.y + off.y;
        ds.expected = nine_point_ && cx >= 0 && cx < fabric_size.x &&
                      cy >= 0 && cy < fabric_size.y;
        if (ds.expected) {
          ++expected_diags_;
        }
      }
      break;
    }

    case ExchangeKind::StaticHalo: {
      reliability_enabled_ = bindings.reliability;
      exchange_ = std::make_unique<HaloExchange>(coord, fabric_size,
                                                 block_len_,
                                                 bindings.reliability);
      exchange_->set_handlers(
          [this](PeApi& api, mesh::Face face, Dsd block) {
            require_kernel().on_block(api, face, block);
          },
          [this](PeApi& api) {
            complete_round(api, exchange_->round_blocks());
          });
      if (spec.reduction) {
        reduce_colors_ = bindings.reduce;
        FVF_REQUIRE_MSG(bindings.reduce.has_value(),
                        "spec '" << spec.name
                                 << "' declares a reduction phase but the "
                                    "launch supplied no AllReduce colors");
        allreduce_ = std::make_unique<wse::AllReduceSum>(
            *bindings.reduce, coord, fabric_size, spec.reduction->length,
            spec.reduction->op);
      }
      break;
    }
  }
}

StencilKernel& SpecPeProgram::require_kernel() const {
  FVF_REQUIRE_MSG(kernel_ != nullptr,
                  "spec '" << compiled_->name()
                           << "': program was loaded without a kernel and "
                              "can be linted but not run");
  return *kernel_;
}

std::span<f32> SpecPeProgram::card_buf(Color color) noexcept {
  const auto len = static_cast<usize>(block_len_);
  return {recv_.get() + cardinal_index(color) * len, len};
}

std::span<f32> SpecPeProgram::diag_buf(Color color) noexcept {
  const auto len = static_cast<usize>(block_len_);
  return {recv_.get() + (4 + diagonal_index(color)) * len, len};
}

std::span<f32> SpecPeProgram::early_buf(usize slot) {
  const auto len = static_cast<usize>(block_len_);
  if (early_ == nullptr) {
    early_ = std::make_unique<f32[]>(8 * len);
  }
  return {early_.get() + slot * len, len};
}

bool SpecPeProgram::switch_handles_data(Color color) const noexcept {
  if (is_cardinal_color(color)) {
    return !(compiled_->spec().defects.drop_east_data_handler &&
             color == kEastData);
  }
  return nine_point_ && is_diagonal_color(color);
}

// --- wse::PeProgram dispatch ----------------------------------------------

void SpecPeProgram::on_data(PeApi& api, Color color, Dir from,
                            std::span<const u32> data) {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      break;
    case ExchangeKind::SwitchProtocol:
      if (switch_handles_data(color)) {
        if (is_cardinal_color(color)) {
          handle_cardinal(api, color, from, data);
        } else {
          handle_diagonal(api, color, from, data);
        }
        return;
      }
      break;
    case ExchangeKind::StaticHalo:
      if (allreduce_ != nullptr && allreduce_->owns(color)) {
        allreduce_->on_data(api, color, from, data);
        return;
      }
      if (is_nack_color(color)) {
        exchange_->on_nack(api, color, from, data);
        return;
      }
      if (HaloExchange::owns(color)) {
        exchange_->on_data(api, color, from, data);
        return;
      }
      break;
  }
  FVF_FAIL("PE(" << coord_.x << ',' << coord_.y << ") received data on color "
                 << static_cast<int>(color.id())
                 << " with no handler, exchange or allreduce bound to it");
}

void SpecPeProgram::on_control(PeApi& api, Color color, Dir) {
  FVF_REQUIRE_MSG(handles_color(color, /*control=*/true),
                  "PE(" << coord_.x << ',' << coord_.y
                        << ") received a control wavelet on color "
                        << static_cast<int>(color.id())
                        << " with no handler bound to it");
  handle_control(api, color);
}

void SpecPeProgram::on_timer(PeApi& api, u32 tag) {
  FVF_REQUIRE_MSG(exchange_ != nullptr,
                  "timer fired on a program without a halo exchange");
  exchange_->on_timer(api, tag);
}

bool SpecPeProgram::handles_color(Color color, bool control) const {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      return false;
    case ExchangeKind::SwitchProtocol:
      return control ? is_cardinal_color(color) : switch_handles_data(color);
    case ExchangeKind::StaticHalo:
      if (control) {
        return false;
      }
      if (allreduce_ != nullptr && allreduce_->owns(color)) {
        return true;
      }
      if (is_nack_color(color)) {
        return reliability_enabled_;
      }
      return HaloExchange::owns(color);
  }
  return false;
}

obs::Phase SpecPeProgram::task_phase(Color color, bool control,
                                     bool timer) const noexcept {
  if (timer) {
    // Timers belong to the halo exchange's retransmit watchdog.
    return obs::Phase::Reliability;
  }
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      break;
    case ExchangeKind::SwitchProtocol:
      // Cardinal control and every handled block are halo traffic; the
      // handlers retag themselves when they hand a block to the kernel.
      if (control ? is_cardinal_color(color) : switch_handles_data(color)) {
        return obs::Phase::Halo;
      }
      break;
    case ExchangeKind::StaticHalo:
      if (allreduce_ != nullptr && allreduce_->owns(color)) {
        return obs::Phase::AllReduce;
      }
      if (is_nack_color(color)) {
        return obs::Phase::Reliability;
      }
      if (HaloExchange::owns(color)) {
        return obs::Phase::Halo;
      }
      break;
  }
  return obs::Phase::LocalCompute;
}

void SpecPeProgram::reserve_memory(wse::PeMemory& mem) const {
  const usize n = static_cast<usize>(nz_);
  for (const FieldSpec& field : compiled_->spec().fields) {
    if (field.role == FieldRole::Code) {
      mem.reserve(field.bytes, field.name);
    } else {
      mem.reserve(static_cast<usize>(field.words_per_cell) * n * sizeof(f32),
                  field.name);
    }
  }
}

void SpecPeProgram::configure_router(wse::Router& router) {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      return;
    case ExchangeKind::StaticHalo:
      exchange_->configure_router(router);
      if (allreduce_ != nullptr) {
        allreduce_->configure_router(router);
      }
      return;
    case ExchangeKind::SwitchProtocol:
      break;
  }
  // Cardinal colors: the Figure 6 two-position switch protocol.
  for (const Color c : kCardinalColors) {
    const CardinalState& cs = card_[cardinal_index(c)];
    const Dir move = movement_dir(c);
    const Dir up = upstream_dir(c);
    if (!cs.has_upstream) {
      // Edge PE on the upstream side: nothing ever arrives, so a single
      // broadcast-root position suffices (its own control wraps in place).
      router.configure(c, ColorConfig({wse::position(Dir::Ramp, {move})}));
    } else if (cs.phase1_sender) {
      router.configure(c, ColorConfig({wse::position(Dir::Ramp, {move}),
                                       wse::position(up, {Dir::Ramp})}));
    } else {
      router.configure(c, ColorConfig({wse::position(up, {Dir::Ramp}),
                                       wse::position(Dir::Ramp, {move})}));
    }
  }
  // Diagonal forward colors: static pass-through routes.
  if (nine_point_) {
    for (const Color c : kDiagonalColors) {
      const Dir move = movement_dir(c);
      const Dir up = upstream_dir(c);
      router.configure(
          c, ColorConfig({wse::position({RouteRule{Dir::Ramp, {move}},
                                         RouteRule{up, {Dir::Ramp}}})}));
    }
  }
}

std::vector<wse::SendDeclaration> SpecPeProgram::send_declarations() const {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      return {};
    case ExchangeKind::SwitchProtocol: {
      // Figure 6: every PE sends one block plus the role-flipping control
      // wavelet on each cardinal color, and forwards received blocks on
      // the rotated diagonal color (Figure 5 intermediary role).
      std::vector<wse::SendDeclaration> sends;
      for (const Color c : kCardinalColors) {
        sends.push_back({c, false});
        sends.push_back({c, true});
        if (nine_point_ && card_[cardinal_index(c)].has_upstream) {
          sends.push_back({diagonal_forward_color(c), false});
        }
      }
      return sends;
    }
    case ExchangeKind::StaticHalo: {
      std::vector<wse::SendDeclaration> sends = exchange_->send_declarations();
      if (allreduce_ != nullptr) {
        const std::vector<wse::SendDeclaration> tree =
            allreduce_->send_declarations();
        sends.insert(sends.end(), tree.begin(), tree.end());
      }
      return sends;
    }
  }
  return {};
}

std::vector<wse::ChannelDependency> SpecPeProgram::channel_dependencies()
    const {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      return {};
    case ExchangeKind::SwitchProtocol: {
      std::vector<wse::ChannelDependency> deps;
      for (const Color c : kCardinalColors) {
        const CardinalState& cs = card_[cardinal_index(c)];
        if (!cs.has_upstream) {
          continue;
        }
        if (!cs.phase1_sender) {
          // Figure 6 phase-2 role: this PE sends only after the
          // upstream's control wavelet flips the switch (handle_control
          // gating). The upstream is a phase-1 sender (or edge PE), so
          // the chain ends.
          deps.push_back({c, c});
        }
        if (nine_point_) {
          // Figure 5 intermediary: the diagonal forward is sent from
          // inside handle_cardinal, after the cardinal block arrives.
          deps.push_back({c, diagonal_forward_color(c)});
        }
      }
      return deps;
    }
    case ExchangeKind::StaticHalo: {
      std::vector<wse::ChannelDependency> deps =
          exchange_->channel_dependencies();
      if (allreduce_ == nullptr) {
        return deps;
      }
      const std::vector<wse::ChannelDependency> tree =
          allreduce_->channel_dependencies();
      deps.insert(deps.end(), tree.begin(), tree.end());
      // Phase-structure bridge: the reduction contribution runs from
      // on_halo_complete (or later compute), so every tree send waits
      // for each halo arrival of the round. Halo sends of the *next*
      // round are round-to-round progress and deliberately undeclared.
      for (const wse::SendDeclaration& send :
           allreduce_->send_declarations()) {
        for (const Color halo : exchange_->upstream_colors()) {
          deps.push_back({halo, send.color});
        }
      }
      return deps;
    }
  }
  return {};
}

std::vector<wse::ReductionDeclaration> SpecPeProgram::reduction_declarations()
    const {
  if (allreduce_ == nullptr) {
    return {};
  }
  return allreduce_->reduction_declarations();
}

std::string SpecPeProgram::describe_channel(Color color) const {
  const StencilSpec& spec = compiled_->spec();
  if (spec.exchange == ExchangeKind::None) {
    return {};
  }
  std::ostringstream os;
  os << "declared by StencilSpec '" << spec.name << '\'';
  if (is_cardinal_color(color)) {
    os << " (exchange="
       << (spec.exchange == ExchangeKind::SwitchProtocol ? "switch-protocol"
                                                         : "static-halo")
       << ", block_words_per_cell=" << spec.block_words_per_cell << ')';
    return os.str();
  }
  if (is_diagonal_color(color) && nine_point_) {
    os << " (shape=nine-point diagonal forward)";
    return os.str();
  }
  if (reduce_colors_.has_value() &&
      (color == reduce_colors_->row_reduce ||
       color == reduce_colors_->col_reduce ||
       color == reduce_colors_->row_bcast ||
       color == reduce_colors_->col_bcast)) {
    os << " (reduction: length=" << spec.reduction->length << ')';
    return os.str();
  }
  if (reliability_enabled_ && is_nack_color(color)) {
    os << " (halo reliability binding)";
    return os.str();
  }
  return {};
}

void SpecPeProgram::on_start(PeApi& api) {
  reserve_memory(api.memory());
  if (compiled_->spec().exchange == ExchangeKind::None) {
    api.signal_done();
    return;
  }
  apply(api, require_kernel().start(api));
}

// --- switch-protocol machinery ------------------------------------------

void SpecPeProgram::send_block(PeApi& api, Color color) {
  CardinalState& cs = card_[cardinal_index(color)];
  // Injection is halo traffic (it only costs PE cycles in the blocking-
  // send ablation, where the stall should not be booked as compute).
  api.set_phase(obs::Phase::Halo);
  api.send(color, std::span<const f32>(block_, static_cast<usize>(block_len_)));
  api.send_control(color);
  ++cs.sends;
}

void SpecPeProgram::process_cardinal(PeApi& api, Color color) {
  CardinalState& cs = card_[cardinal_index(color)];
  FVF_ASSERT(cs.buffered && cs.processed == round_);
  require_kernel().on_block(api, cardinal_face(color),
                            Dsd::of(card_buf(color)));
  ++cs.processed;
  cs.buffered = false;
  ++cards_processed_this_round_;
}

void SpecPeProgram::process_diagonal(PeApi& api, Color color) {
  DiagonalState& ds = diag_[diagonal_index(color)];
  FVF_ASSERT(ds.buffered && ds.processed == round_);
  require_kernel().on_block(api, diagonal_face(color),
                            Dsd::of(diag_buf(color)));
  ++ds.processed;
  ds.buffered = false;
  ++diags_processed_this_round_;
}

void SpecPeProgram::handle_cardinal(PeApi& api, Color color, Dir from,
                                    std::span<const u32> data) {
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_len_);
  FVF_REQUIRE_MSG(from == upstream_dir(color),
                  "cardinal block arrived from unexpected link");
  CardinalState& cs = card_[cardinal_index(color)];
  const i32 tag = cs.received;
  ++cs.received;
  FVF_REQUIRE_MSG(!cs.buffered, "cardinal receive buffer overrun");
  FVF_REQUIRE_MSG(tag <= round_ + 1,
                  "neighbor ran more than 1 iteration ahead");

  // Drain the wavelets into PE memory (the FMOVs/cell of Table 4). A
  // block of the next round (the neighbor ran one round ahead) lands in
  // its early slot: this round's block stays in the receive buffer,
  // where the kernel may read it until the round completes.
  const std::span<f32> buf =
      tag == round_ ? card_buf(color) : early_buf(cardinal_index(color));
  api.fmovs(Dsd::of(buf), FabricDsd::of(data));
  cs.buffered = true;

  // Intermediary role (Figure 5): forward the block to the rotated
  // diagonal target immediately, overlapping our own partial flux.
  if (nine_point_) {
    api.send(diagonal_forward_color(color), buf);
  }

  if (tag == round_) {
    process_cardinal(api, color);
    check_completion(api);
  }
}

void SpecPeProgram::handle_diagonal(PeApi& api, Color color, Dir from,
                                    std::span<const u32> data) {
  FVF_REQUIRE(static_cast<i32>(data.size()) == block_len_);
  FVF_REQUIRE_MSG(from == upstream_dir(color),
                  "diagonal block arrived from unexpected link");
  DiagonalState& ds = diag_[diagonal_index(color)];
  FVF_REQUIRE_MSG(ds.expected, "unexpected diagonal block");
  const i32 tag = ds.received;
  ++ds.received;
  FVF_REQUIRE_MSG(!ds.buffered, "diagonal receive buffer overrun");
  FVF_REQUIRE_MSG(tag <= round_ + 1,
                  "corner ran more than 1 iteration ahead");

  const std::span<f32> buf =
      tag == round_ ? diag_buf(color) : early_buf(4 + diagonal_index(color));
  api.fmovs(Dsd::of(buf), FabricDsd::of(data));
  ds.buffered = true;

  if (tag == round_) {
    process_diagonal(api, color);
    check_completion(api);
  }
}

void SpecPeProgram::handle_control(PeApi& api, Color color) {
  CardinalState& cs = card_[cardinal_index(color)];
  ++cs.controls;
  // Phase-2 senders transmit when their upstream's command arrives and
  // their column state is current; early commands (the upstream running
  // one iteration ahead) are honored at the next iteration boundary in
  // start_round. Completing an iteration is gated on having sent
  // (check_completion), so the column state can never advance past an
  // unsent block.
  if (!cs.phase1_sender && cs.sends == round_ && cs.controls > cs.sends) {
    send_block(api, color);
    check_completion(api);
  }
}

void SpecPeProgram::check_completion(PeApi& api) {
  // An iteration is complete when all expected neighbor blocks have been
  // consumed AND this PE has sent its own block on every cardinal color —
  // otherwise the kernel state could advance while a downstream neighbor
  // still waits for the current state (the send obligation).
  const auto all_sends_done = [this] {
    for (const Color c : kCardinalColors) {
      if (card_[cardinal_index(c)].sends != round_ + 1) {
        return false;
      }
    }
    return true;
  };
  if (cards_processed_this_round_ != expected_cards_ ||
      diags_processed_this_round_ != expected_diags_ || !all_sends_done()) {
    return;
  }
  StencilKernel::FaceBlocks blocks;
  for (const Color c : kCardinalColors) {
    if (card_[cardinal_index(c)].has_upstream) {
      blocks[static_cast<usize>(cardinal_face(c))] = Dsd::of(card_buf(c));
    }
  }
  for (const Color c : kDiagonalColors) {
    if (diag_[diagonal_index(c)].expected) {
      blocks[static_cast<usize>(diagonal_face(c))] = Dsd::of(diag_buf(c));
    }
  }
  complete_round(api, blocks);
}

// --- round driver (both exchange kinds) ---------------------------------

void SpecPeProgram::start_round(PeApi& api) {
  const std::span<const f32> block = require_kernel().begin_round(api);
  FVF_REQUIRE(static_cast<i32>(block.size()) == block_len_);
  if (exchange_ != nullptr) {
    exchange_->begin_round(api, block);
    return;
  }
  block_ = block.data();
  cards_processed_this_round_ = 0;
  diags_processed_this_round_ = 0;

  // Phase-1 sends, plus phase-2 sends whose trigger control arrived early.
  for (const Color c : kCardinalColors) {
    CardinalState& cs = card_[cardinal_index(c)];
    if (cs.sends == round_ && (cs.phase1_sender || cs.controls > cs.sends)) {
      send_block(api, c);
    }
  }

  // Blocks that arrived one iteration early are now current: move them
  // into their receive buffers (their FMOVs were charged on arrival) and
  // consume them.
  for (const Color c : kCardinalColors) {
    CardinalState& cs = card_[cardinal_index(c)];
    if (cs.buffered && cs.processed == round_) {
      const std::span<const f32> early = early_buf(cardinal_index(c));
      std::copy(early.begin(), early.end(), card_buf(c).begin());
      process_cardinal(api, c);
    }
  }
  for (const Color c : kDiagonalColors) {
    DiagonalState& ds = diag_[diagonal_index(c)];
    if (ds.buffered && ds.processed == round_) {
      const std::span<const f32> early = early_buf(4 + diagonal_index(c));
      std::copy(early.begin(), early.end(), diag_buf(c).begin());
      process_diagonal(api, c);
    }
  }
  check_completion(api);
}

void SpecPeProgram::complete_round(PeApi& api,
                                   const StencilKernel::FaceBlocks& blocks) {
  ++round_;
  apply(api, require_kernel().on_round_complete(api, blocks));
}

void SpecPeProgram::apply(PeApi& api, RoundOutcome outcome) {
  switch (outcome.action) {
    case RoundAction::Done:
      api.signal_done();
      return;
    case RoundAction::Continue:
      start_round(api);
      return;
    case RoundAction::Reduce: {
      FVF_REQUIRE_MSG(compiled_->spec().reduction.has_value(),
                      "spec '" << compiled_->name()
                               << "': kernel requested a reduction but the "
                                  "spec declares no reduction phase");
      const std::array<f32, 1> contrib{outcome.contribution};
      allreduce_->contribute(api, contrib,
                             [this](PeApi& a, std::span<const f32> g) {
                               apply(a, require_kernel().on_reduced(a, g[0]));
                             });
      return;
    }
  }
}

}  // namespace fvf::spec
