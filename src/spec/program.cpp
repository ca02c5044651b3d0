#include "spec/program.hpp"

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

// Default StencilKernel hooks: reject calls so a kernel wired to the
// wrong exchange kind fails with a named hook, not a silent no-op.
void StencilKernel::local_compute(PeApi&, i32) {
  FVF_REQUIRE_MSG(false, "StencilKernel::local_compute not implemented");
}
StencilKernel::SendHalves StencilKernel::send_halves() const {
  FVF_REQUIRE_MSG(false, "StencilKernel::send_halves not implemented");
}
void StencilKernel::process_block(PeApi&, mesh::Face, Dsd) {
  FVF_REQUIRE_MSG(false, "StencilKernel::process_block not implemented");
}
void StencilKernel::finalize_round(PeApi&, const FaceBlocks&) {
  FVF_REQUIRE_MSG(false, "StencilKernel::finalize_round not implemented");
}
std::span<const f32> StencilKernel::begin_round(PeApi&) {
  FVF_REQUIRE_MSG(false, "StencilKernel::begin_round not implemented");
}
void StencilKernel::on_block(PeApi&, mesh::Face, Dsd) {
  FVF_REQUIRE_MSG(false, "StencilKernel::on_block not implemented");
}
RoundOutcome StencilKernel::on_round_complete(PeApi&) {
  FVF_REQUIRE_MSG(false,
                  "StencilKernel::on_round_complete not implemented");
}
RoundAction StencilKernel::on_reduced(PeApi&, f32) {
  FVF_REQUIRE_MSG(false, "StencilKernel::on_reduced not implemented");
}

SpecPeProgram::SpecPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                             std::shared_ptr<const CompiledSpec> compiled,
                             LaunchBindings bindings,
                             std::unique_ptr<StencilKernel> kernel)
    : IterativeKernelProgram(coord, fabric_size),
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
      recv_.assign(8 * static_cast<usize>(block_len_), 0.0f);

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

      // Declarative dispatch: the cardinal exchange plus its control
      // wavelets, and the diagonal forwards when the shape has corners.
      // All of it is halo traffic for the profiler; the handlers retag
      // themselves when they hand a drained block to the kernel.
      for (const Color c : kCardinalColors) {
        if (!(spec.defects.drop_east_data_handler && c == kEastData)) {
          bind_data(c, obs::Phase::Halo);
        }
        bind_control(c, obs::Phase::Halo);
      }
      if (nine_point_) {
        for (const Color c : kDiagonalColors) {
          bind_data(c, obs::Phase::Halo);
        }
      }
      break;
    }

    case ExchangeKind::StaticHalo: {
      reliability_enabled_ = bindings.reliability.enabled;
      use_halo_exchange(block_len_, bindings.reliability);
      if (spec.reduction) {
        reduce_colors_ = bindings.reduce;
        FVF_REQUIRE_MSG(bindings.reduce.has_value(),
                        "spec '" << spec.name
                                 << "' declares a reduction phase but the "
                                    "launch supplied no AllReduce colors");
        use_allreduce(*bindings.reduce, spec.reduction->length,
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
  return std::span<f32>(recv_).subspan(cardinal_index(color) * len, len);
}

std::span<f32> SpecPeProgram::diag_buf(Color color) noexcept {
  const auto len = static_cast<usize>(block_len_);
  return std::span<f32>(recv_).subspan((4 + diagonal_index(color)) * len, len);
}

void SpecPeProgram::on_bound_data(PeApi& api, Color color, Dir from,
                                  std::span<const u32> data) {
  if (is_cardinal_color(color)) {
    handle_cardinal(api, color, from, data);
  } else {
    handle_diagonal(api, color, from, data);
  }
}

void SpecPeProgram::on_bound_control(PeApi& api, Color color, Dir) {
  handle_control(api, color);
}

void SpecPeProgram::reserve_memory(wse::PeMemory& mem) {
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

void SpecPeProgram::configure_routes(wse::Router& router) {
  if (compiled_->spec().exchange != ExchangeKind::SwitchProtocol) {
    return;  // None: no colors; StaticHalo: the component owns its routes.
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

std::vector<wse::SendDeclaration> SpecPeProgram::program_send_declarations()
    const {
  if (compiled_->spec().exchange != ExchangeKind::SwitchProtocol) {
    return {};
  }
  // Figure 6: every PE sends one block plus the role-flipping control
  // wavelet on each cardinal color, and forwards received blocks on the
  // rotated diagonal color (Figure 5 intermediary role).
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

std::vector<wse::ChannelDependency>
SpecPeProgram::program_channel_dependencies() const {
  if (compiled_->spec().exchange != ExchangeKind::SwitchProtocol) {
    return {};  // StaticHalo orderings come from the attached components.
  }
  std::vector<wse::ChannelDependency> deps;
  for (const Color c : kCardinalColors) {
    const CardinalState& cs = card_[cardinal_index(c)];
    if (!cs.has_upstream) {
      continue;
    }
    if (!cs.phase1_sender) {
      // Figure 6 phase-2 role: this PE sends only after the upstream's
      // control wavelet flips the switch (handle_control gating). The
      // upstream is a phase-1 sender (or edge PE), so the chain ends.
      deps.push_back({c, c});
    }
    if (nine_point_) {
      // Figure 5 intermediary: the diagonal forward is sent from inside
      // handle_cardinal, after the cardinal block arrives.
      deps.push_back({c, diagonal_forward_color(c)});
    }
  }
  return deps;
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
       << ", block_words_per_cell=" << spec.block_words_per_cell;
    if (spec.exchange == ExchangeKind::SwitchProtocol) {
      os << ", rounds=" << spec.rounds;
    }
    os << ')';
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

void SpecPeProgram::begin(PeApi& api) {
  switch (compiled_->spec().exchange) {
    case ExchangeKind::None:
      require_kernel().local_compute(api, 0);
      api.signal_done();
      break;
    case ExchangeKind::SwitchProtocol:
      begin_iteration(api);
      check_completion(api);
      break;
    case ExchangeKind::StaticHalo:
      start_round(api);
      break;
  }
}

// --- switch-protocol machinery ------------------------------------------

void SpecPeProgram::send_block(PeApi& api, Color color) {
  CardinalState& cs = card_[cardinal_index(color)];
  // Injection is halo traffic (it only costs PE cycles in the blocking-
  // send ablation, where the stall should not be booked as compute).
  api.set_phase(obs::Phase::Halo);
  const StencilKernel::SendHalves halves = require_kernel().send_halves();
  api.send(color, halves.first, halves.second);
  api.send_control(color);
  ++cs.sends;
}

void SpecPeProgram::begin_iteration(PeApi& api) {
  cards_processed_this_round_ = 0;
  diags_processed_this_round_ = 0;

  require_kernel().local_compute(api, round_);

  // Phase-1 sends, plus phase-2 sends whose trigger control arrived early.
  for (const Color c : kCardinalColors) {
    CardinalState& cs = card_[cardinal_index(c)];
    if (cs.sends == round_ && (cs.phase1_sender || cs.controls > cs.sends)) {
      send_block(api, c);
    }
  }

  // Blocks that arrived one iteration early are now current: consume them.
  for (const Color c : kCardinalColors) {
    CardinalState& cs = card_[cardinal_index(c)];
    if (cs.buffered && cs.processed == round_) {
      process_cardinal(api, c);
    }
  }
  for (const Color c : kDiagonalColors) {
    DiagonalState& ds = diag_[diagonal_index(c)];
    if (ds.buffered && ds.processed == round_) {
      process_diagonal(api, c);
    }
  }
}

void SpecPeProgram::process_cardinal(PeApi& api, Color color) {
  CardinalState& cs = card_[cardinal_index(color)];
  FVF_ASSERT(cs.buffered && cs.processed == round_);
  require_kernel().process_block(api, cardinal_face(color),
                                 Dsd::of(card_buf(color)));
  ++cs.processed;
  cs.buffered = false;
  ++cards_processed_this_round_;
}

void SpecPeProgram::process_diagonal(PeApi& api, Color color) {
  DiagonalState& ds = diag_[diagonal_index(color)];
  FVF_ASSERT(ds.buffered && ds.processed == round_);
  require_kernel().process_block(api, diagonal_face(color),
                                 Dsd::of(diag_buf(color)));
  ++ds.processed;
  ds.buffered = false;
  ++diags_processed_this_round_;
}

void SpecPeProgram::finalize_round(PeApi& api) {
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
  require_kernel().finalize_round(api, blocks);
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

  // Drain the wavelets into PE memory (the FMOVs/cell of Table 4).
  const std::span<f32> buf = card_buf(color);
  api.fmovs(Dsd::of(buf), FabricDsd::of(data));
  cs.buffered = true;

  // Intermediary role (Figure 5): forward the block to the rotated
  // diagonal target immediately, overlapping our own partial flux.
  if (nine_point_) {
    const usize half = static_cast<usize>(block_len_) / 2;
    api.send(diagonal_forward_color(color),
             std::span<const f32>(buf.data(), half),
             std::span<const f32>(buf.data() + half, half));
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

  const std::span<f32> buf = diag_buf(color);
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
  // begin_iteration. Completing an iteration is gated on having sent
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
  while (round_ < compiled_->spec().rounds &&
         cards_processed_this_round_ == expected_cards_ &&
         diags_processed_this_round_ == expected_diags_ &&
         all_sends_done()) {
    finalize_round(api);
    ++round_;
    if (round_ == compiled_->spec().rounds) {
      api.signal_done();
      return;
    }
    begin_iteration(api);
  }
}

// --- static-halo machinery ----------------------------------------------

void SpecPeProgram::start_round(PeApi& api) {
  const std::span<const f32> block = require_kernel().begin_round(api);
  FVF_REQUIRE(static_cast<i32>(block.size()) == block_len_);
  exchange().begin_round(api, block);
}

void SpecPeProgram::on_halo_block(PeApi& api, mesh::Face face, Dsd block) {
  require_kernel().on_block(api, face, block);
}

void SpecPeProgram::apply_action(PeApi& api, RoundAction action) {
  if (action == RoundAction::Done) {
    api.signal_done();
    return;
  }
  FVF_REQUIRE(action == RoundAction::Continue);
  ++round_;
  start_round(api);
}

void SpecPeProgram::on_halo_complete(PeApi& api) {
  const RoundOutcome outcome = require_kernel().on_round_complete(api);
  if (outcome.action == RoundAction::Reduce) {
    FVF_REQUIRE_MSG(compiled_->spec().reduction.has_value(),
                    "spec '" << compiled_->name()
                             << "': kernel requested a reduction but the "
                                "spec declares no reduction phase");
    const std::array<f32, 1> contrib{outcome.contribution};
    allreduce().contribute(api, contrib,
                           [this](PeApi& a, std::span<const f32> g) {
                             apply_action(a, require_kernel().on_reduced(
                                                 a, g[0]));
                           });
    return;
  }
  apply_action(api, outcome.action);
}

std::string SpecPeProgram::debug_state() const {
  std::ostringstream os;
  os << "PE(" << coord().x << ',' << coord().y << ") iter=" << round_
     << " cards=" << cards_processed_this_round_ << '/' << expected_cards_
     << " diags=" << diags_processed_this_round_ << '/' << expected_diags_;
  for (const Color c : kCardinalColors) {
    const CardinalState& cs = card_[cardinal_index(c)];
    os << " | c" << static_cast<int>(c.id())
       << (cs.phase1_sender ? " p1" : " p2") << " rx=" << cs.received
       << " proc=" << cs.processed << " ctl=" << cs.controls
       << " tx=" << cs.sends << (cs.buffered ? " buf" : "");
  }
  for (const Color c : kDiagonalColors) {
    const DiagonalState& ds = diag_[diagonal_index(c)];
    if (ds.expected) {
      os << " | d" << static_cast<int>(c.id()) << " rx=" << ds.received
         << " proc=" << ds.processed << (ds.buffered ? " buf" : "");
    }
  }
  return os.str();
}

}  // namespace fvf::spec
