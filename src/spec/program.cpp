#include "spec/program.hpp"

#include <array>
#include <sstream>

#include "common/assert.hpp"

namespace fvf::spec {

using namespace dataflow;

namespace {

using wse::Color;
using wse::Dir;
using wse::Dsd;
using wse::PeApi;
using wse::PeCompute;

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
      nz_(nz),
      compiled_(std::move(compiled)),
      kernel_(std::move(kernel)) {
  FVF_REQUIRE(compiled_ != nullptr);
  FVF_REQUIRE(nz_ >= 1);
  const StencilSpec& spec = compiled_->spec();
  if (spec.exchange == ExchangeKind::None) {
    return;
  }
  // The spec's exchange kind picks the send discipline; reliability is a
  // launch binding of the static routes only.
  const HaloDiscipline discipline =
      spec.exchange == ExchangeKind::SwitchProtocol ? HaloDiscipline::Switch
      : bindings.reliability                        ? HaloDiscipline::Reliable
                                                    : HaloDiscipline::Fifo;
  exchange_.emplace(coord, fabric_size, compiled_->block_words() * nz_,
                    discipline, compiled_->nine_point(),
                    static_cast<HaloExchange::Client*>(this));
  if (spec.reduction) {
    FVF_REQUIRE_MSG(bindings.reduce.has_value(),
                    "spec '" << spec.name
                             << "' declares a reduction phase but the "
                                "launch supplied no AllReduce colors");
    allreduce_ = std::make_unique<wse::AllReduceSum>(
        *bindings.reduce, coord, fabric_size, spec.reduction->length,
        spec.reduction->op);
  }
}

StencilKernel& SpecPeProgram::require_kernel() const {
  FVF_REQUIRE_MSG(kernel_ != nullptr,
                  "spec '" << compiled_->name()
                           << "': program was loaded without a kernel and "
                              "can be linted but not run");
  return *kernel_;
}

bool SpecPeProgram::dropped(Color color, bool control) const noexcept {
  return !control && color == kEastData &&
         compiled_->spec().defects.drop_east_data_handler;
}

bool SpecPeProgram::to_exchange(Color color, bool control) const noexcept {
  return exchange_ && !dropped(color, control) &&
         exchange_->handles(color, control);
}

// --- wse::PeProgram dispatch ----------------------------------------------

void SpecPeProgram::on_data(PeApi& api, Color color, Dir from,
                            std::span<const u32> data) {
  if (to_exchange(color, false)) {
    exchange_->on_data(api, color, from, data);
    return;
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    allreduce_->on_data(api, color, from, data);
    return;
  }
  FVF_FAIL("PE(" << coord_.x << ',' << coord_.y << ") received data on color "
                 << static_cast<int>(color.id())
                 << " with no handler, exchange or allreduce bound to it");
}

void SpecPeProgram::on_control(PeApi& api, Color color, Dir) {
  FVF_REQUIRE_MSG(to_exchange(color, /*control=*/true),
                  "PE(" << coord_.x << ',' << coord_.y
                        << ") received a control wavelet on color "
                        << static_cast<int>(color.id())
                        << " with no handler bound to it");
  exchange_->on_control(api, color);
}

void SpecPeProgram::on_timer(PeApi& api, u32 tag) {
  FVF_REQUIRE_MSG(exchange_.has_value(),
                  "timer fired on a program without a halo exchange");
  exchange_->on_timer(api, tag);
}

bool SpecPeProgram::handles_color(Color color, bool control) const {
  return to_exchange(color, control) ||
         (!control && allreduce_ != nullptr && allreduce_->owns(color));
}

obs::Phase SpecPeProgram::task_phase(Color color, bool control,
                                     bool timer) const noexcept {
  if (timer) {
    // Timers belong to the halo exchange's retransmit watchdog.
    return obs::Phase::Reliability;
  }
  if (exchange_ && !dropped(color, control)) {
    if (const std::optional<obs::Phase> phase =
            exchange_->phase(color, control)) {
      return *phase;
    }
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    return obs::Phase::AllReduce;
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
  if (exchange_) {
    exchange_->configure_router(router);
  }
  if (allreduce_ != nullptr) {
    allreduce_->configure_router(router);
  }
}

void SpecPeProgram::send_declarations(
    std::vector<wse::SendDeclaration>& sends) const {
  if (!exchange_) {
    return;
  }
  exchange_->send_declarations(sends);
  if (allreduce_ != nullptr) {
    allreduce_->send_declarations(sends);
  }
}

void SpecPeProgram::channel_dependencies(
    std::vector<wse::ChannelDependency>& deps) const {
  if (!exchange_) {
    return;
  }
  exchange_->channel_dependencies(deps);
  if (allreduce_ == nullptr) {
    return;
  }
  allreduce_->channel_dependencies(deps);
  // Phase-structure bridge: the reduction contribution runs from round
  // completion (or later compute), so every tree send waits for each halo
  // arrival of the round. Halo sends of the *next* round are round-to-
  // round progress and deliberately undeclared.
  allreduce_->each_send_color([&](Color tree) {
    exchange_->each_upstream_color(
        [&](Color halo) { deps.push_back({halo, tree}); });
  });
}

std::vector<wse::ReductionDeclaration> SpecPeProgram::reduction_declarations()
    const {
  if (allreduce_ == nullptr) {
    return {};
  }
  return allreduce_->reduction_declarations();
}

std::string SpecPeProgram::describe_channel(Color color) const {
  if (!exchange_) {
    return {};
  }
  const StencilSpec& spec = compiled_->spec();
  std::ostringstream os;
  os << "declared by StencilSpec '" << spec.name << '\'';
  if (is_cardinal_color(color)) {
    os << " (exchange="
       << (spec.exchange == ExchangeKind::SwitchProtocol ? "switch-protocol"
                                                         : "static-halo")
       << ", block_words_per_cell=" << spec.block_words_per_cell << ')';
    return os.str();
  }
  if (is_diagonal_color(color) && compiled_->nine_point()) {
    os << " (shape=nine-point diagonal forward)";
    return os.str();
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    os << " (reduction: length=" << spec.reduction->length << ')';
    return os.str();
  }
  if (exchange_->reliable() && is_nack_color(color)) {
    os << " (halo reliability binding)";
    return os.str();
  }
  return {};
}

void SpecPeProgram::on_start(PeApi& api) {
  reserve_memory(api.memory());
  if (!exchange_) {
    api.signal_done();
    return;
  }
  apply(api, require_kernel().start(api));
}

// --- round driver ---------------------------------------------------------

void SpecPeProgram::on_block(PeApi& api, mesh::Face face, Dsd data) {
  require_kernel().on_block(api, face, data);
}

void SpecPeProgram::on_round_complete(PeApi& api,
                                      const HaloExchange::FaceBlocks& blocks) {
  apply(api, require_kernel().on_round_complete(api, blocks));
}

void SpecPeProgram::apply(PeApi& api, RoundOutcome outcome) {
  switch (outcome.action) {
    case RoundAction::Done:
      api.signal_done();
      return;
    case RoundAction::Continue:
      exchange_->begin_round(api, require_kernel().begin_round(api));
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
