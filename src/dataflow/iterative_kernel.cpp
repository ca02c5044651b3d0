#include "dataflow/iterative_kernel.hpp"

namespace fvf::dataflow {

IterativeKernelProgram::IterativeKernelProgram(Coord2 coord,
                                              Coord2 fabric_size)
    : coord_(coord), fabric_size_(fabric_size) {}

IterativeKernelProgram::~IterativeKernelProgram() = default;

void IterativeKernelProgram::use_halo_exchange(
    i32 block_length, HaloReliabilityOptions reliability) {
  FVF_REQUIRE_MSG(exchange_ == nullptr,
                  "use_halo_exchange called twice on one program");
  exchange_ = std::make_unique<HaloExchange>(coord_, fabric_size_,
                                             block_length, reliability);
  exchange_->set_handlers(
      [this](wse::PeApi& api, mesh::Face face, wse::Dsd block) {
        on_halo_block(api, face, block);
      },
      [this](wse::PeApi& api) { on_halo_complete(api); });
}

void IterativeKernelProgram::use_allreduce(wse::AllReduceColors colors,
                                           i32 length, wse::ReduceOp op) {
  FVF_REQUIRE_MSG(allreduce_ == nullptr,
                  "use_allreduce called twice on one program");
  allreduce_ = std::make_unique<wse::AllReduceSum>(colors, coord_,
                                                   fabric_size_, length, op);
}

void IterativeKernelProgram::bind_data(wse::Color color, obs::Phase phase) {
  FVF_REQUIRE_MSG(!bound(bound_data_, color),
                  "data color " << static_cast<int>(color.id())
                                << " bound twice");
  bound_data_ |= 1u << color.id();
  data_phase_[color.id()] = phase;
}

void IterativeKernelProgram::bind_control(wse::Color color, obs::Phase phase) {
  FVF_REQUIRE_MSG(!bound(bound_control_, color),
                  "control color " << static_cast<int>(color.id())
                                   << " bound twice");
  bound_control_ |= 1u << color.id();
  control_phase_[color.id()] = phase;
}

void IterativeKernelProgram::configure_router(wse::Router& router) {
  if (exchange_ != nullptr) {
    exchange_->configure_router(router);
  }
  if (allreduce_ != nullptr) {
    allreduce_->configure_router(router);
  }
  configure_routes(router);
}

void IterativeKernelProgram::on_start(wse::PeApi& api) {
  reserve_memory(api.memory());
  begin(api);
}

void IterativeKernelProgram::on_data(wse::PeApi& api, wse::Color color,
                                     wse::Dir from,
                                     std::span<const u32> data) {
  if (bound(bound_data_, color)) {
    on_bound_data(api, color, from, data);
    return;
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    allreduce_->on_data(api, color, from, data);
    return;
  }
  if (exchange_ != nullptr) {
    if (is_nack_color(color)) {
      exchange_->on_nack(api, color, from, data);
      return;
    }
    if (HaloExchange::owns(color)) {
      if (!exchange_->reliability().enabled) {
        FVF_REQUIRE(static_cast<i32>(data.size()) ==
                    exchange_->block_length());
      }
      exchange_->on_data(api, color, from, data);
      return;
    }
  }
  FVF_REQUIRE_MSG(false, "PE(" << coord_.x << ',' << coord_.y
                               << ") received data on color "
                               << static_cast<int>(color.id())
                               << " with no handler, exchange or allreduce "
                                  "bound to it");
}

void IterativeKernelProgram::on_control(wse::PeApi& api, wse::Color color,
                                        wse::Dir from) {
  FVF_REQUIRE_MSG(bound(bound_control_, color),
                  "PE(" << coord_.x << ',' << coord_.y
                        << ") received a control wavelet on color "
                        << static_cast<int>(color.id())
                        << " with no handler bound to it");
  on_bound_control(api, color, from);
}

obs::Phase IterativeKernelProgram::task_phase(wse::Color color, bool control,
                                              bool timer) const noexcept {
  if (timer) {
    // Timers belong to the halo exchange's retransmit watchdog.
    return obs::Phase::Reliability;
  }
  if (control) {
    if (bound(bound_control_, color)) {
      return control_phase_[color.id()];
    }
  } else if (bound(bound_data_, color)) {
    return data_phase_[color.id()];
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    return obs::Phase::AllReduce;
  }
  if (exchange_ != nullptr) {
    if (is_nack_color(color)) {
      return obs::Phase::Reliability;
    }
    if (HaloExchange::owns(color)) {
      return obs::Phase::Halo;
    }
  }
  return obs::Phase::LocalCompute;
}

bool IterativeKernelProgram::handles_color(wse::Color color,
                                           bool control) const {
  if (control) {
    return bound(bound_control_, color);
  }
  if (bound(bound_data_, color)) {
    return true;
  }
  if (allreduce_ != nullptr && allreduce_->owns(color)) {
    return true;
  }
  if (exchange_ != nullptr) {
    if (is_nack_color(color)) {
      return exchange_->reliability().enabled;
    }
    if (HaloExchange::owns(color)) {
      return true;
    }
  }
  return false;
}

std::vector<wse::SendDeclaration> IterativeKernelProgram::send_declarations()
    const {
  std::vector<wse::SendDeclaration> sends = program_send_declarations();
  if (exchange_ != nullptr) {
    const std::vector<wse::SendDeclaration> ex =
        exchange_->send_declarations();
    sends.insert(sends.end(), ex.begin(), ex.end());
  }
  if (allreduce_ != nullptr) {
    const std::vector<wse::SendDeclaration> ar =
        allreduce_->send_declarations();
    sends.insert(sends.end(), ar.begin(), ar.end());
  }
  return sends;
}

std::vector<wse::SendDeclaration>
IterativeKernelProgram::program_send_declarations() const {
  return {};
}

std::vector<wse::ChannelDependency>
IterativeKernelProgram::channel_dependencies() const {
  std::vector<wse::ChannelDependency> deps = program_channel_dependencies();
  if (exchange_ != nullptr) {
    const std::vector<wse::ChannelDependency> ex =
        exchange_->channel_dependencies();
    deps.insert(deps.end(), ex.begin(), ex.end());
  }
  if (allreduce_ != nullptr) {
    const std::vector<wse::ChannelDependency> ar =
        allreduce_->channel_dependencies();
    deps.insert(deps.end(), ar.begin(), ar.end());
    if (exchange_ != nullptr) {
      // Phase-structure bridge: the all-reduce contribution runs from
      // on_halo_complete (or later compute), so every tree send waits
      // for each halo arrival of the round. Halo sends of the *next*
      // round are round-to-round progress and deliberately undeclared.
      for (const wse::SendDeclaration& send :
           allreduce_->send_declarations()) {
        for (const wse::Color halo : exchange_->upstream_colors()) {
          deps.push_back({halo, send.color});
        }
      }
    }
  }
  return deps;
}

std::vector<wse::ReductionDeclaration>
IterativeKernelProgram::reduction_declarations() const {
  std::vector<wse::ReductionDeclaration> reductions =
      program_reduction_declarations();
  if (allreduce_ != nullptr) {
    const std::vector<wse::ReductionDeclaration> ar =
        allreduce_->reduction_declarations();
    reductions.insert(reductions.end(), ar.begin(), ar.end());
  }
  return reductions;
}

std::vector<wse::ChannelDependency>
IterativeKernelProgram::program_channel_dependencies() const {
  return {};
}

std::vector<wse::ReductionDeclaration>
IterativeKernelProgram::program_reduction_declarations() const {
  return {};
}

void IterativeKernelProgram::on_timer(wse::PeApi& api, u32 tag) {
  FVF_REQUIRE_MSG(exchange_ != nullptr,
                  "timer fired on a program without a halo exchange");
  exchange_->on_timer(api, tag);
}

void IterativeKernelProgram::on_halo_block(wse::PeApi&, mesh::Face,
                                           wse::Dsd) {
  FVF_REQUIRE_MSG(false,
                  "program attached a halo exchange but overrides neither "
                  "on_halo_block nor the block handler");
}

void IterativeKernelProgram::on_halo_complete(wse::PeApi&) {
  FVF_REQUIRE_MSG(false,
                  "program attached a halo exchange but does not override "
                  "on_halo_complete");
}

void IterativeKernelProgram::configure_routes(wse::Router&) {}

void IterativeKernelProgram::on_bound_data(wse::PeApi&, wse::Color color,
                                           wse::Dir, std::span<const u32>) {
  FVF_REQUIRE_MSG(false, "program bound data color "
                             << static_cast<int>(color.id())
                             << " but does not override on_bound_data");
}

void IterativeKernelProgram::on_bound_control(wse::PeApi&, wse::Color color,
                                              wse::Dir) {
  FVF_REQUIRE_MSG(false, "program bound control color "
                             << static_cast<int>(color.id())
                             << " but does not override on_bound_control");
}

}  // namespace fvf::dataflow
