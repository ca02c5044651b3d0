/// \file router.hpp
/// \brief A fabric router: per-color switch-position configurations plus
///        traversal statistics.
#pragma once

#include <array>

#include "wse/route.hpp"

namespace fvf::wse {

/// Router attached to one PE. Owns the routing configuration for every
/// color and counts traffic through each link.
class Router {
 public:
  /// Installs (replaces) the configuration of a color.
  void configure(Color color, ColorConfig config) {
    configs_[color.id()] = std::move(config);
    ++configure_count_[color.id()];
  }

  /// How many times configure() installed a config for `color`. More than
  /// once means a later component silently replaced an earlier one's
  /// switch positions — traffic planned against the old position table
  /// would be routed by the new one. fvf::lint reports this as a
  /// switch-reconfiguration hazard.
  [[nodiscard]] u32 configure_count(Color color) const noexcept {
    return configure_count_[color.id()];
  }

  [[nodiscard]] const ColorConfig& config(Color color) const noexcept {
    return configs_[color.id()];
  }
  [[nodiscard]] ColorConfig& config(Color color) noexcept {
    return configs_[color.id()];
  }

  /// Resolves the packed routing rule for a wavelet of `color` entering
  /// through `input` under the color's current switch position (0 = none).
  [[nodiscard]] u32 route(Color color, Dir input) const noexcept {
    return configs_[color.id()].route(input);
  }

  /// Advances the switch position of a color (control wavelet semantics).
  void advance_switch(Color color) noexcept { configs_[color.id()].advance(); }

  /// Traffic counters (wavelets through each output link / per color).
  void count_output(Dir d, u64 wavelets) noexcept {
    traffic_out_[static_cast<usize>(d)] += wavelets;
  }
  /// Next value of this location's event birth-sequence counter. Lives
  /// here (not in a side array) so stamping a birth key touches the same
  /// cache line as the traffic counters the push site just bumped.
  [[nodiscard]] u64 next_birth_seq() noexcept { return birth_seq_++; }

  /// A block failed the per-wavelet parity check at this router's Ramp
  /// and was dropped (fault detection; see wse/fault.hpp).
  void count_dropped() noexcept { ++blocks_dropped_; }
  [[nodiscard]] u64 blocks_dropped() const noexcept { return blocks_dropped_; }
  void count_color(Color color, u64 wavelets) noexcept {
    traffic_color_[color.id()] += wavelets;
  }
  [[nodiscard]] u64 traffic_of_color(Color color) const noexcept {
    return traffic_color_[color.id()];
  }
  [[nodiscard]] u64 traffic_out(Dir d) const noexcept {
    return traffic_out_[static_cast<usize>(d)];
  }
  [[nodiscard]] u64 total_fabric_traffic() const noexcept {
    u64 total = 0;
    for (const Dir d : kFabricDirs) {
      total += traffic_out(static_cast<Dir>(d));
    }
    return total;
  }

 private:
  // Traffic counters first: the event hot path bumps count_output and
  // count_color on every routed block, and with the low-id data colors
  // both land in the object's first cache line. The packed configs are
  // only read on the cold paths (table build, backpressure, errors).
  std::array<u64, kLinkCount> traffic_out_{};
  u64 blocks_dropped_ = 0;
  u64 birth_seq_ = 0;
  std::array<u64, Color::kMaxColors> traffic_color_{};
  std::array<ColorConfig, Color::kMaxColors> configs_{};
  std::array<u32, Color::kMaxColors> configure_count_{};
};

}  // namespace fvf::wse
