/// \file router.hpp
/// \brief A fabric router: per-color switch-table ids and positions plus
///        per-link traffic counters.
#pragma once

#include <array>
#include <limits>

#include "common/assert.hpp"
#include "wse/route.hpp"

namespace fvf::wse {

/// Router attached to one PE. Holds one route word per color — the id of
/// the color's switch table in the fabric's RoutePool plus the current
/// switch position — and counts traffic through each link. Per-color
/// traffic is counted fabric-wide (RunReport::color_traffic), not here.
class alignas(64) Router {
 public:
  /// configure_count() saturates here: a count this high means "at least
  /// this many".
  static constexpr u32 kMaxConfigureCount = std::numeric_limits<u8>::max();

  explicit Router(RoutePool& pool) noexcept : pool_(&pool) {}

  /// Installs (replaces) the configuration of a color, at position 0.
  void configure(Color color, const ColorConfig& config) {
    routes_[color.id()] =
        static_cast<u16>(pool_->intern(config) << kPositionBits);
    u8& count = configure_count_[color.id()];
    if (count < kMaxConfigureCount) {
      ++count;
    }
  }

  /// How many times configure() installed a config for `color`, up to
  /// kMaxConfigureCount. More than once means a later component silently
  /// replaced an earlier one's switch positions — traffic planned against
  /// the old position table would be routed by the new one. fvf::lint
  /// reports this as a switch-reconfiguration hazard.
  [[nodiscard]] u32 configure_count(Color color) const noexcept {
    return configure_count_[color.id()];
  }

  /// The color's switch table (unconfigured when never configured).
  [[nodiscard]] const ColorConfig& config(Color color) const noexcept {
    return pool_->table(routes_[color.id()] >> kPositionBits);
  }
  [[nodiscard]] bool configured(Color color) const noexcept {
    return routes_[color.id()] != 0;
  }
  [[nodiscard]] usize current_position(Color color) const noexcept {
    return routes_[color.id()] & kPositionMask;
  }

  /// Resolves the packed routing rule for a wavelet of `color` entering
  /// through `input` under the color's current switch position (0 = none).
  [[nodiscard]] u32 route(Color color, Dir input) const noexcept {
    const u16 word = routes_[color.id()];
    return pool_->table(word >> kPositionBits)
        .packed_row(word & kPositionMask)[static_cast<usize>(input)];
  }

  /// Advances the switch position of a color (control wavelet semantics),
  /// wrapping around; a no-op on an unconfigured color.
  void advance_switch(Color color) noexcept {
    u16& word = routes_[color.id()];
    const usize count = config(color).position_count();
    if (count != 0) {
      const usize next = ((word & kPositionMask) + 1) % count;
      word = static_cast<u16>((word & ~kPositionMask) | next);
    }
  }

  /// Wavelets through each output link.
  void count_output(Dir d, u64 wavelets) noexcept {
    traffic_out_[static_cast<usize>(d)] += wavelets;
  }
  /// Next value of this location's event birth-sequence counter. Lives
  /// here (not in a side array) so stamping a birth key touches the
  /// router line the pushed event's route was just resolved from. The
  /// counter is the low half of an EventQueue key, so it fails rather
  /// than wraps (a wrapped value would repeat an earlier birth key).
  [[nodiscard]] u32 next_birth_seq() {
    FVF_REQUIRE_MSG(birth_seq_ < kMaxBirthSeq,
                    "Router: event birth counter exhausted after "
                        << birth_seq_ << " events born at one location");
    return birth_seq_++;
  }

  /// Blocks parked in this router's input buffer (backpressure), over
  /// every color; after the run, the blocks stranded here. Kept on the
  /// router's first cache line so a control wavelet finds "nothing
  /// parked here" without a lookup.
  [[nodiscard]] u32 parked() const noexcept { return parked_; }
  void add_parked(u32 blocks) noexcept { parked_ += blocks; }
  void remove_parked(u32 blocks) noexcept { parked_ -= blocks; }

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
  /// A route word: table id in the high kIdBits bits, current position in
  /// the low kPositionBits.
  static constexpr u32 kPositionBits = 2;
  static constexpr u16 kPositionMask = (1u << kPositionBits) - 1;
  static_assert((usize{1} << kPositionBits) == ColorConfig::kMaxPositions);
  static_assert(kPositionBits + RoutePool::kIdBits == 16);

  static constexpr u32 kMaxBirthSeq = std::numeric_limits<u32>::max();

  // The route words, the pool pointer, the birth counter and the parked
  // count fill the first cache line: the event hot path resolves every
  // block from it (the engine prefetches it for the next event). The
  // link counters it bumps next and the load-time configure counts fill
  // the second.
  std::array<u16, Color::kMaxColors> routes_{};
  RoutePool* pool_;
  u32 birth_seq_ = 0;
  u32 parked_ = 0;
  std::array<u64, kLinkCount> traffic_out_{};
  std::array<u8, Color::kMaxColors> configure_count_{};
};

}  // namespace fvf::wse
