/// \file route.hpp
/// \brief Per-color router configuration with switch positions.
///
/// A color's configuration on a router is a small set of *switch
/// positions*; exactly one position is current at any time. Each position
/// holds routing rules mapping an input link to a fan-out set of output
/// links. A control wavelet traversing the router advances the switch to
/// the next position — this is the mechanism Figure 6 of the paper uses to
/// alternate PEs between *Sending* and *Receiving* roles.
#pragma once

#include <array>
#include <vector>

#include "common/assert.hpp"
#include "wse/fabric_types.hpp"

namespace fvf::wse {

/// A single routing rule: wavelets entering through `input` leave through
/// every link in `outputs` (fan-out / local broadcast).
struct RouteRule {
  Dir input = Dir::Ramp;
  std::vector<Dir> outputs;
};

/// Packed route-entry format used by the engine's flat route table (one
/// u32 per (location, color, input link)):
///   bit 0        rule exists (0 means "no rule for this input")
///   bits 1..3    output fan-out count
///   bits 4..18   outputs, 3 bits per Dir
///   bit 19       the color has more than one switch position
inline constexpr u32 kRouteExistsBit = 1u;
inline constexpr u32 kRouteMultiPositionBit = 1u << 19;

/// Output fan-out count of a packed route entry.
[[nodiscard]] constexpr u32 route_output_count(u32 packed) noexcept {
  return (packed >> 1) & 7u;
}
/// Output `i` of a packed route entry, in configuration order.
[[nodiscard]] constexpr Dir route_output(u32 packed, u32 i) noexcept {
  return static_cast<Dir>((packed >> (4 + 3 * i)) & 7u);
}

/// One switch position: a set of routing rules active simultaneously.
/// Rules must have distinct inputs.
struct SwitchPosition {
  std::vector<RouteRule> rules;

  [[nodiscard]] const RouteRule* find(Dir input) const noexcept {
    for (const RouteRule& rule : rules) {
      if (rule.input == input) {
        return &rule;
      }
    }
    return nullptr;
  }
};

/// Full per-color configuration: up to kMaxPositions switch positions and
/// the index of the current one. The positions are kept only in the
/// packed route-entry format above, kLinkCount words per position, inline:
/// the engine's route mirror copies a position's words, and fvf::lint
/// reads them directly, so a configured color costs no heap at all.
class ColorConfig {
 public:
  static constexpr usize kMaxPositions = 4;

  ColorConfig() = default;

  /// Packs `positions` once, at configure time: a control wavelet
  /// advancing the switch then refreshes the engine's flat route table
  /// with a kLinkCount-word copy instead of re-walking rule vectors (the
  /// advance is on the event hot path for multi-position colors).
  explicit ColorConfig(const std::vector<SwitchPosition>& positions) {
    FVF_REQUIRE(!positions.empty());
    FVF_REQUIRE(positions.size() <= kMaxPositions);
    count_ = static_cast<u8>(positions.size());
    const u32 multi = positions.size() > 1 ? kRouteMultiPositionBit : 0u;
    for (usize p = 0; p < positions.size(); ++p) {
      for (const RouteRule& rule : positions[p].rules) {
        u32& word = packed_[p * kLinkCount + static_cast<usize>(rule.input)];
        // Every packed rule has its exists bit set, so a non-zero slot
        // means an earlier rule of this position took the input.
        FVF_REQUIRE_MSG(word == 0, "duplicate input link in switch position");
        FVF_REQUIRE(rule.outputs.size() <= kLinkCount);
        word = kRouteExistsBit | (static_cast<u32>(rule.outputs.size()) << 1) |
               multi;
        u32 shift = 4;
        for (const Dir out : rule.outputs) {
          word |= static_cast<u32>(out) << shift;
          shift += 3;
        }
      }
    }
  }

  [[nodiscard]] bool configured() const noexcept { return count_ != 0; }

  [[nodiscard]] usize position_count() const noexcept { return count_; }
  [[nodiscard]] usize current_position() const noexcept { return current_; }

  /// Packed routing rule for wavelets entering through `input` under the
  /// current position; 0 if the color does not accept that input now.
  [[nodiscard]] u32 route(Dir input) const noexcept {
    return packed_row()[static_cast<usize>(input)];
  }

  /// Advances the switch to the next position (wraps around). Invoked by
  /// control wavelets as they traverse the router.
  void advance() noexcept {
    if (count_ != 0) {
      current_ = static_cast<u8>((current_ + 1) % count_);
    }
  }

  void reset_position() noexcept { current_ = 0; }

  /// Packed route entries of switch position `position` (kLinkCount
  /// words, one per input link). fvf::lint's routing graph is the union
  /// over every position: the switch state at an arbitrary run point is
  /// dynamic, so the conservative reachability model considers each
  /// position's rules.
  [[nodiscard]] const u32* packed_row(usize position) const noexcept {
    return packed_.data() + position * kLinkCount;
  }
  /// The current position's packed route entries.
  [[nodiscard]] const u32* packed_row() const noexcept {
    return packed_row(current_);
  }

  /// The switch positions unpacked again, for inspection: each position's
  /// rules in input-link order, outputs in configuration order.
  [[nodiscard]] std::vector<SwitchPosition> decoded_positions() const {
    std::vector<SwitchPosition> positions(count_);
    for (usize p = 0; p < count_; ++p) {
      for (usize in = 0; in < kLinkCount; ++in) {
        const u32 word = packed_row(p)[in];
        if (word == 0) {
          continue;
        }
        RouteRule rule{static_cast<Dir>(in), {}};
        for (u32 i = 0; i < route_output_count(word); ++i) {
          rule.outputs.push_back(route_output(word, i));
        }
        positions[p].rules.push_back(std::move(rule));
      }
    }
    return positions;
  }

 private:
  std::array<u32, kMaxPositions * kLinkCount> packed_{};
  u8 count_ = 0;
  u8 current_ = 0;
};

/// Convenience builders for the common single-rule configurations.
[[nodiscard]] inline SwitchPosition position(Dir input,
                                             std::vector<Dir> outputs) {
  SwitchPosition pos;
  pos.rules.push_back(RouteRule{input, std::move(outputs)});
  return pos;
}

[[nodiscard]] inline SwitchPosition position(std::vector<RouteRule> rules) {
  SwitchPosition pos;
  pos.rules = std::move(rules);
  return pos;
}

}  // namespace fvf::wse
