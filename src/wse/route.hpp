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
#include <atomic>
#include <mutex>
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

/// Packed route-entry format of a switch position (one u32 per input
/// link):
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

/// Full per-color configuration: up to kMaxPositions switch positions.
/// The positions are kept only in the packed route-entry format above,
/// kLinkCount words per position, inline. A ColorConfig is an immutable
/// value: routers hold an id into their fabric's RoutePool, which stores
/// each distinct configuration once, and keep the current position
/// themselves (see Router).
class ColorConfig {
 public:
  static constexpr usize kMaxPositions = 4;

  ColorConfig() = default;

  /// Packs `positions` once, at configure time: the engine then resolves
  /// a route with one load from the packed row of the current position
  /// instead of re-walking rule vectors.
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

  /// Packed route entries of switch position `position` (kLinkCount
  /// words, one per input link; 0 = the position does not accept that
  /// input). fvf::lint's routing graph is the union over every position:
  /// the switch state at an arbitrary run point is dynamic, so the
  /// conservative reachability model considers each position's rules.
  [[nodiscard]] const u32* packed_row(usize position) const noexcept {
    return packed_.data() + position * kLinkCount;
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

  [[nodiscard]] bool operator==(const ColorConfig&) const noexcept = default;

 private:
  std::array<u32, kMaxPositions * kLinkCount> packed_{};
  u8 count_ = 0;
};

/// A fabric's switch tables, each distinct ColorConfig stored once. A
/// wafer's routers configure only a handful of distinct tables (every
/// interior PE of a stencil program routes alike), so a router keeps a
/// 14-bit id per color instead of the table itself.
///
/// Fabric::load configures routers row-parallel, so intern() is safe to
/// call concurrently: published entries are immutable and found by hash
/// without a lock; only inserting a new table takes the mutex. Ids depend
/// on insertion order (and thus on thread timing) and are never
/// observable in a run's results.
class RoutePool {
 public:
  /// Width of a table id in a router's route word.
  static constexpr u32 kIdBits = 14;
  /// Id 0 is the unconfigured (all-zero) table; configured tables take
  /// ids 1 .. kMaxTables.
  static constexpr usize kMaxTables = (usize{1} << kIdBits) - 1;

  RoutePool();
  ~RoutePool();
  RoutePool(const RoutePool&) = delete;
  RoutePool& operator=(const RoutePool&) = delete;

  /// Id of the table equal to `config`, inserted on first sight.
  [[nodiscard]] u16 intern(const ColorConfig& config);

  /// The table with id `id`: 0, or a value intern() returned.
  [[nodiscard]] const ColorConfig& table(u16 id) const noexcept {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & kChunkMask].config;
  }

 private:
  static constexpr u32 kChunkBits = 6;
  static constexpr usize kChunkSize = usize{1} << kChunkBits;
  static constexpr usize kChunkMask = kChunkSize - 1;
  static constexpr usize kChunkCount = (kMaxTables + 1) / kChunkSize;
  static constexpr u32 kBucketBits = 8;

  struct Entry {
    ColorConfig config;
    /// Next id in this entry's hash bucket (0 ends the chain).
    u16 next = 0;
  };

  /// Id of the entry equal to `config` in bucket `bucket`, or 0.
  [[nodiscard]] u16 find(usize bucket, const ColorConfig& config) const noexcept;

  /// Entries live in fixed-size chunks that never move; a chunk pointer
  /// and a bucket head are published with release stores after the
  /// entries they reach are written.
  std::array<std::atomic<Entry*>, kChunkCount> chunks_{};
  std::array<std::atomic<u16>, usize{1} << kBucketBits> buckets_{};
  std::mutex insert_mutex_;
  usize size_ = 1;  ///< next free id; guarded by insert_mutex_
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
