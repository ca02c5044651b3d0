/// \file color_plan.hpp
/// \brief Layer 1 of the fvf::dataflow runtime: a registry/allocator for
///        the 16-color managed routing space.
///
/// Every fabric launch owns one ColorPlan (created by FabricHarness).
/// Program pipelines claim the color blocks their components need —
/// cardinal halo data, diagonal forwards, AllReduce trees, retransmit
/// NACKs — under a human-readable owner name. Conflicting claims (two
/// components asking for the same color) fail immediately with a
/// diagnostic naming both claimants, instead of silently corrupting the
/// routing tables; and after Fabric::load the harness audits that every
/// router-configured color was actually claimed, so a program wiring up
/// an unregistered color is caught at load time, not as a misrouted
/// wavelet mid-run.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "dataflow/colors.hpp"
#include "wse/collectives.hpp"

namespace fvf::dataflow {

/// A contiguous group of claimed colors.
struct ColorBlock {
  u8 base = 0;
  u8 count = 0;

  /// The i-th color of the block.
  [[nodiscard]] wse::Color at(u8 i) const;
  [[nodiscard]] bool contains(wse::Color c) const noexcept {
    return c.id() >= base && c.id() < base + count;
  }
};

/// Registry of the managed color space (colors 0..15). Colors above the
/// managed space (the WSE exposes Color::kMaxColors in total) are not
/// allocatable through the plan and fail the load-time audit if routed.
class ColorPlan {
 public:
  static constexpr u8 kManagedColors = ColorSpace::kManagedColors;

  ColorPlan() = default;

  /// Claims the specific block [base, base+count). Throws
  /// ContractViolation naming both claimants if any color is taken.
  ColorBlock claim(std::string_view owner, u8 base, u8 count);

  // --- canonical blocks (values fixed by dataflow/colors.hpp) -----------
  /// Cardinal data colors (kEastData..kSouthData).
  ColorBlock claim_cardinal(std::string_view owner);
  /// Diagonal forward colors (kDiagSouth..kDiagWest).
  ColorBlock claim_diagonal(std::string_view owner);
  /// The AllReduce tree block, typed for wse::AllReduceSum.
  wse::AllReduceColors claim_allreduce(std::string_view owner);
  /// The halo-reliability NACK colors (kNackEast..kNackSouth).
  ColorBlock claim_nack(std::string_view owner);

  [[nodiscard]] bool claimed(wse::Color c) const noexcept {
    return c.id() < kManagedColors && !owners_[c.id()].empty();
  }
  /// Owner name of a claimed color ("" when free or unmanaged).
  [[nodiscard]] std::string_view owner_of(wse::Color c) const noexcept {
    return c.id() < kManagedColors ? std::string_view(owners_[c.id()])
                                   : std::string_view{};
  }

  /// Human-readable color-space map, one line per color; used in every
  /// conflict/exhaustion/audit diagnostic.
  [[nodiscard]] std::string describe() const;

 private:
  std::array<std::string, kManagedColors> owners_{};
};

}  // namespace fvf::dataflow
