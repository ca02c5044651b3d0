/// \file dsd.hpp
/// \brief Data Structure Descriptors: the WSE's vector registers.
///
/// A DSD describes a contiguous array (base address, length) that a single
/// vectorized instruction streams through (paper Section 5.3.3). The
/// simulator executes DSD operations element-wise on the PE's private
/// memory while charging per-element instruction counts and cycles.
#pragma once

#include <span>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf::wse {

/// A unit-stride view over f32 elements of a PE's private memory.
struct Dsd {
  f32* base = nullptr;
  i32 length = 0;

  [[nodiscard]] static Dsd of(std::span<f32> memory) noexcept {
    return Dsd{memory.data(), static_cast<i32>(memory.size())};
  }

  /// Sub-view starting at `offset` with `count` elements.
  [[nodiscard]] Dsd window(i32 offset, i32 count) const noexcept {
    FVF_ASSERT(offset >= 0 && count >= 0);
    FVF_ASSERT(offset + count <= length);
    return Dsd{base + offset, count};
  }

  [[nodiscard]] f32& at(i32 i) const noexcept {
    FVF_ASSERT(i >= 0 && i < length);
    return base[i];
  }
};

/// A read-only DSD over received fabric data (u32 wavelets holding f32).
struct FabricDsd {
  const u32* base = nullptr;
  i32 length = 0;

  [[nodiscard]] static FabricDsd of(std::span<const u32> data) noexcept {
    return FabricDsd{data.data(), static_cast<i32>(data.size())};
  }

  [[nodiscard]] FabricDsd window(i32 offset, i32 count) const noexcept {
    FVF_ASSERT(offset >= 0 && count >= 0 && offset + count <= length);
    return FabricDsd{base + offset, count};
  }
};

}  // namespace fvf::wse
