/// \file hash.hpp
/// \brief 64-bit FNV-1a: the one hash behind scenario hashes, cache keys,
///        spec shape digests and result digests.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace fvf {

/// The FNV-1a offset basis; every fresh hash chain starts here.
inline constexpr u64 kFnv1aSeed = 0xcbf29ce484222325ULL;
inline constexpr u64 kFnv1aPrime = 0x100000001b3ULL;

/// Chains the bytes of `bytes` onto `hash`.
[[nodiscard]] constexpr u64 fnv1a(std::string_view bytes,
                                  u64 hash = kFnv1aSeed) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<u8>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Chains the eight bytes of `value`, least significant first, onto
/// `hash` (for composite keys and bit-pattern digests).
[[nodiscard]] constexpr u64 fnv1a_mix(u64 hash, u64 value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace fvf
