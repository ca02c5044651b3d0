/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for reproducible
///        synthetic geomodels and test inputs.
///
/// All randomness in this repository flows through SplitMix64/Xoshiro256++
/// seeded explicitly, so every test, example, and benchmark is bit-for-bit
/// reproducible across runs and platforms.
#pragma once

#include <array>

#include "common/types.hpp"

namespace fvf {

/// SplitMix64: used for seeding and cheap scalar streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() noexcept {
    u64 z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// Xoshiro256++ — fast, high-quality, deterministic generator.
class Xoshiro256 {
 public:
  explicit Xoshiro256(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) {
      s = sm.next();
    }
  }

  u64 next() noexcept {
    const u64 result = rotl(state_[0] + state_[3], 23) + state_[0];
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  f64 uniform() noexcept {
    return static_cast<f64>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  f64 uniform(f64 lo, f64 hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  f64 normal() noexcept {
    const f64 u1 = normal_uniform();
    return box_muller(u1, uniform());
  }

  /// The first of the two uniforms normal() draws: u1 in (0, 1), a zero
  /// redrawn. Drawing it and then uniform() consumes the stream exactly
  /// as normal() does, so a caller can draw a sequence's uniforms in
  /// order and transform them later, in any order.
  f64 normal_uniform() noexcept {
    f64 u1 = uniform();
    while (u1 <= 0.0) {
      u1 = uniform();
    }
    return u1;
  }

  /// The Box–Muller transform normal() applies to its two uniforms.
  [[nodiscard]] static f64 box_muller(f64 u1, f64 u2) noexcept;

  /// Uniform integer in [0, bound) without modulo bias for small bounds.
  u64 below(u64 bound) noexcept { return bound ? next() % bound : 0; }

 private:
  static constexpr u64 rotl(u64 v, int k) noexcept {
    return (v << k) | (v >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

}  // namespace fvf
