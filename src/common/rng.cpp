#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace fvf {

f64 Xoshiro256::box_muller(f64 u1, f64 u2) noexcept {
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace fvf
