/// \file hazard.hpp
/// \brief Dynamic in-PE memory hazard detection (`--hazard-check`): the
///        race-detector analogue for the dataflow machine.
///
/// The simulator's DSD operations execute element-wise over views of a
/// PE's private memory. Two classes of silent-corruption bugs live there:
///
///   1. *Partial dest/source overlap inside one instruction.* Exact
///      aliasing (dest is the same view as a source) is well defined —
///      element i reads only index i of each operand before writing it —
///      and the shipped kernels use it deliberately for memory reuse. A
///      *shifted* overlap is not: later iterations read elements the same
///      instruction already overwrote.
///   2. *Receive into a live buffer.* A handler keeps a view of a receive
///      buffer across tasks (HaloExchange hands out such views) while a
///      later fabric delivery (fmovs) overwrites the buffer underneath
///      it.
///
/// When ExecutionOptions::hazard_check is on, every DSD operation checks
/// its operands, and fmovs additionally checks its destination against
/// the ranges programs marked live via PeApi::hazard_mark_live. The
/// checks are pure observation — no clock, counter, or event-order
/// effect — so checked runs are bit-identical to unchecked ones; off (the
/// default) skips every lookup.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wse/dsd.hpp"

namespace fvf::wse {

/// Half-open byte range of PE memory covered by a DSD operand.
struct MemRange {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;

  [[nodiscard]] bool empty() const noexcept { return begin >= end; }
};

/// Byte footprint of a DSD view.
[[nodiscard]] inline MemRange range_of(Dsd d) noexcept {
  const auto base = reinterpret_cast<std::uintptr_t>(d.base);
  if (d.base == nullptr || d.length <= 0) {
    return MemRange{base, base};
  }
  const auto bytes = static_cast<std::uintptr_t>(d.length) * sizeof(f32);
  return MemRange{base, base + bytes};
}

[[nodiscard]] inline bool ranges_overlap(MemRange a, MemRange b) noexcept {
  return !a.empty() && !b.empty() && a.begin < b.end && b.begin < a.end;
}

/// Exact aliasing: the two views are the *same* view (base, length).
/// dest[i] then reads only index i of the source before writing it — the
/// element-wise loops are well defined, and the shipped kernels rely on
/// this for in-place updates (e.g. `fadds(acc, acc, operand)`).
[[nodiscard]] inline bool dsd_identical(Dsd a, Dsd b) noexcept {
  return a.base == b.base && a.length == b.length;
}

/// The hazardous case: operands overlap but are not exactly aliased.
[[nodiscard]] inline bool partial_overlap(Dsd dest, Dsd src) noexcept {
  return ranges_overlap(range_of(dest), range_of(src)) &&
         !dsd_identical(dest, src);
}

/// Per-PE detector state. Allocated only when hazard_check is on and only
/// touched by the tile that owns the PE's row, so parallel runs report
/// hazards identically to serial ones.
struct HazardState {
  struct LiveRange {
    MemRange range;
    std::string label;
  };

  /// Buffer views currently handed out to program code
  /// (PeApi::hazard_mark_live / hazard_release).
  std::vector<LiveRange> live;
  /// Tasks dispatched on this PE so far — the "dispatch epoch" hazard
  /// messages reference, so a report pinpoints *which* task collided.
  u64 epoch = 0;
};

}  // namespace fvf::wse
