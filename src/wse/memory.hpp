/// \file memory.hpp
/// \brief Per-PE private memory ledger with a hard byte budget.
///
/// Each WSE-2 PE owns 48 KiB of single-level local SRAM holding code,
/// data, and communication buffers. Section 5.3.1 of the paper stresses
/// that minimising per-PE memory is what lets the largest problems fit;
/// this ledger enforces the budget. A fabric PE's ledger holds only its
/// budget and used-byte count: the simulator keeps program data in host
/// buffers, so a reservation is pure accounting and stores nothing. A
/// caller that wants the tagged breakdown (fvf::lint's memory report)
/// derives a ledger that overrides `record`.
#pragma once

#include <string_view>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf::wse {

/// Budget plus used-byte counter over a fixed-size private memory.
/// Reservations are permanent for the lifetime of a load (matching the
/// static buffer allocation style of CSL kernels); the *reuse*
/// optimisation is expressed by reserving one buffer and using it for
/// several purposes.
class PeMemory {
 public:
  /// WSE-2 PEs have 48 KiB of local memory.
  static constexpr usize kDefaultBudget = 48 * 1024;

  explicit PeMemory(usize budget_bytes = kDefaultBudget)
      : budget_(budget_bytes) {}
  PeMemory(const PeMemory&) = default;
  PeMemory(PeMemory&&) = default;
  PeMemory& operator=(const PeMemory&) = default;
  PeMemory& operator=(PeMemory&&) = default;
  virtual ~PeMemory() = default;

  /// Reserves bytes of the footprint under `tag` (code, runtime
  /// structures or data buffers). Throws, naming the tag, when the
  /// budget would be exceeded.
  void reserve(usize bytes, std::string_view tag) {
    FVF_REQUIRE_MSG(used_ + bytes <= budget_,
                    "PE memory budget exceeded reserving '"
                        << tag << "': " << used_ + bytes << " > " << budget_);
    used_ += bytes;
    record(tag, bytes);
  }

  [[nodiscard]] usize budget() const noexcept { return budget_; }
  [[nodiscard]] usize used() const noexcept { return used_; }
  [[nodiscard]] usize available() const noexcept { return budget_ - used_; }

 protected:
  /// Called after each successful reservation; the fabric's ledger
  /// keeps nothing.
  virtual void record(std::string_view /*tag*/, usize /*bytes*/) {}

 private:
  usize budget_;
  usize used_ = 0;
};

}  // namespace fvf::wse
