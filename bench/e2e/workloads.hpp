/// \file workloads.hpp
/// \brief The four workloads of the end-to-end benchmark (README.md says
///        why each was chosen and which layers it stresses).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "e2e.hpp"

namespace fvf::e2e {

class Workload {
 public:
  virtual ~Workload() = default;

  /// The one-time work a user pays before the first scenario, done as
  /// many times as the workload can repeat it in one process; returns the
  /// wall seconds of each. Throws when a set-up itself fails.
  virtual std::vector<f64> setup(SpanLog& spans) = 0;

  /// Times scenarios for at least `seconds` (and at least the minimum
  /// rep count), checks every result against its oracle, and fills
  /// `report` with the end-to-end metrics and, when `spans` records, the
  /// per-layer metrics.
  virtual void run(f64 seconds, SpanLog& spans, Report& report) = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload on `seed`'s inputs; `smoke` shrinks every size so
/// the whole set runs in seconds. nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      u64 seed, bool smoke);

}  // namespace fvf::e2e
