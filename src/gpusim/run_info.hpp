/// \file run_info.hpp
/// \brief Device-side accounting of a gpusim run — the GPU analog of
///        dataflow::RunInfo, which spec::execute fills and the api's
///        gpusim results carry.
#pragma once

#include <algorithm>

#include "common/types.hpp"
#include "wse/counters.hpp"

namespace fvf::gpusim {

struct GpuRunInfo {
  /// Simulated device timeline: the roofline duration of every launch.
  f64 device_seconds = 0.0;
  u64 kernels_launched = 0;
  /// Theoretical occupancy of the block shape.
  f64 occupancy = 0.0;
  /// What the kernels charged, summed over every PE column: the fabric's
  /// counters minus its fabric-only work (receives, wavelets, tasks and
  /// the all-reduce tree's combines).
  wse::PeCounters counters{};
};

/// Accumulates a sub-run's accounting (the IMPES windows sum their CG and
/// transport runs the way dataflow::accumulate sums fabric launches).
inline void accumulate(GpuRunInfo& into, const GpuRunInfo& launch) {
  into.device_seconds += launch.device_seconds;
  into.kernels_launched += launch.kernels_launched;
  into.occupancy = std::max(into.occupancy, launch.occupancy);
  into.counters += launch.counters;
}

}  // namespace fvf::gpusim
