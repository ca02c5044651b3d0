#include "dataflow/run_info.hpp"

#include <algorithm>

namespace fvf::dataflow {

void accumulate(RunInfo& into, const RunInfo& launch) {
  into.device_seconds += launch.device_seconds;
  into.makespan_cycles += launch.makespan_cycles;
  into.counters += launch.counters;
  for (usize i = 0; i < into.color_traffic.size(); ++i) {
    into.color_traffic[i] += launch.color_traffic[i];
  }
  into.max_pe_memory = std::max(into.max_pe_memory, launch.max_pe_memory);
  into.events_processed += launch.events_processed;
  into.pes_done += launch.pes_done;
  into.phase_cycles += launch.phase_cycles;
  into.pe_phase_cycles.clear();
  into.faults += launch.faults;
  into.trace_events_emitted += launch.trace_events_emitted;
  into.trace_records_dropped += launch.trace_records_dropped;
  into.errors_total += launch.errors_total;
  into.errors_suppressed += launch.errors_suppressed;
  into.errors.insert(into.errors.end(), launch.errors.begin(),
                     launch.errors.end());
  into.hazards_total += launch.hazards_total;
  into.hazards_suppressed += launch.hazards_suppressed;
  into.hazards.insert(into.hazards.end(), launch.hazards.begin(),
                      launch.hazards.end());
  into.event_queue_high_water =
      std::max(into.event_queue_high_water, launch.event_queue_high_water);
  into.payload_arena_bytes =
      std::max(into.payload_arena_bytes, launch.payload_arena_bytes);
  into.windows_stepped += launch.windows_stepped;
  into.payloads_rehomed += launch.payloads_rehomed;
}

}  // namespace fvf::dataflow
