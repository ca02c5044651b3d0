#include "obs/perfetto.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/phase.hpp"

namespace fvf::obs {

namespace {

/// JSON has no Inf/NaN; exact %.17g keeps cycle stamps round-trippable.
std::string num(f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {
    os_ << "{\"displayTimeUnit\": \"ms\",\n"
        << "\"otherData\": {\"time_base\": \"1 us == 1 simulated cycle\"},\n"
        << "\"traceEvents\": [";
  }

  void begin_event() { os_ << (first_ ? "\n" : ",\n"); first_ = false; }

  void metadata(const char* what, i32 pid, i32 tid, bool with_tid,
                const std::string& name) {
    begin_event();
    os_ << "{\"ph\": \"M\", \"pid\": " << pid;
    if (with_tid) {
      os_ << ", \"tid\": " << tid;
    }
    os_ << ", \"name\": \"" << what << "\", \"args\": {\"name\": \"" << name
        << "\"}}";
  }

  void slice(i32 pid, i32 tid, f64 ts, f64 dur, std::string_view name) {
    begin_event();
    os_ << "{\"ph\": \"X\", \"cat\": \"phase\", \"pid\": " << pid
        << ", \"tid\": " << tid << ", \"ts\": " << num(ts)
        << ", \"dur\": " << num(dur) << ", \"name\": \"" << name << "\"}";
  }

  void instant(i32 pid, i32 tid, f64 ts, std::string_view name,
               std::string_view cat, i32 color, std::string_view from,
               u32 words) {
    begin_event();
    os_ << "{\"ph\": \"i\", \"s\": \"t\", \"cat\": \"" << cat
        << "\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << num(ts) << ", \"name\": \"" << name
        << "\", \"args\": {\"color\": " << color << ", \"from\": \"" << from
        << "\", \"words\": " << words << "}}";
  }

  void finish() { os_ << "\n]}\n"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

bool is_fault_kind(wse::TraceKind kind) noexcept {
  switch (kind) {
    case wse::TraceKind::FaultStall:
    case wse::TraceKind::FaultFlip:
    case wse::TraceKind::FaultHalt:
    case wse::TraceKind::ParityDrop:
      return true;
    default:
      return false;
  }
}

PerfettoExportStats write_perfetto_json(std::ostream& os,
                                        const wse::Fabric& fabric,
                                        const wse::TraceRecorder* recorder) {
  PerfettoExportStats stats;
  EventWriter w(os);

  // Track naming: one "process" per fabric row, one "thread" per PE, so
  // Perfetto groups the grid the way the paper draws it.
  for (i32 y = 0; y < fabric.height(); ++y) {
    w.metadata("process_name", y, 0, false,
               "fabric row " + std::to_string(y));
    for (i32 x = 0; x < fabric.width(); ++x) {
      w.metadata("thread_name", y, x, true,
                 "PE(" + std::to_string(x) + "," + std::to_string(y) + ")");
    }
  }

  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      stats.spans_dropped += fabric.phase_spans_dropped(x, y);
      for (const PhaseSpan& span : fabric.phase_spans(x, y)) {
        w.slice(y, x, span.begin, span.end - span.begin,
                phase_name(span.phase));
        ++stats.phase_slices;
      }
    }
  }

  if (recorder != nullptr) {
    // The recorder snapshot is in the engine's deterministic processing
    // order, so timestamps are globally non-decreasing.
    for (const wse::TraceEvent& e : recorder->events()) {
      const bool fault = is_fault_kind(e.kind);
      w.instant(e.y, e.x, e.time, trace_kind_name(e.kind),
                fault ? "fault" : "trace", static_cast<i32>(e.color.id()),
                wse::dir_name(e.from), e.payload_words);
      ++stats.instant_events;
      stats.fault_instants += fault ? 1u : 0u;
    }
  }

  w.finish();
  return stats;
}

bool write_perfetto_json(const std::string& path, const wse::Fabric& fabric,
                         const wse::TraceRecorder* recorder,
                         PerfettoExportStats* stats) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return false;
  }
  const PerfettoExportStats s = write_perfetto_json(out, fabric, recorder);
  if (stats != nullptr) {
    *stats = s;
  }
  return out.good();
}

}  // namespace fvf::obs
