#include "serve/response.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "dataflow/color_plan.hpp"

namespace fvf::serve {

std::string_view status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::Ok:
      return "ok";
    case RequestStatus::Shed:
      return "shed";
    case RequestStatus::DeadlineExpired:
      return "deadline_expired";
    case RequestStatus::Failed:
      return "failed";
  }
  return "?";
}

namespace {

/// Exact f64 encoding: the bit pattern in hex. "%.17g" would round-trip
/// too, but bits make byte-identity trivially auditable.
std::string hex_bits(f64 value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<u64>(value)));
  return buffer;
}

std::string hex_u64(u64 value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string escape_line(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_line(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (usize i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      out += text[i + 1] == 'n' ? '\n' : text[i + 1];
      ++i;
    } else {
      out += text[i];
    }
  }
  return out;
}

/// Ordered key=value view of a serialized RunInfo, with lookup helpers
/// that throw on missing keys so a truncated meta file fails loudly.
class FieldMap {
 public:
  explicit FieldMap(const std::string& text) {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) {
        continue;
      }
      const usize eq = line.find('=');
      FVF_REQUIRE_MSG(eq != std::string::npos,
                      "malformed run-info line '" << line << "'");
      fields_.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
  }

  [[nodiscard]] const std::string& get(const std::string& key) const {
    for (const auto& [k, v] : fields_) {
      if (k == key) {
        return v;
      }
    }
    FVF_FAIL("run-info field '" << key << "' is missing");
  }

  [[nodiscard]] u64 get_u64(const std::string& key) const {
    const std::string& value = get(key);
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end,
                      value.rfind("0x", 0) == 0 ? 16 : 10);
    FVF_REQUIRE_MSG(end != value.c_str() && *end == '\0' && errno == 0,
                    "run-info field '" << key << "' has malformed value '"
                                       << value << "'");
    return static_cast<u64>(parsed);
  }

  [[nodiscard]] f64 get_f64_bits(const std::string& key) const {
    return std::bit_cast<f64>(get_u64(key));
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

constexpr const char* kCounterNames[] = {
    "fmul",      "fsub",          "fneg",
    "fadd",      "fma",           "fmov",
    "scalar_misc", "mem_loads",   "mem_stores",
    "wavelets_sent", "wavelets_received", "controls_sent",
    "tasks_executed"};

u64* counter_slots(wse::PeCounters& c, usize index) {
  u64* slots[] = {&c.fmul,          &c.fsub,      &c.fneg,
                  &c.fadd,          &c.fma,       &c.fmov,
                  &c.scalar_misc,   &c.mem_loads, &c.mem_stores,
                  &c.wavelets_sent, &c.wavelets_received,
                  &c.controls_sent, &c.tasks_executed};
  return slots[index];
}

constexpr const char* kFaultNames[] = {
    "stalls_injected", "flips_injected", "halts_injected", "stalls_absorbed",
    "flips_dropped",   "flips_recovered", "halts_resumed"};

u64* fault_slots(wse::FaultStats& f, usize index) {
  u64* slots[] = {&f.stalls_injected, &f.flips_injected, &f.halts_injected,
                  &f.stalls_absorbed, &f.flips_dropped,  &f.flips_recovered,
                  &f.halts_resumed};
  return slots[index];
}

}  // namespace

std::string serialize_run_info(const dataflow::RunInfo& info) {
  std::ostringstream os;
  os << "device_seconds=" << hex_bits(info.device_seconds) << '\n';
  os << "makespan_cycles=" << hex_bits(info.makespan_cycles) << '\n';
  wse::PeCounters counters = info.counters;
  for (usize i = 0; i < std::size(kCounterNames); ++i) {
    os << "counters." << kCounterNames[i] << '=' << *counter_slots(counters, i)
       << '\n';
  }
  // The managed colors only: a dataflow load fails on any other
  // configured color, so the rest never carry traffic.
  for (usize i = 0; i < dataflow::ColorPlan::kManagedColors; ++i) {
    os << "color_traffic." << i << '=' << info.color_traffic[i] << '\n';
  }
  os << "max_pe_memory=" << info.max_pe_memory << '\n';
  os << "events_processed=" << info.events_processed << '\n';
  for (usize p = 0; p < obs::kPhaseCount; ++p) {
    os << "phase_cycles." << p << '='
       << hex_bits(info.phase_cycles.cycles[p]) << '\n';
  }
  // Per-PE attribution folds into a digest: byte-identity is what the
  // serialization is for, not reconstruction of every PE's split.
  u64 pe_digest = kFnv1aSeed;
  for (const obs::PhaseCycles& pe : info.pe_phase_cycles) {
    for (const f64 cycles : pe.cycles) {
      pe_digest = fnv1a_mix(pe_digest, std::bit_cast<u64>(cycles));
    }
  }
  os << "pe_phase_count=" << info.pe_phase_cycles.size() << '\n';
  os << "pe_phase_digest=" << hex_u64(pe_digest) << '\n';
  wse::FaultStats faults = info.faults;
  for (usize i = 0; i < std::size(kFaultNames); ++i) {
    os << "faults." << kFaultNames[i] << '=' << *fault_slots(faults, i)
       << '\n';
  }
  os << "trace_events_emitted=" << info.trace_events_emitted << '\n';
  os << "trace_records_dropped=" << info.trace_records_dropped << '\n';
  os << "errors_total=" << info.errors_total << '\n';
  os << "errors_suppressed=" << info.errors_suppressed << '\n';
  os << "errors=" << info.errors.size() << '\n';
  for (usize i = 0; i < info.errors.size(); ++i) {
    os << "error." << i << '=' << escape_line(info.errors[i]) << '\n';
  }
  os << "hazards_total=" << info.hazards_total << '\n';
  os << "hazards_suppressed=" << info.hazards_suppressed << '\n';
  os << "hazards=" << info.hazards.size() << '\n';
  for (usize i = 0; i < info.hazards.size(); ++i) {
    os << "hazard." << i << '=' << escape_line(info.hazards[i]) << '\n';
  }
  return os.str();
}

dataflow::RunInfo parse_run_info(const std::string& text) {
  const FieldMap fields(text);
  dataflow::RunInfo info;
  info.device_seconds = fields.get_f64_bits("device_seconds");
  info.makespan_cycles = fields.get_f64_bits("makespan_cycles");
  for (usize i = 0; i < std::size(kCounterNames); ++i) {
    *counter_slots(info.counters, i) =
        fields.get_u64(std::string("counters.") + kCounterNames[i]);
  }
  for (usize i = 0; i < dataflow::ColorPlan::kManagedColors; ++i) {
    info.color_traffic[i] =
        fields.get_u64("color_traffic." + std::to_string(i));
  }
  info.max_pe_memory = static_cast<usize>(fields.get_u64("max_pe_memory"));
  info.events_processed = fields.get_u64("events_processed");
  for (usize p = 0; p < obs::kPhaseCount; ++p) {
    info.phase_cycles.cycles[p] =
        fields.get_f64_bits("phase_cycles." + std::to_string(p));
  }
  FVF_REQUIRE_MSG(fields.get_u64("pe_phase_count") == 0,
                  "run-info with per-PE attribution cannot be parsed back "
                  "(only accumulated accounting round-trips)");
  for (usize i = 0; i < std::size(kFaultNames); ++i) {
    *fault_slots(info.faults, i) =
        fields.get_u64(std::string("faults.") + kFaultNames[i]);
  }
  info.trace_events_emitted = fields.get_u64("trace_events_emitted");
  info.trace_records_dropped = fields.get_u64("trace_records_dropped");
  info.errors_total = fields.get_u64("errors_total");
  info.errors_suppressed = fields.get_u64("errors_suppressed");
  const u64 errors = fields.get_u64("errors");
  for (u64 i = 0; i < errors; ++i) {
    info.errors.push_back(
        unescape_line(fields.get("error." + std::to_string(i))));
  }
  info.hazards_total = fields.get_u64("hazards_total");
  info.hazards_suppressed = fields.get_u64("hazards_suppressed");
  const u64 hazards = fields.get_u64("hazards");
  for (u64 i = 0; i < hazards; ++i) {
    info.hazards.push_back(
        unescape_line(fields.get("hazard." + std::to_string(i))));
  }
  return info;
}

std::string serialize_response(const ScenarioResponse& response) {
  std::ostringstream os;
  os << "scenario=" << hex_u64(response.scenario_hash) << '\n';
  os << "status=" << status_name(response.status) << '\n';
  os << "error=" << escape_line(response.error) << '\n';
  os << "result_digest=" << hex_u64(response.result_digest) << '\n';
  std::vector<std::pair<std::string, f64>> summary = response.summary;
  std::sort(summary.begin(), summary.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, value] : summary) {
    os << "summary." << name << '=' << hex_bits(value) << '\n';
  }
  os << serialize_run_info(response.info);
  return os.str();
}

}  // namespace fvf::serve
