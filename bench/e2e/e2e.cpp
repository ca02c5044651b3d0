#include "e2e.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/array3d.hpp"
#include "common/rng.hpp"

namespace fvf::e2e {

f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- statistics ------------------------------------------------------------

f64 median(std::vector<f64> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  const usize mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const f64 upper = samples[mid];
  if (samples.size() % 2 == 1) {
    return upper;
  }
  const f64 lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
usize rank_of(usize n, f64 p) {
  const auto rank = static_cast<usize>(std::ceil(p / 100.0 * static_cast<f64>(n)));
  return std::clamp<usize>(rank, 1, n);
}

}  // namespace

std::optional<Tail> tail_percentile(std::vector<f64> samples,
                                    usize min_beyond) {
  static constexpr f64 kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  if (samples.empty()) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const usize n = samples.size();
  for (const f64 p : kLadder) {
    const usize rank = rank_of(n, p);
    if (n - rank >= min_beyond) {
      return Tail{p, samples[rank - 1], n - rank};
    }
  }
  return std::nullopt;
}

// --- metric catalog and report ---------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"device_cycles", "cycles"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"scenario_s", "s"},
      {"physics.problem_build_s", "s"},
      {"spec.compile_ms", "ms"},
      {"lint.verify_s", "s"},
      {"lint.routing_s", "s"},
      {"lint.flow_s", "s"},
      {"lint.reconfig_s", "s"},
      {"lint.memory_s", "s"},
      {"dataflow.load_s", "s"},
      {"wse.run_s", "s"},
      {"dataflow.gather_s", "s"},
      {"dataflow.teardown_s", "s"},
      {"wse.events", "count"},
      {"wse.events_per_s", "1/s"},
      {"wse.tasks", "count"},
      {"wse.wavelets_sent", "count"},
      {"wse.phase_compute_cycles", "cycles"},
      {"wse.phase_halo_cycles", "cycles"},
      {"wse.phase_allreduce_cycles", "cycles"},
      {"wse.phase_reliability_cycles", "cycles"},
      {"wse.phase_idle_cycles", "cycles"},
      {"wse.idle_frac", "frac"},
      {"solver.cg_iterations", "count"},
      {"solver.impes_cg_iterations", "count"},
      {"api.cg_wse_s", "s"},
      {"api.impes_wse_s", "s"},
      {"api.cg_gpusim_s", "s"},
      {"api.impes_gpusim_s", "s"},
      {"gpusim.device_s", "sim_s"},
      {"gpusim.kernels_launched", "count"},
      {"serve.parse_p50_us", "us"},
      {"serve.parse_tail_us", "us"},
      {"serve.hash_p50_us", "us"},
      {"serve.hash_tail_us", "us"},
      {"serve.submit_p50_us", "us"},
      {"serve.submit_tail_us", "us"},
      {"serve.serialize_p50_us", "us"},
      {"serve.serialize_tail_us", "us"},
      {"serve.execute_tail_ms", "ms"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_tail_ms", "ms"},
      {"serve.latency_p50_ms", "ms"},
      {"serve.latency_tail_ms", "ms"},
      {"serve.goodput_rps", "1/s"},
      {"serve.memo_hit_rate", "frac"},
      {"serve.coalesced", "count"},
      {"serve.cold_simulations", "count"},
      {"serve.problem_cache_hit_rate", "frac"},
      {"serve.setup_cache_hit_rate", "frac"},
      {"serve.max_queue_depth", "count"},
      {"serve.worker_util", "frac"},
      {"serve.gen_lag_tail_ms", "ms"},
      {"baseline.check_s", "s"},
      {"trace.layer_sum_gap_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return metrics;
}

std::string_view unit_of(std::string_view name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *list) {
      if (def.name == name) {
        return def.unit;
      }
    }
  }
  throw std::invalid_argument("metric '" + std::string(name) +
                              "' is not in the catalog");
}

void Report::set(std::string_view name, f64 value) {
  (void)unit_of(name);  // reject names BENCHMARK.json does not declare
  metrics[std::string(name)] = value;
}

void Report::note(std::string_view key, std::string value) {
  notes[std::string(key)] = std::move(value);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::string format_number(f64 value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (error != std::errc{}) {
    throw std::runtime_error("cannot format metric value");
  }
  return std::string(buffer, end);
}

std::string join_numbers(const std::vector<f64>& samples) {
  std::string text;
  for (const f64 sample : samples) {
    if (!text.empty()) {
      text += ' ';
    }
    text += format_number(sample);
  }
  return text;
}

std::string result_line(const Report& report, bool trace) {
  const auto& catalog = trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream os;
  os << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : catalog) {
    const auto it = report.metrics.find(std::string(def.name));
    if (it == report.metrics.end() && !trace) {
      throw std::logic_error("end-to-end metric '" + std::string(def.name) +
                             "' was not measured");
    }
    const f64 value = it == report.metrics.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
       << format_number(value) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// --- host-clock spans ------------------------------------------------------

u64 SpanLog::reserve() {
  return enabled_ ? next_id_.fetch_add(1) : 0;
}

u64 SpanLog::add(Span span) {
  if (!enabled_) {
    return 0;
  }
  if (span.id == 0) {
    span.id = next_id_.fetch_add(1);
  }
  const u64 id = span.id;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return id;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, u64 parent,
                       i64 request)
    : log_(log) {
  if (log_.enabled()) {
    span_.id = log_.reserve();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.request = request;
    span_.start = now_s();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_.enabled()) {
    span_.end = now_s();
    log_.add(std::move(span_));
  }
}

std::vector<f64> self_times(const std::vector<Span>& spans) {
  std::unordered_map<u64, usize> index;
  for (usize i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<f64, f64>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = index.find(span.parent);
    if (span.parent != 0 && parent != index.end()) {
      children[parent->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<f64> self(spans.size());
  for (usize i = 0; i < spans.size(); ++i) {
    const f64 lo = spans[i].start;
    const f64 hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    f64 covered = 0.0;
    f64 cursor = lo;
    for (const auto& [start, end] : kids) {
      const f64 a = std::max(start, cursor);
      const f64 b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

f64 UnitLayers::layer_sum() const {
  f64 sum = 0.0;
  for (const auto& [name, seconds] : layer_self) {
    sum += seconds;
  }
  return sum;
}

std::vector<UnitLayers> units_of(const std::vector<Span>& spans,
                                 std::string_view root_name) {
  const std::vector<f64> self = self_times(spans);
  std::unordered_map<u64, usize> index;
  for (usize i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::unordered_map<u64, usize> unit_of_root;
  std::vector<UnitLayers> units;
  for (usize i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root_name) {
      unit_of_root.emplace(spans[i].id, units.size());
      UnitLayers unit;
      unit.duration = spans[i].end - spans[i].start;
      unit.root_self = self[i];
      units.push_back(std::move(unit));
    }
  }
  for (usize i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root_name) {
      continue;
    }
    // Walk up to the nearest enclosing unit root, if any.
    u64 parent = spans[i].parent;
    while (parent != 0 && unit_of_root.count(parent) == 0) {
      const auto up = index.find(parent);
      parent = up == index.end() ? 0 : spans[up->second].parent;
    }
    if (parent != 0) {
      units[unit_of_root[parent]].layer_self[spans[i].name] += self[i];
    }
  }
  return units;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::string_view process_name) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  f64 origin = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start);
  }
  const std::vector<f64> self = self_times(spans);
  const auto us = [](f64 seconds) { return format_number(seconds * 1e6); };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \""
      << process_name << " (host clock)\"}}";
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << ",\n{\"name\": \"" << span.name
        << "\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << span.thread << ", \"ts\": " << us(span.start - origin)
        << ", \"dur\": " << us(span.end - span.start)
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
        << span.parent << ", \"self_us\": " << us(self[i]);
    if (span.request >= 0) {
      out << ", \"request\": " << span.request;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- serve_open request schedule -------------------------------------------

namespace {

/// Per-program work field of a request: its canonical key, a documented
/// alias of that key, the value for a short and for a long scenario, and
/// further content fields in canonical and in respelled form.
struct ProgramWork {
  const char* program;
  const char* key;
  const char* alias;
  const char* short_value;
  const char* long_value;
  const char* extra;
  const char* extra_respelled;
};

/// Every registry program once. CG's stop is loose enough that every
/// generated system converges within the cap.
constexpr ProgramWork kPrograms[] = {
    {"tpfa", "iterations", "steps", "1", "2", "", ""},
    {"cg", "iterations", "max-iterations", "400", "400", " tol=1e-3",
     " tolerance=0.001"},
    {"transport", "dt", "window", "600", "900", "", ""},
    {"wave", "iterations", "steps", "4", "8", "", ""},
    {"impes", "iterations", "windows", "1", "2", " dt=900", " window=900"},
    {"heat", "iterations", "steps", "5", "10", "", ""},
};

/// Content and scheduling fields of one fresh request, kept so a later
/// arrival can respell it.
struct Scenario {
  const ProgramWork* work = nullptr;
  i32 nx = 0;
  i32 ny = 0;
  i32 nz = 0;
  u64 seed = 0;
  bool long_run = false;
  std::string scheduling;  ///< backend/priority/lint fields

  [[nodiscard]] const char* work_value() const {
    return long_run ? work->long_value : work->short_value;
  }
};

template <typename T>
const T& pick(Xoshiro256& rng, const std::vector<T>& choices) {
  return choices[rng.below(choices.size())];
}

template <typename T>
void shuffle(std::vector<T>& items, Xoshiro256& rng) {
  for (usize i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// Seeds the content of the fresh blocks; the run's seed never does.
constexpr u64 kContentSeed = 0xb10c5eedULL;

/// Arrivals of one kind among every ten.
usize tenths(f64 share) {
  return static_cast<usize>(std::lround(10.0 * share));
}

/// Fresh block `block_index`: every program on every square shape
/// (extents x extents x depths) once, with the gpusim and strict-lint
/// shares in exact proportion. Its content depends on the index only, so
/// every seed runs the same cold work and run-to-run spread measures the
/// code rather than the draw; make_schedule orders it.
std::vector<Scenario> fresh_block(u64 block_index,
                                  const ScheduleOptions& options) {
  Xoshiro256 rng(kContentSeed + block_index);
  std::vector<Scenario> block;
  for (const ProgramWork& work : kPrograms) {
    for (const i32 extent : options.extents) {
      for (const i32 depth : options.depths) {
        Scenario s;
        s.work = &work;
        s.nx = extent;
        s.ny = extent;
        s.nz = depth;
        // Three geomodel seeds per block, so programs of one block
        // sometimes share a problem-cache entry while no two blocks
        // repeat a scenario.
        s.seed = 1 + 3 * block_index + rng.below(3);
        s.long_run = rng.below(2) == 1;
        block.push_back(std::move(s));
      }
    }
  }
  const auto count = [&block](f64 share) {
    return static_cast<usize>(
        std::lround(share * static_cast<f64>(block.size())));
  };
  const usize gpusim = count(kGpusimShare);
  const usize strict = count(kStrictShare);
  std::vector<usize> backend_order(block.size());
  std::vector<usize> lint_order(block.size());
  std::iota(backend_order.begin(), backend_order.end(), usize{0});
  std::iota(lint_order.begin(), lint_order.end(), usize{0});
  shuffle(backend_order, rng);
  shuffle(lint_order, rng);
  for (usize j = 0; j < block.size(); ++j) {
    Scenario& s = block[backend_order[j]];
    if (j < gpusim / 2) {
      s.scheduling = " priority=background";  // auto-routes to gpusim
    } else if (j < gpusim) {
      s.scheduling = " backend=gpusim";
    } else {
      s.scheduling = rng.below(2) == 0 ? " priority=interactive" : "";
    }
  }
  for (usize j = 0; j < strict; ++j) {
    block[lint_order[j]].scheduling += " lint=strict";
  }
  return block;
}

std::string render(const Scenario& s) {
  std::ostringstream os;
  os << "program=" << s.work->program << " nx=" << s.nx << " ny=" << s.ny
     << " nz=" << s.nz << " seed=" << s.seed << ' ' << s.work->key << '='
     << s.work_value() << s.work->extra << s.scheduling;
  return os.str();
}

/// Same content, different spelling: aliased keys and shuffled fields.
std::string respell(const Scenario& s, Xoshiro256& rng) {
  std::vector<std::string> fields = {
      std::string("program=") + s.work->program,
      "nx=" + std::to_string(s.nx),
      "ny=" + std::to_string(s.ny),
      "nz=" + std::to_string(s.nz),
      "seed=" + std::to_string(s.seed),
      std::string(s.work->alias) + "=" + s.work_value(),
  };
  std::istringstream rest(s.work->extra_respelled + s.scheduling);
  for (std::string token; rest >> token;) {
    fields.push_back(token);
  }
  shuffle(fields, rng);
  std::string line;
  for (const std::string& field : fields) {
    if (!line.empty()) {
      line += ' ';
    }
    line += field;
  }
  return line;
}

}  // namespace

usize fresh_block_size(const ScheduleOptions& options) {
  return std::size(kPrograms) * options.extents.size() *
         options.depths.size();
}

usize arrivals_per_block(const ScheduleOptions& options) {
  // Kinds come in exact proportion per ten arrivals. A block holds a
  // multiple of the six programs, so this divides evenly.
  const usize fresh_per_ten = 10 - tenths(kRepeatShare) - tenths(kRespellShare);
  return fresh_block_size(options) * 10 / fresh_per_ten;
}

std::vector<ScheduledRequest> make_schedule(u64 seed,
                                            const ScheduleOptions& options) {
  using Kind = ScheduledRequest::Kind;
  const usize per_block = arrivals_per_block(options);
  const usize count =
      per_block *
      static_cast<usize>(std::max<i64>(
          1, std::llround(options.rate_per_s * options.seconds /
                          static_cast<f64>(per_block))));
  Xoshiro256 rng(seed ^ 0x5e7e0de11ULL);
  std::vector<ScheduledRequest> schedule;
  std::vector<Scenario> fresh;
  std::vector<std::string> fresh_lines;
  std::vector<Scenario> pending;  // rest of the current fresh block
  std::vector<Kind> kinds;        // rest of the current ten arrivals
  u64 blocks = 0;
  f64 due = 0.0;
  while (schedule.size() < count) {
    due += -std::log(1.0 - rng.uniform()) / options.rate_per_s;
    if (kinds.empty()) {
      kinds.assign(10, Kind::Fresh);
      std::fill_n(kinds.begin(), tenths(kRepeatShare), Kind::Repeat);
      std::fill_n(kinds.begin() +
                      static_cast<std::ptrdiff_t>(tenths(kRepeatShare)),
                  tenths(kRespellShare), Kind::Respelled);
      shuffle(kinds, rng);
      if (fresh.empty()) {
        // The first arrival has nothing to repeat.
        std::iter_swap(kinds.end() - 1,
                       std::find(kinds.begin(), kinds.end(), Kind::Fresh));
      }
    }
    ScheduledRequest request;
    request.due = due;
    request.kind = kinds.back();
    kinds.pop_back();
    if (request.kind == Kind::Repeat) {
      request.line = pick(rng, fresh_lines);
    } else if (request.kind == Kind::Respelled) {
      request.line = respell(pick(rng, fresh), rng);
    } else {
      if (pending.empty()) {
        pending = fresh_block(blocks++, options);
        shuffle(pending, rng);
      }
      fresh.push_back(std::move(pending.back()));
      pending.pop_back();
      fresh_lines.push_back(render(fresh.back()));
      request.line = fresh_lines.back();
    }
    schedule.push_back(std::move(request));
  }
  return schedule;
}

std::string describe(const std::vector<ScheduledRequest>& schedule) {
  std::string text;
  for (const ScheduledRequest& request : schedule) {
    text += format_number(request.due) + ' ' + request.line + '\n';
  }
  return text;
}

}  // namespace fvf::e2e
