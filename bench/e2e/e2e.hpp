/// \file e2e.hpp
/// \brief Shared pieces of the end-to-end benchmark: the metric catalog
///        and result report, host-clock spans with self-time attribution,
///        the tail-percentile rule, and the seeded open-loop request
///        schedule of the serve_open workload.
///
/// Everything here is host-side measurement machinery that lives outside
/// the library: spans are recorded by the benchmark around calls into the
/// library's public functions, never from inside it.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fvf::e2e {

/// Host clock in seconds (std::chrono::steady_clock).
[[nodiscard]] f64 now_s();

// --- statistics ------------------------------------------------------------

/// Median (mean of the middle pair for even counts). Requires samples.
[[nodiscard]] f64 median(std::vector<f64> samples);

/// A tail percentile together with the evidence behind it.
struct Tail {
  f64 percentile = 0.0;
  f64 value = 0.0;
  usize beyond = 0;  ///< samples ranked strictly above the percentile
};

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that
/// has at least `min_beyond` samples ranked above it (nearest rank), or
/// nullopt when even the median lacks them (fewer than 2 * min_beyond
/// samples).
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<f64> samples,
                                                  usize min_beyond = 10);

// --- metric catalog and report ---------------------------------------------

/// One metric as BENCHMARK.json declares it.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// The end-to-end metrics every workload reports untraced. Mirrors the
/// `end_to_end` list of BENCHMARK.json (the catalog test pins this).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// The per-layer metrics every workload reports traced (0 where the
/// workload does not exercise the layer). Mirrors `per_layer`.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Unit of a catalog metric; throws on an unknown name.
[[nodiscard]] std::string_view unit_of(std::string_view name);

/// Everything one benchmark run measured.
struct Report {
  std::map<std::string, f64> metrics;
  /// Sample counts and other provenance printed beside the metrics.
  std::map<std::string, std::string> notes;
  u64 attempted = 0;
  u64 failed = 0;
  /// Human-readable reasons for every failed check.
  std::vector<std::string> failures;

  void set(std::string_view name, f64 value);
  void note(std::string_view key, std::string value);
  /// Records one checked operation; `ok == false` counts it failed.
  void check(bool ok, const std::string& what);
};

/// Shortest round-trip decimal for a double (all significant digits).
[[nodiscard]] std::string format_number(f64 value);

/// Every sample with all its digits, space-separated (for the notes).
[[nodiscard]] std::string join_numbers(const std::vector<f64>& samples);

/// The machine-readable result line: {"correct", "attempted", "failed",
/// "metrics"} with every end-to-end metric (`trace == false`) or every
/// per-layer metric (`trace == true`). Missing end-to-end metrics are a
/// benchmark bug and throw; missing per-layer metrics report 0.
[[nodiscard]] std::string result_line(const Report& report, bool trace);

// --- host-clock spans ------------------------------------------------------

/// One timed interval around a call into a library layer.
struct Span {
  u64 id = 0;
  u64 parent = 0;  ///< 0 = a root span
  std::string name;
  f64 start = 0.0;  ///< now_s() seconds
  f64 end = 0.0;
  i64 request = -1;  ///< serve_open request index, -1 elsewhere
  u32 thread = 0;    ///< benchmark thread that recorded it
};

/// Thread-safe in-memory span log, written out once the run ends. A
/// disabled log records nothing and hands out id 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Reserves an id for a span whose children are recorded before it ends.
  [[nodiscard]] u64 reserve();
  /// Records a finished span; `id == 0` assigns a fresh one. Returns it.
  u64 add(Span span);
  [[nodiscard]] std::vector<Span> snapshot() const;

 private:
  bool enabled_;
  std::atomic<u64> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: the interval from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, u64 parent = 0,
             i64 request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] u64 id() const noexcept { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent).
/// Index-aligned with `spans`.
[[nodiscard]] std::vector<f64> self_times(const std::vector<Span>& spans);

/// One unit of work (a root span named `root_name`): its duration, the
/// self time no child covers, and the self time of every descendant
/// layer, summed per span name.
struct UnitLayers {
  f64 duration = 0.0;
  f64 root_self = 0.0;
  std::map<std::string, f64> layer_self;

  [[nodiscard]] f64 layer_sum() const;
};

[[nodiscard]] std::vector<UnitLayers> units_of(const std::vector<Span>& spans,
                                               std::string_view root_name);

/// Writes the spans as Chrome trace_event JSON (viewable in Perfetto):
/// complete ("X") events with id, parent, request and self time in args.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::string_view process_name);

// --- serve_open request schedule -------------------------------------------

/// Traffic mix of the open loop. The shares are an assumed mix, not taken
/// from any recorded request log (README.md); memo and coalescing numbers
/// hold only at this repeat share.
/// Arrivals that repeat an earlier line exactly.
inline constexpr f64 kRepeatShare = 0.30;
/// Arrivals that respell an earlier scenario (same content).
inline constexpr f64 kRespellShare = 0.10;
/// Fresh scenarios sent to gpusim, half of them via priority=background.
inline constexpr f64 kGpusimShare = 0.25;
/// Fresh scenarios with lint=strict.
inline constexpr f64 kStrictShare = 0.20;

/// Size of the open loop.
struct ScheduleOptions {
  f64 rate_per_s = 100.0;  ///< Poisson arrival rate
  f64 seconds = 10.0;      ///< nominal schedule length
  std::vector<i32> extents{6, 8, 12, 16};  ///< square nx = ny choices
  std::vector<i32> depths{2, 4, 8};        ///< nz choices
};

/// Fresh scenarios per block: every program on every shape once.
[[nodiscard]] usize fresh_block_size(const ScheduleOptions& options);

/// Arrivals that carry one block of fresh scenarios (plus their share of
/// repeats and respellings).
[[nodiscard]] usize arrivals_per_block(const ScheduleOptions& options);

/// One scheduled request: when it is due and its request line.
struct ScheduledRequest {
  f64 due = 0.0;  ///< seconds after the schedule starts
  std::string line;
  enum class Kind : u8 { Fresh, Repeat, Respelled } kind = Kind::Fresh;
};

/// The seeded schedule: whole blocks of arrivals, as many as come closest
/// to `rate_per_s * seconds` (at least one), with exponential
/// inter-arrival gaps. Each arrival is a fresh scenario, an exact repeat,
/// or a respelling of an earlier one. The content of the fresh scenarios
/// depends on the block index only; the seed orders them, times the
/// arrivals and picks what is repeated. So every seed runs the same cold
/// work. A pure function of (seed, options).
[[nodiscard]] std::vector<ScheduledRequest> make_schedule(
    u64 seed, const ScheduleOptions& options);

/// Canonical text of a schedule (one "due line" row per request), for
/// byte-identity checks.
[[nodiscard]] std::string describe(const std::vector<ScheduledRequest>& s);

}  // namespace fvf::e2e
