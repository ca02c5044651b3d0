/// \file fabric.hpp
/// \brief The simulated wafer-scale fabric: a 2-D grid of PEs + routers
///        driven by a deterministic discrete-event engine.
///
/// Semantics (paper Section 4):
///   - Data moves in blocks of 32-bit wavelets tagged with a color.
///   - Routers resolve each block against the color's current switch
///     position; fan-out may include the Ramp (deliver to the local PE)
///     and fabric links (forward to neighbors).
///   - Control wavelets advance the switch position of every router they
///     traverse (after being routed), implementing the Sending/Receiving
///     role swap of Figure 6.
///   - PEs execute color-triggered tasks to completion; communication is
///     asynchronous, so fabric transfers overlap PE computation unless
///     blocking sends are requested (the async-off ablation).
///
/// Timing: events carry the cycle at which the *last* wavelet of a block
/// arrives (wormhole routing — serialization is paid once at injection,
/// each hop adds only latency). A PE task starts at
/// max(arrival, PE ready time) and advances the PE clock by the cycle
/// cost of the DSD/scalar operations it performs.
///
/// Determinism: events are ordered by (time, birth location, birth rank),
/// a key assigned where the event is *created* (the PE injecting it, the
/// router forwarding it, or the router re-releasing it). Because every
/// location's events are themselves processed in that total order, the
/// key is reproducible regardless of how the event loop is executed —
/// which is what lets `ExecutionOptions::threads > 1` shard the fabric
/// into row-strip tiles (each with a local event queue) synchronized by
/// conservative per-tile time windows (each tile advances until the
/// earliest possible cross-boundary arrival from a neighboring tile)
/// while reproducing the serial run bit for bit: same PE clocks,
/// counters, pending-buffer contents, trace sequence, errors, and field
/// values. See docs/ARCHITECTURE.md "Event engine internals".
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mapped_allocator.hpp"
#include "obs/phase.hpp"
#include "wse/counters.hpp"
#include "wse/dsd.hpp"
#include "wse/event.hpp"
#include "wse/fault.hpp"
#include "wse/hazard.hpp"
#include "wse/memory.hpp"
#include "wse/payload.hpp"
#include "wse/program.hpp"
#include "wse/router.hpp"
#include "wse/timing.hpp"
#include "wse/trace.hpp"

namespace fvf::wse {

class Fabric;

namespace detail {
struct Tile;  // one shard of the event engine (defined in fabric.cpp)
}

/// One processing element: private memory, counters, a local cycle clock,
/// and its program instance.
class Pe {
 public:
  Pe(Coord2 coord, usize memory_budget)
      : coord_(coord), memory_(memory_budget) {}

  [[nodiscard]] Coord2 coord() const noexcept { return coord_; }
  [[nodiscard]] PeMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const PeMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] PeCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const PeCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] f64 clock() const noexcept { return clock_; }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] PeProgram* program() noexcept { return program_.get(); }
  [[nodiscard]] const PeProgram* program() const noexcept {
    return program_.get();
  }

  /// Per-phase attribution of this PE's clock (all zero when
  /// ExecutionOptions::phase_profiling is off). The phase totals sum to
  /// clock() up to floating-point association.
  [[nodiscard]] const obs::PhaseCycles& phase_cycles() const noexcept {
    return phase_cycles_;
  }
 private:
  friend class Fabric;
  friend class PeApi;

  // Hot scalars first: every delivery touches the clock, the ramp FIFO
  // time, the phase bookkeeping, and the program pointer, so they share
  // the object's first cache line. The wide blocks (memory, counters,
  // phase arrays) follow.
  Coord2 coord_;
  f64 clock_ = 0.0;
  /// Time the Ramp link finishes injecting the previous send: sequential
  /// sends from one PE serialize on the ramp (FIFO per source), so a
  /// control wavelet can never overtake the data block sent before it.
  f64 ramp_free_ = 0.0;
  f64 phase_mark_ = 0.0;
  obs::Phase current_phase_ = obs::Phase::Idle;
  bool done_ = false;
  std::unique_ptr<PeProgram> program_;
  PeMemory memory_;
  PeCounters counters_;
  /// Profiler state: where the cycles since `phase_mark_` will be booked.
  /// Only touched by the tile that owns this PE's row, so parallel runs
  /// attribute identically to serial ones.
  obs::PhaseCycles phase_cycles_;
};

/// PE count from which per-PE host set-up work spreads over
/// ExecutionOptions::threads: Fabric::load and ~Fabric build and free one
/// fabric row per task, and fvf::lint runs its checks on the same threads.
/// Smaller fabrics use the calling thread alone, where starting threads
/// costs more than it saves. Results are identical either way.
inline constexpr i64 kParallelMinPes = 4096;

/// Execution options toggling the paper's Section 5.3 optimizations
/// (for the ablation benches). Defaults = the optimized configuration.
struct ExecutionOptions {
  /// DSD vectorization on: one issue overhead per vector op. Off: every
  /// element pays the issue overhead (scalar loop).
  bool vectorized = true;
  /// Asynchronous sends on: fabric transfers overlap PE compute. Off:
  /// the PE blocks for the serialization time of every send.
  bool async_sends = true;
  /// Host worker threads driving the event engine. 1 (the default) runs
  /// the classic serial loop; N > 1 shards the fabric into up to N
  /// row-strip tiles stepped under a conservative time-window barrier.
  /// From kParallelMinPes PEs up, load, teardown and fvf::lint use the
  /// same threads. Results are bit-identical for every value (see the
  /// determinism note at the top of this file).
  i32 threads = 1;
  /// Fault-injection scenario (see wse/fault.hpp). The default all-zero
  /// rates disable the model entirely: runs are bit-identical to an
  /// engine without it.
  FaultConfig fault{};
  /// Per-PE per-phase cycle attribution (see obs/phase.hpp). Profiling is
  /// pure observation — it never perturbs event order, clocks, or
  /// counters, so runs are bit-identical with it on or off (the golden
  /// traces pin this). Off skips the bookkeeping entirely.
  bool phase_profiling = true;
  /// When > 0, each PE additionally records up to this many non-idle
  /// phase spans for timeline export (obs::write_perfetto_json); excess
  /// spans are counted in Fabric::phase_spans_dropped().
  u32 phase_span_capacity = 0;
  /// Dynamic in-PE memory hazard detection (see wse/hazard.hpp): flags
  /// partially-overlapping DSD dest/source operands and fabric receives
  /// (fmovs) into buffers a program marked live. Pure observation — the
  /// checks never touch clocks, counters, or event order, so runs are
  /// bit-identical with it on or off; off (the default) skips every
  /// lookup entirely. Findings land in RunReport::hazards.
  bool hazard_check = false;
  /// Router input-buffer depth: how many wavelet blocks may wait at one
  /// router for a switch advance before further arrivals are dropped with
  /// a recorded run error (deterministic across thread counts, like every
  /// other diagnostic). Deep-column wafer-scale programs can legitimately
  /// exceed the historical depth of 64.
  u32 router_buffer_depth = 64;
};

/// The record of a fabric's one run, filled whole by Fabric::run.
/// dataflow::RunInfo names this struct: every program result embeds it.
struct RunReport {
  /// Simulated device time for the whole run, from the fabric clock.
  f64 device_seconds = 0.0;
  /// Makespan: cycle at which the last PE/wavelet activity finished.
  f64 makespan_cycles = 0.0;
  /// Aggregate instruction/traffic counters over all PEs.
  PeCounters counters{};
  /// Wavelets of each color carried by any router output link, summed
  /// over all routers: multi-hop blocks count once per hop, and Ramp
  /// delivery to the destination PE counts like any other link.
  std::array<u64, Color::kMaxColors> color_traffic{};
  /// Peak per-PE memory footprint (bytes).
  usize max_pe_memory = 0;
  u64 events_processed = 0;
  /// PEs whose program called PeApi::signal_done().
  i64 pes_done = 0;
  /// Measured per-phase cycle attribution summed over all PEs, and per
  /// PE, row-major (y * width + x); each entry's total() equals that PE's
  /// final clock. Zero and empty when ExecutionOptions::phase_profiling
  /// is off.
  obs::PhaseCycles phase_cycles{};
  std::vector<obs::PhaseCycles> pe_phase_cycles;
  /// Graceful-degradation accounting: faults injected / detected /
  /// recovered / unrecovered (see FaultStats; the buckets partition
  /// faults.injected()). All zero when fault injection is disabled.
  FaultStats faults{};
  /// Trace records emitted by the engine vs. dropped at the recorder's
  /// capacity (populated when the tracer is a TraceRecorder installed via
  /// the Fabric::set_tracer(TraceRecorder&) overload).
  u64 trace_events_emitted = 0;
  u64 trace_records_dropped = 0;
  /// Errors raised in total; only the first few are recorded in `errors`,
  /// the remainder are summarized (`errors_suppressed`) — both counts are
  /// reported so no failure is silently invisible.
  u64 errors_total = 0;
  u64 errors_suppressed = 0;
  std::vector<std::string> errors;
  /// Memory hazards flagged by ExecutionOptions::hazard_check, recorded
  /// in the deterministic event order like `errors` and capped the same
  /// way (hazards_total / hazards_suppressed preserve the full count).
  /// Always empty when the check is off. Hazards are diagnostics, not
  /// run failures: they do not affect ok().
  std::vector<std::string> hazards;
  u64 hazards_total = 0;
  u64 hazards_suppressed = 0;
  /// Host-side figures, not simulated results: the deepest this run's
  /// event queues grew (summed over the engine's tiles) and the heap bytes
  /// the tiles' payload arenas reserved. Both depend on the tiling and the
  /// allocator's history, so serve responses leave them out.
  u64 event_queue_high_water = 0;
  u64 payload_arena_bytes = 0;
  /// Host counts of the engine's window loop, summed over its tiles:
  /// windows each tile was stepped through between barriers, and
  /// cross-tile payloads copied into their destination tile's arena at
  /// a barrier. A serial run steps one tile and re-homes nothing.
  u64 windows_stepped = 0;
  u64 payloads_rehomed = 0;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

/// The compute half of a PE handle: DSD vector ops, scalar ops, phase
/// tags, hazard marks and counters, charged to one PE's clock and
/// counters under the fabric's timing model. It needs no fabric: a
/// spec::StencilKernel computes through this handle only, so the same
/// kernel body runs on the event engine (through PeApi, which adds
/// sends, receives, timers and fault reporting) and on the fabric-free
/// spec::execute, where phase tags and hazard marks are no-ops. Valid
/// only for the duration of a handler invocation.
///
/// The DSD ops are defined inline below the class: each is one element
/// loop over plain pointers plus its counter and cycle charge, and the
/// hazard hooks behind them cost one predictable test of
/// ExecutionOptions::hazard_check when it is off.
class PeCompute {
 public:
  PeCompute(const FabricTimings& timings, const ExecutionOptions& execution,
            f64& clock, PeCounters& counters) noexcept
      : timings_(timings),
        exec_(execution),
        clock_(clock),
        counters_(counters) {}
  PeCompute(const PeCompute&) = delete;
  PeCompute& operator=(const PeCompute&) = delete;
  virtual ~PeCompute() = default;

  // --- DSD vector operations (charge counters + cycles) ------------------
  void fmuls(Dsd dest, Dsd a, Dsd b);           ///< dest = a * b
  void fmuls(Dsd dest, Dsd a, f32 scalar);      ///< dest = a * s
  void fadds(Dsd dest, Dsd a, Dsd b);           ///< dest = a + b
  void fsubs(Dsd dest, Dsd a, Dsd b);           ///< dest = a - b
  void fsubs(Dsd dest, Dsd a, f32 scalar);      ///< dest = a - s
  void fnegs(Dsd dest, Dsd a);                  ///< dest = -a
  void fmacs(Dsd dest, Dsd a, Dsd b, Dsd c);    ///< dest = a*b + c
  void fmacs(Dsd dest, Dsd a, f32 scalar, Dsd c);  ///< dest = a*s + c
  /// Predicated select: dest[i] = pred[i] > 0 ? a[i] : b[i]. Charged as a
  /// data move (cycles only), not as an FP instruction — matching the
  /// Table 4 accounting where the upwind select is not FP-counted.
  void selects(Dsd dest, Dsd pred, Dsd a, Dsd b);
  /// Clears an array (constant-broadcast move; cycles only, not counted
  /// as FP work or memory traffic in the Table 4 model).
  void zeros(Dsd dest);

  // --- scalar ops --------------------------------------------------------
  /// Charges `count` generic scalar ops (cycles + scalar_misc counter).
  void scalar_ops(u64 count) noexcept {
    counters_.scalar_misc += count;
    clock_ += static_cast<f64>(count) * timings_.scalar_op_cycles;
  }
  /// Charges `count` transcendental evaluations (EOS exponentials).
  void transcendental_ops(u64 count) noexcept {
    counters_.scalar_misc += count;
    clock_ += static_cast<f64>(count) * timings_.exp_cycles;
  }

  // --- hazard detection ---------------------------------------------------
  /// Marks `view` as a live buffer handed out to program code: until
  /// released, a fabric receive (fmovs) overwriting any part of it is
  /// reported as a hazard. No-op unless ExecutionOptions::hazard_check.
  void hazard_mark_live(Dsd view, const char* label) {
    if (exec_.hazard_check) [[unlikely]] {
      on_hazard_mark_live(view, label);
    }
  }
  /// Releases the most recent live mark covering exactly `view`'s range.
  void hazard_release(Dsd view) {
    if (exec_.hazard_check) [[unlikely]] {
      on_hazard_release(view);
    }
  }
  /// Releases every live mark on this PE.
  void hazard_release_all() {
    if (exec_.hazard_check) [[unlikely]] {
      on_hazard_release_all();
    }
  }

  // --- observability ------------------------------------------------------
  /// Retags the cycles this handler accrues from here on (the profiler
  /// books everything since the last mark under the previous phase
  /// first). A no-op when phase profiling is off — programs may call it
  /// unconditionally without perturbing anything observable.
  virtual void set_phase(obs::Phase phase) noexcept;

  // --- bookkeeping -------------------------------------------------------
  [[nodiscard]] PeCounters& counters() noexcept { return counters_; }
  [[nodiscard]] f64 now() const noexcept { return clock_; }
  /// Advances the PE clock by raw cycles (modeling costs outside the
  /// provided primitives).
  void add_cycles(f64 cycles) noexcept { clock_ += cycles; }

 protected:
  /// Cycles of one vector instruction over `length` elements.
  [[nodiscard]] f64 vector_op_cycles(i32 length) const noexcept {
    const f64 n = static_cast<f64>(length);
    const f64 issue = exec_.vectorized ? timings_.vector_op_issue_cycles
                                       : timings_.vector_op_issue_cycles * n;
    return issue + n * timings_.cycles_per_vector_element;
  }

  /// The hazard detector behind the public hooks, called only under
  /// ExecutionOptions::hazard_check; no-ops without a fabric to report
  /// to. check_operand_hazard flags a source operand that partially
  /// overlaps the destination.
  virtual void on_hazard_mark_live(Dsd view, const char* label);
  virtual void on_hazard_release(Dsd view);
  virtual void on_hazard_release_all();
  virtual void check_operand_hazard(const char* op, Dsd dest, Dsd source,
                                    usize operand_index);

  const FabricTimings& timings_;
  const ExecutionOptions& exec_;
  f64& clock_;
  PeCounters& counters_;

 private:
  /// Charges one vector op of length n and the Table 4 memory traffic
  /// (loads per element, one store per element).
  void charge_vector_op(i32 length, u32 loads_per_element) {
    FVF_REQUIRE(length >= 0);
    clock_ += vector_op_cycles(length);
    counters_.mem_loads += static_cast<u64>(length) * loads_per_element;
    counters_.mem_stores += static_cast<u64>(length);
  }

  /// Flags sources that partially overlap the destination, numbering
  /// them from 1 (one test of hazard_check when the option is off).
  template <typename... Sources>
  void check_dsd_hazards(const char* op, Dsd dest, Sources... sources) {
    if (exec_.hazard_check) [[unlikely]] {
      usize operand_index = 0;
      (check_operand_hazard(op, dest, sources, ++operand_index), ...);
    }
  }
};

namespace detail {

/// dest[i] = op(sources[i]...) for i in [0, dest.length), in element
/// order. The compiler may vectorize the loop, but it must still honour
/// any aliasing between the views, so the result is the element order's
/// to the bit.
template <typename Op, typename... Sources>
inline void dsd_map(Dsd dest, Op op, Sources... sources) {
  f32* out = dest.base;
  for (i32 i = 0; i < dest.length; ++i) {
    out[i] = op(sources.base[i]...);
  }
}

}  // namespace detail

inline void PeCompute::fmuls(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fmuls", dest, a, b);
  detail::dsd_map(dest, [](f32 x, f32 y) { return x * y; }, a, b);
  counters_.fmul += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

inline void PeCompute::fmuls(Dsd dest, Dsd a, f32 scalar) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fmuls", dest, a);
  detail::dsd_map(dest, [scalar](f32 x) { return x * scalar; }, a);
  counters_.fmul += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

inline void PeCompute::fadds(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fadds", dest, a, b);
  detail::dsd_map(dest, [](f32 x, f32 y) { return x + y; }, a, b);
  counters_.fadd += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

inline void PeCompute::fsubs(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fsubs", dest, a, b);
  detail::dsd_map(dest, [](f32 x, f32 y) { return x - y; }, a, b);
  counters_.fsub += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

inline void PeCompute::fsubs(Dsd dest, Dsd a, f32 scalar) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fsubs", dest, a);
  detail::dsd_map(dest, [scalar](f32 x) { return x - scalar; }, a);
  counters_.fsub += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

inline void PeCompute::fnegs(Dsd dest, Dsd a) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fnegs", dest, a);
  detail::dsd_map(dest, [](f32 x) { return -x; }, a);
  counters_.fneg += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 1);
}

inline void PeCompute::fmacs(Dsd dest, Dsd a, Dsd b, Dsd c) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length &&
              dest.length == c.length);
  check_dsd_hazards("fmacs", dest, a, b, c);
  detail::dsd_map(
      dest, [](f32 x, f32 y, f32 z) { return x * y + z; }, a, b, c);
  counters_.fma += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 3);
}

inline void PeCompute::fmacs(Dsd dest, Dsd a, f32 scalar, Dsd c) {
  FVF_REQUIRE(dest.length == a.length && dest.length == c.length);
  check_dsd_hazards("fmacs", dest, a, c);
  detail::dsd_map(
      dest, [scalar](f32 x, f32 z) { return x * scalar + z; }, a, c);
  counters_.fma += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 3);
}

inline void PeCompute::selects(Dsd dest, Dsd pred, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == pred.length && dest.length == a.length &&
              dest.length == b.length);
  check_dsd_hazards("selects", dest, pred, a, b);
  detail::dsd_map(
      dest, [](f32 p, f32 x, f32 y) { return p > 0.0f ? x : y; }, pred, a, b);
  // Predicated move: cycles, no FP instruction counts, no Table 4 traffic.
  clock_ += vector_op_cycles(dest.length);
}

inline void PeCompute::zeros(Dsd dest) {
  detail::dsd_map(dest, [] { return 0.0f; });
  clock_ += vector_op_cycles(dest.length);
}

/// The handle a PE program uses to interact with the machine: the
/// compute half (PeCompute) plus memory allocation and fabric
/// communication. Valid only for the duration of a handler invocation.
class PeApi final : public PeCompute {
 public:
  PeApi(Fabric& fabric, Pe& pe, detail::Tile& tile);

  // --- identity ---------------------------------------------------------
  [[nodiscard]] Coord2 coord() const noexcept { return pe_.coord(); }
  [[nodiscard]] Coord2 fabric_size() const noexcept;
  [[nodiscard]] bool has_neighbor(Dir d) const noexcept;

  // --- memory -----------------------------------------------------------
  [[nodiscard]] PeMemory& memory() noexcept { return pe_.memory_; }

  // --- communication ----------------------------------------------------
  /// Sends a block of f32 values as wavelets of `color` through this PE's
  /// router (entering via the Ramp). Asynchronous by default.
  void send(Color color, std::span<const f32> values);

  /// Sends the concatenation of two arrays as a single block (a fabric
  /// output DSD streams directly from memory; no staging copy).
  void send(Color color, std::span<const f32> a, std::span<const f32> b);

  /// Sends a single control wavelet of `color`; every router it traverses
  /// advances that color's switch position after routing it.
  void send_control(Color color);

  /// Moves received fabric wavelets into PE memory (FMOV: one fabric load
  /// + one store per element).
  void fmovs(Dsd dest, FabricDsd src);

  /// Schedules a timer event delivered back to *this* PE's program via
  /// PeProgram::on_timer after `delay_cycles`. Timers never touch the
  /// fabric (born and consumed on the same tile), so they are free to use
  /// for protocol watchdogs without perturbing routing determinism.
  void schedule_timer(f64 delay_cycles, u32 tag);

  // --- fault reporting ---------------------------------------------------
  /// A protocol (e.g. the halo-exchange retransmit) recovered `blocks`
  /// previously dropped by the parity check; feeds RunReport::faults.
  void report_fault_recovered(u64 blocks = 1);
  /// A protocol detected an unrecoverable condition (e.g. retries
  /// exhausted); the message lands in RunReport::errors so the run is
  /// flagged, never silently wrong.
  void report_protocol_error(std::string message);

  // --- PeCompute: the fabric's phase profiler ----------------------------
  void set_phase(obs::Phase phase) noexcept override;

  // --- bookkeeping -------------------------------------------------------
  /// Marks this PE's program as finished (quiescence check).
  void signal_done() noexcept { pe_.done_ = true; }

 private:
  friend class Fabric;

  // --- PeCompute: the fabric's hazard detector ---------------------------
  void on_hazard_mark_live(Dsd view, const char* label) override;
  void on_hazard_release(Dsd view) override;
  void on_hazard_release_all() override;
  void check_operand_hazard(const char* op, Dsd dest, Dsd source,
                            usize operand_index) override;
  /// Flags an fmovs destination that overwrites a live-marked buffer.
  void check_receive_hazard(Dsd dest);

  Fabric& fabric_;
  Pe& pe_;
  detail::Tile& tile_;
};

/// The fabric: grid of PEs + routers + the event engine.
class Fabric {
 public:
  Fabric(i32 width, i32 height, FabricTimings timings = {},
         usize pe_memory_budget = PeMemory::kDefaultBudget,
         ExecutionOptions exec = {});

  ~Fabric();

  [[nodiscard]] i32 width() const noexcept { return width_; }
  [[nodiscard]] i32 height() const noexcept { return height_; }
  [[nodiscard]] i64 pe_count() const noexcept {
    return static_cast<i64>(width_) * height_;
  }
  [[nodiscard]] const FabricTimings& timings() const noexcept { return timings_; }
  [[nodiscard]] const ExecutionOptions& execution() const noexcept { return exec_; }
  /// Threads for per-PE host set-up work on this fabric (load, teardown,
  /// fvf::lint): ExecutionOptions::threads from kParallelMinPes PEs up,
  /// otherwise 1.
  [[nodiscard]] i32 host_threads() const noexcept {
    return pe_count() >= kParallelMinPes ? exec_.threads : 1;
  }

  [[nodiscard]] Pe& pe(i32 x, i32 y);
  [[nodiscard]] const Pe& pe(i32 x, i32 y) const;
  [[nodiscard]] Router& router(i32 x, i32 y);
  [[nodiscard]] const Router& router(i32 x, i32 y) const;

  /// Instantiates a program on every PE and installs router configs, one
  /// fabric row per task on host_threads() threads: the factory may be
  /// called concurrently for PEs of different rows. If it throws, the
  /// first failure in raster order is rethrown (the PEs already loaded
  /// stay owned by the fabric).
  void load(const ProgramFactory& factory);

  /// Installs an event tracer (pass nullptr to disable). With a serial
  /// run the tracer fires synchronously as blocks are routed, parked,
  /// released, and delivered; a parallel run buffers records per tile and
  /// drains them in the deterministic global event order at every window
  /// barrier, so the observed sequence is identical either way.
  void set_tracer(Tracer tracer) {
    tracer_ = std::move(tracer);
    recorder_ = nullptr;
  }

  /// Convenience overload: installs `recorder`'s callback and remembers
  /// the recorder so RunReport can surface its capacity-drop count
  /// (trace_records_dropped). The recorder must outlive the run.
  void set_tracer(TraceRecorder& recorder) {
    tracer_ = recorder.callback();
    recorder_ = &recorder;
  }

  /// Runs the event loop until quiescence (or until `max_events`) and
  /// returns the run's record. A load runs once, as a launch on the
  /// wafer does: a second call throws ContractViolation before any event
  /// is processed; build a new load to run again.
  /// on_start fires on every PE at cycle 0, in PE order. The budget is
  /// evaluated at deterministic simulated-time checkpoints (see
  /// checkpoint_cycles): every thread count processes
  /// exactly the events below the tripping checkpoint, so an exhausted
  /// run — count, error report, and all observable state — is bit-
  /// identical for every `threads` value. A run that completes at or
  /// under the budget is never flagged.
  RunReport run(u64 max_events = 500'000'000);

  /// Recorded non-idle phase spans of PE (x, y) for timeline export
  /// (empty unless ExecutionOptions::phase_span_capacity > 0).
  [[nodiscard]] const std::vector<obs::PhaseSpan>& phase_spans(i32 x,
                                                               i32 y) const;
  /// Spans of PE (x, y) not recorded because the per-PE capacity was
  /// reached.
  [[nodiscard]] u64 phase_spans_dropped(i32 x, i32 y) const;

 private:
  friend class PeApi;
  friend struct detail::Tile;

  /// Stamps the event's birth key (creation at location `birth`) and
  /// routes it to the destination tile: the local queue when the target
  /// PE is in `tile` (or the run is single-tile), the outbox otherwise.
  void push_event(detail::Tile& tile, i64 birth, Event& event);
  void process_event(detail::Tile& tile, Event& event);
  void deliver_to_pe(detail::Tile& tile, Pe& pe, const Event& event);
  void emit_trace(detail::Tile& tile, const TraceEvent& event);
  /// Books the PE cycles in [begin, end) under `phase` and, when span
  /// recording is on and the phase is not Idle, appends a timeline span.
  void attribute_phase(Pe& pe, obs::Phase phase, f64 begin, f64 end);
  /// Re-injects wavelets that were waiting (backpressure) on a switch
  /// position change of `color` at router `at`.
  void release_pending(detail::Tile& tile, usize at, Color color,
                       f64 not_before);

  /// Drains one tile's queue up to `window_end` (exclusive). `event_cap`
  /// is the runaway backstop (2× the budget), not the budget itself —
  /// budget enforcement happens at checkpoint cuts in run().
  void run_tile(detail::Tile& tile, f64 window_end, u64 event_cap);
  /// Merges the tiles' accounting into the run's record, frees the
  /// tiles and their parked events, then adds the per-PE totals.
  RunReport finish_run(std::vector<detail::Tile>& tiles, bool budget_hit,
                       u64 max_events);

  /// Runs `row_fn(y)` for every fabric row on host_threads() threads,
  /// then rethrows the first failure in row order.
  void for_each_row(const std::function<void(i32)>& row_fn) const;

  [[nodiscard]] i64 index(i32 x, i32 y) const noexcept {
    return static_cast<i64>(y) * width_ + x;
  }

  /// Simulated-cycle spacing of the event-budget checkpoints: `max_events`
  /// is evaluated whenever global simulated time crosses a multiple of
  /// this value, which makes the budget decision a pure function of the
  /// simulation (identical for every `threads` value). 256 hop latencies
  /// (at least 256 cycles).
  [[nodiscard]] f64 checkpoint_cycles() const noexcept;
  /// Row-strip tile count for this fabric's execution options.
  [[nodiscard]] i32 tile_count() const noexcept;

  i32 width_;
  i32 height_;
  FabricTimings timings_;
  ExecutionOptions exec_;
  usize memory_budget_;
  /// Contiguous PE state (SoA-adjacent arrays below index the same way):
  /// sized once in the constructor, never reallocated.
  std::vector<Pe> pes_;
  /// Every distinct switch table of the fabric, once; routers hold ids
  /// into it. Heap-held so the routers' pointers to it stay valid.
  std::unique_ptr<RoutePool> route_pool_;
  /// Mapped rather than heap-allocated: freeing an array this large from
  /// the heap raises malloc's dynamic mmap threshold (see
  /// mapped_allocator.hpp), which would make peak RSS depend on thread
  /// timing.
  std::vector<Router, MappedAllocator<Router>> routers_;
  /// Tile owning each fabric row (filled per run).
  std::vector<i32> tile_of_row_;
  /// Fault-injection oracle (disabled when all rates are zero) and the
  /// per-router next-free time of each output link. A stalled link delays
  /// its whole FIFO tail; each entry is only touched by the tile that
  /// owns its router's row, and only consulted when faults are enabled,
  /// so zero-rate runs stay bit-identical to a fault-free engine.
  FaultModel fault_model_;
  std::vector<std::array<f64, kLinkCount>> link_free_;
  /// Per-PE hazard-detector state; sized only when hazard_check is on
  /// (and each entry is only touched by the tile owning its PE's row).
  std::vector<HazardState> hazard_state_;
  /// Per-PE timeline spans; sized only when phase_span_capacity > 0 (and
  /// each entry is only touched by the tile owning its PE's row).
  struct SpanLog {
    std::vector<obs::PhaseSpan> spans;
    u64 dropped = 0;
  };
  std::vector<SpanLog> span_logs_;
  Tracer tracer_;
  TraceRecorder* recorder_ = nullptr;
  /// Set by the one run() this fabric allows.
  bool ran_ = false;
};

}  // namespace fvf::wse
