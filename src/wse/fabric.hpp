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

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

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
  /// Recorded non-idle phase spans for timeline export (empty unless
  /// ExecutionOptions::phase_span_capacity > 0).
  [[nodiscard]] const std::vector<obs::PhaseSpan>& phase_spans()
      const noexcept {
    return phase_spans_;
  }
  /// Spans not recorded because the per-PE capacity was reached.
  [[nodiscard]] u64 phase_spans_dropped() const noexcept {
    return phase_spans_dropped_;
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
  std::vector<obs::PhaseSpan> phase_spans_;
  u64 phase_spans_dropped_ = 0;
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
  /// spans are counted in Pe::phase_spans_dropped().
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
  /// Simulated-cycle spacing of the event-budget checkpoints: `max_events`
  /// is evaluated whenever global simulated time crosses a multiple of
  /// this value, which makes the budget decision a pure function of the
  /// simulation (identical for every `threads` value). 0 (the default)
  /// derives a spacing of 256 × max(hop_latency_cycles, 1).
  f64 budget_check_cycles = 0.0;
};

/// Outcome of a fabric run.
struct RunReport {
  /// Makespan: cycle at which the last PE/wavelet activity finished.
  f64 makespan_cycles = 0.0;
  u64 events_processed = 0;
  u64 tasks_executed = 0;
  /// PEs whose program called PeApi::signal_done().
  i64 pes_done = 0;
  std::vector<std::string> errors;
  /// Errors raised in total; only the first few are recorded in `errors`,
  /// the remainder are summarized (`errors_suppressed`) — both counts are
  /// reported so no failure is silently invisible.
  u64 errors_total = 0;
  u64 errors_suppressed = 0;
  /// Trace records emitted by the engine vs. dropped at the recorder's
  /// capacity (populated when the tracer is a TraceRecorder installed via
  /// the Fabric::set_tracer(TraceRecorder&) overload).
  u64 trace_events_emitted = 0;
  u64 trace_records_dropped = 0;
  /// Graceful-degradation accounting: faults injected / detected /
  /// recovered / unrecovered (see FaultStats; the buckets partition
  /// faults.injected()). All zero when fault injection is disabled.
  FaultStats faults;
  /// Memory hazards flagged by ExecutionOptions::hazard_check, recorded
  /// in the deterministic event order like `errors` and capped the same
  /// way (hazards_total / hazards_suppressed preserve the full count).
  /// Always empty when the check is off. Hazards are diagnostics, not
  /// run failures: they do not affect ok().
  std::vector<std::string> hazards;
  u64 hazards_total = 0;
  u64 hazards_suppressed = 0;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

/// The handle a PE program uses to interact with the machine: memory
/// allocation, DSD computation, and fabric communication. Valid only for
/// the duration of a handler invocation.
class PeApi {
 public:
  PeApi(Fabric& fabric, Pe& pe, detail::Tile& tile)
      : fabric_(fabric), pe_(pe), tile_(tile) {}

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
  /// Moves received fabric wavelets into PE memory (FMOV: one fabric load
  /// + one store per element).
  void fmovs(Dsd dest, FabricDsd src);
  /// Clears an array (constant-broadcast move; cycles only, not counted
  /// as FP work or memory traffic in the Table 4 model).
  void zeros(Dsd dest);

  // --- scalar ops --------------------------------------------------------
  /// Charges `count` generic scalar ops (cycles + scalar_misc counter).
  void scalar_ops(u64 count);
  /// Charges `count` transcendental evaluations (EOS exponentials).
  void transcendental_ops(u64 count);

  // --- hazard detection ---------------------------------------------------
  /// Marks `view` as a live buffer handed out to program code: until
  /// released, a fabric receive (fmovs) overwriting any part of it is
  /// reported as a hazard. No-op unless ExecutionOptions::hazard_check.
  void hazard_mark_live(Dsd view, const char* label);
  /// Releases the most recent live mark covering exactly `view`'s range.
  void hazard_release(Dsd view);
  /// Releases every live mark on this PE.
  void hazard_release_all();

  // --- observability ------------------------------------------------------
  /// Retags the cycles this handler accrues from here on (the profiler
  /// books everything since the last mark under the previous phase
  /// first). A no-op when phase profiling is off — programs may call it
  /// unconditionally without perturbing anything observable.
  void set_phase(obs::Phase phase) noexcept;

  // --- bookkeeping -------------------------------------------------------
  [[nodiscard]] PeCounters& counters() noexcept { return pe_.counters_; }
  /// Marks this PE's program as finished (quiescence check).
  void signal_done() noexcept { pe_.done_ = true; }
  [[nodiscard]] f64 now() const noexcept { return pe_.clock_; }
  /// Advances the PE clock by raw cycles (modeling costs outside the
  /// provided primitives).
  void add_cycles(f64 cycles) noexcept { pe_.clock_ += cycles; }

 private:
  friend class Fabric;

  /// Shared per-element loop: charges one vector op of length n and the
  /// Table 4 memory traffic (loads per element, one store per element).
  void charge_vector_op(i32 length, u32 loads_per_element);

  /// Hazard_check hooks (no-ops when the option is off): flags sources
  /// that partially overlap the destination, and fmovs destinations that
  /// overwrite a live-marked buffer.
  void check_dsd_hazards(const char* op, Dsd dest, Dsd a);
  void check_dsd_hazards(const char* op, Dsd dest, Dsd a, Dsd b);
  void check_dsd_hazards(const char* op, Dsd dest, Dsd a, Dsd b, Dsd c);
  void check_operand_hazard(const char* op, Dsd dest, Dsd source,
                            usize operand_index);
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

  /// Runs the event loop until quiescence (or until `max_events`).
  /// on_start fires on every PE at cycle 0, in PE order. The budget is
  /// evaluated at deterministic simulated-time checkpoints (see
  /// ExecutionOptions::budget_check_cycles): every thread count processes
  /// exactly the events below the tripping checkpoint, so an exhausted
  /// run — count, error report, and all observable state — is bit-
  /// identical for every `threads` value. A run that completes at or
  /// under the budget is never flagged.
  RunReport run(u64 max_events = 500'000'000);

  /// Aggregate counters over all PEs.
  [[nodiscard]] PeCounters total_counters() const;

  /// Total wavelets of one color carried by any router output link,
  /// summed over all routers: multi-hop blocks count once per hop, and
  /// Ramp delivery to the destination PE counts like any other link.
  [[nodiscard]] u64 color_traffic(Color color) const;

  /// Largest PE memory usage across the fabric (bytes).
  [[nodiscard]] usize max_memory_used() const;

  /// Per-phase cycle attribution summed over all PEs (all zero when
  /// ExecutionOptions::phase_profiling is off).
  [[nodiscard]] obs::PhaseCycles total_phase_cycles() const;

 private:
  friend class PeApi;
  friend struct detail::Tile;

  /// Backpressured wavelets parked at one router, grouped by color:
  /// release_pending on a switch advance moves out exactly one color's
  /// FIFO instead of linearly rescanning every parked event. Arrival
  /// order within a color is preserved (the re-injection order the
  /// protocol observes); `total` counts parked events across colors for
  /// the overflow check and the stranded-buffer report.
  struct PendingBuffer {
    struct ColorFifo {
      Color color{};
      std::vector<Event> events;
    };
    std::vector<ColorFifo> fifos;
    u32 total = 0;
  };

  /// Stamps the event's birth key (creation at location `birth`) and
  /// routes it to the destination tile: the local queue when the target
  /// PE is in `tile` (or the run is single-tile), the outbox otherwise.
  void push_event(detail::Tile& tile, i64 birth, Event& event);
  void process_event(detail::Tile& tile, Event& event);
  void deliver_to_pe(detail::Tile& tile, Pe& pe, const Event& event);
  /// Records a run error in deterministic event order. Only the first 32
  /// are kept; the rest are counted and reported as one summary line.
  void emit_error(detail::Tile& tile, std::string message);
  /// Same channel discipline as emit_error, but into RunReport::hazards
  /// (hazard_check findings are diagnostics, not run failures).
  void emit_hazard(detail::Tile& tile, std::string message);
  void emit_trace(detail::Tile& tile, const TraceEvent& event);
  /// Books the PE cycles in [begin, end) under `phase` and, when span
  /// recording is on and the phase is not Idle, appends a timeline span.
  void attribute_phase(Pe& pe, obs::Phase phase, f64 begin, f64 end);
  /// Re-injects wavelets that were waiting (backpressure) on a switch
  /// position change of `color` at router (x, y).
  void release_pending(detail::Tile& tile, i32 x, i32 y, Color color,
                       f64 not_before);

  /// Drains one tile's queue up to `window_end` (exclusive). `event_cap`
  /// is the runaway backstop (2× the budget), not the budget itself —
  /// budget enforcement happens at checkpoint cuts in run().
  void run_tile(detail::Tile& tile, f64 window_end, u64 event_cap);
  RunReport finish_run(std::vector<detail::Tile>& tiles, bool budget_hit,
                       u64 max_events);

  /// Runs `row_fn(y)` for every fabric row on host_threads() threads,
  /// then rethrows the first failure in row order.
  void for_each_row(const std::function<void(i32)>& row_fn) const;

  [[nodiscard]] i64 index(i32 x, i32 y) const noexcept {
    return static_cast<i64>(y) * width_ + x;
  }

  /// Flat mirror of every router's *current* switch position, one packed
  /// u32 per (location, color, input link): bit 0 = rule exists, bits 1-3
  /// = output count, then 3 bits per output Dir in configuration order.
  /// Route resolution through the Router object chases four dependent
  /// cache lines (configs array -> positions vector -> rules vector ->
  /// outputs vector) per event, which dominates the hot path once the
  /// fabric outgrows the LLC; the mirror answers in a single contiguous
  /// load. Rebuilt from the routers at run() entry and re-resolved for
  /// one (location, color) whenever a control wavelet advances that
  /// switch — the Router stays authoritative.
  void rebuild_route_entry(usize at, Color color);
  void build_route_table();

  /// Checkpoint spacing actually in effect (resolves the auto default).
  [[nodiscard]] f64 checkpoint_cycles() const noexcept;
  /// Row-strip tile count for this fabric's execution options (stable
  /// across run() calls, so payload arenas persist between runs).
  [[nodiscard]] i32 tile_count() const noexcept;

  i32 width_;
  i32 height_;
  FabricTimings timings_;
  ExecutionOptions exec_;
  usize memory_budget_;
  /// Contiguous PE state (SoA-adjacent arrays below index the same way):
  /// sized once in the constructor, never reallocated.
  std::vector<Pe> pes_;
  std::vector<Router> routers_;
  /// See build_route_table: kLinkCount packed rules per (location, color),
  /// laid out [at * kMaxColors + color][input].
  std::vector<std::array<u32, kLinkCount>> route_table_;
  /// Backpressure queues: wavelets whose color's current switch position
  /// does not accept their input link wait here until a control wavelet
  /// advances the switch (models the router's input buffering).
  std::vector<PendingBuffer> pending_;
  /// One payload arena per event-engine tile, owned by the Fabric because
  /// parked (pending) events keep their payload handles alive across
  /// run() calls. Sized on first run; the tiling is a pure function of
  /// construction parameters, so handles stay valid between runs.
  std::vector<PayloadArena> arenas_;
  /// Per-location birth counters backing the deterministic event keys.
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
  std::vector<std::string> hazards_;
  u64 hazards_total_ = 0;
  Tracer tracer_;
  TraceRecorder* recorder_ = nullptr;
  u64 events_processed_ = 0;
  u64 tasks_executed_ = 0;
  f64 horizon_ = 0.0;  ///< latest time observed anywhere
  std::vector<std::string> errors_;
  u64 errors_total_ = 0;
};

}  // namespace fvf::wse
