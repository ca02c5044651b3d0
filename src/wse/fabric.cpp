#include "wse/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace fvf::wse {

namespace {
/// Run errors kept verbatim; the rest are counted and summarised.
constexpr usize kMaxRecordedErrors = 32;
/// Per-run_tile-call event cap: forces a barrier even when one window
/// legitimately holds an enormous number of events, so the outer loop
/// can watch the global minimum time and detect a zero-time-advance
/// livelock. Never affects results — an interrupted window resumes at
/// the next barrier exactly where it stopped.
constexpr u64 kWindowEventCap = u64{1} << 22;
/// Consecutive barriers without global-minimum advance (while events
/// keep being processed) before the run is declared livelocked. A
/// healthy program bounds its same-timestamp event population, so the
/// limit is only reached when simulated time is genuinely stuck.
constexpr u32 kStallLimit = 16;
}  // namespace

namespace detail {

/// One shard of the event engine: a contiguous strip of fabric rows with
/// its own event queue. A single-tile run (`direct == true`) is the
/// classic serial loop — tracer and error sinks are live and nothing is
/// buffered. A multi-tile run steps all tiles in lockstep over
/// conservative time windows; anything order-sensitive (cross-tile
/// events, trace records, errors) is buffered per tile and merged on the
/// coordinating thread in the deterministic (time, src, seq) order.
struct Tile {
  /// Sort key tagging a deferred record with the event being processed
  /// when it was emitted, plus an emission index within that event.
  struct RecordKey {
    f64 time = 0.0;
    i64 src = 0;
    u64 seq = 0;
    u32 idx = 0;

    [[nodiscard]] friend bool operator<(const RecordKey& a,
                                        const RecordKey& b) noexcept {
      if (a.time != b.time) {
        return a.time < b.time;
      }
      if (a.src != b.src) {
        return a.src < b.src;
      }
      if (a.seq != b.seq) {
        return a.seq < b.seq;
      }
      return a.idx < b.idx;
    }
  };
  struct TraceRecord {
    RecordKey key;
    TraceEvent event;
  };
  struct ErrorRecord {
    RecordKey key;
    std::string message;
  };

  i32 id = 0;
  bool direct = true;
  /// Payload slab pool for every event this tile owns (see
  /// wse/payload.hpp). Points into Fabric::arenas_, which outlives the
  /// run so parked payloads survive between run() calls.
  PayloadArena* arena = nullptr;
  /// Fault-injection accounting local to this tile; summed in finish_run.
  FaultStats faults;
  /// Trace records handed to the tracer (direct) or buffered (deferred).
  u64 traces_emitted = 0;
  EventQueue queue;
  /// Cross-tile events born this window, per destination tile; moved into
  /// the destination queues (payloads re-homed into the destination
  /// arena) at the window barrier.
  std::vector<std::vector<Event>> outbox;
  std::vector<TraceRecord> traces;
  std::vector<ErrorRecord> errors;
  u64 errors_total = 0;
  /// Hazard-check findings, buffered exactly like errors so the merged
  /// report is identical for every thread count.
  std::vector<ErrorRecord> hazards;
  u64 hazards_total = 0;
  u64 events_processed = 0;
  u64 tasks_executed = 0;
  f64 horizon = 0.0;
  /// Key of the event currently being processed (tags deferred records).
  RecordKey cursor;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// PeApi
// ---------------------------------------------------------------------------

Coord2 PeApi::fabric_size() const noexcept {
  return Coord2{fabric_.width(), fabric_.height()};
}

bool PeApi::has_neighbor(Dir d) const noexcept {
  const Coord2 off = dir_offset(d);
  const i32 nx = pe_.coord().x + off.x;
  const i32 ny = pe_.coord().y + off.y;
  return nx >= 0 && nx < fabric_.width() && ny >= 0 && ny < fabric_.height();
}

void PeApi::send(Color color, std::span<const f32> values) {
  FVF_REQUIRE(!values.empty());
  const f64 serialization =
      static_cast<f64>(values.size()) * fabric_.timings_.cycles_per_wavelet_link;

  Event event;
  event.x = pe_.coord().x;
  event.y = pe_.coord().y;
  event.from = Dir::Ramp;
  event.color = color;
  event.payload_words = static_cast<u32>(values.size());
  event.payload = tile_.arena->alloc(event.payload_words);
  u32* words = tile_.arena->data(event.payload);
  for (usize i = 0; i < values.size(); ++i) {
    words[i] = pack_f32(values[i]);
  }
  // Parity stamped at injection, checked at Ramp delivery when fault
  // injection is enabled (bit-flip detection; see wse/fault.hpp). The
  // stamp is skipped entirely on fault-free runs: nothing reads it.
  if (fabric_.fault_model_.enabled()) {
    event.parity =
        block_parity(tile_.arena->view(event.payload, event.payload_words));
  }
  // Wormhole model: the event time is when the last wavelet has entered
  // the local router. Injection serializes on the Ramp link.
  const f64 start = std::max(pe_.clock_, pe_.ramp_free_);
  event.time = start + serialization;
  pe_.ramp_free_ = event.time;
  pe_.counters_.wavelets_sent += values.size();

  if (!fabric_.exec_.async_sends) {
    // Blocking-send ablation: the PE stalls for the injection time.
    pe_.clock_ = event.time;
  }
  fabric_.push_event(tile_, fabric_.index(event.x, event.y), event);
}

void PeApi::send(Color color, std::span<const f32> a, std::span<const f32> b) {
  FVF_REQUIRE(!a.empty() || !b.empty());
  const usize n = a.size() + b.size();
  const f64 serialization =
      static_cast<f64>(n) * fabric_.timings_.cycles_per_wavelet_link;

  Event event;
  event.x = pe_.coord().x;
  event.y = pe_.coord().y;
  event.from = Dir::Ramp;
  event.color = color;
  event.payload_words = static_cast<u32>(n);
  event.payload = tile_.arena->alloc(event.payload_words);
  u32* words = tile_.arena->data(event.payload);
  usize at = 0;
  for (const f32 v : a) {
    words[at++] = pack_f32(v);
  }
  for (const f32 v : b) {
    words[at++] = pack_f32(v);
  }
  if (fabric_.fault_model_.enabled()) {
    event.parity =
        block_parity(tile_.arena->view(event.payload, event.payload_words));
  }
  const f64 start = std::max(pe_.clock_, pe_.ramp_free_);
  event.time = start + serialization;
  pe_.ramp_free_ = event.time;
  pe_.counters_.wavelets_sent += n;
  if (!fabric_.exec_.async_sends) {
    pe_.clock_ = event.time;
  }
  fabric_.push_event(tile_, fabric_.index(event.x, event.y), event);
}

void PeApi::send_control(Color color) {
  Event event;
  event.x = pe_.coord().x;
  event.y = pe_.coord().y;
  event.from = Dir::Ramp;
  event.color = color;
  event.control = true;
  // A control wavelet is one wavelet on the wire but carries no payload
  // bytes: no arena allocation at all.
  event.payload_words = 1;
  const f64 start = std::max(pe_.clock_, pe_.ramp_free_);
  event.time = start + fabric_.timings_.cycles_per_wavelet_link;
  pe_.ramp_free_ = event.time;
  pe_.counters_.controls_sent += 1;
  if (!fabric_.exec_.async_sends) {
    pe_.clock_ = event.time;
  }
  fabric_.push_event(tile_, fabric_.index(event.x, event.y), event);
}

void PeApi::schedule_timer(f64 delay_cycles, u32 tag) {
  FVF_REQUIRE(delay_cycles > 0.0);
  Event event;
  event.x = pe_.coord().x;
  event.y = pe_.coord().y;
  event.timer = true;
  event.timer_tag = tag;
  // Timers are PE-local: born and delivered on the owning tile, so they
  // are exempt from the cross-tile lookahead constraint.
  event.time = pe_.clock_ + delay_cycles;
  fabric_.push_event(tile_, fabric_.index(event.x, event.y), event);
}

void PeApi::report_fault_recovered(u64 blocks) {
  tile_.faults.flips_recovered += blocks;
}

void PeApi::report_protocol_error(std::string message) {
  fabric_.emit_error(tile_, std::move(message));
}

void PeApi::hazard_mark_live(Dsd view, const char* label) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  HazardState& state =
      fabric_.hazard_state_[static_cast<usize>(fabric_.index(
          pe_.coord().x, pe_.coord().y))];
  state.live.push_back(HazardState::LiveRange{range_of(view), label});
}

void PeApi::hazard_release(Dsd view) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  HazardState& state =
      fabric_.hazard_state_[static_cast<usize>(fabric_.index(
          pe_.coord().x, pe_.coord().y))];
  const MemRange range = range_of(view);
  for (auto it = state.live.rbegin(); it != state.live.rend(); ++it) {
    if (it->range.begin == range.begin && it->range.end == range.end) {
      state.live.erase(std::next(it).base());
      return;
    }
  }
}

void PeApi::hazard_release_all() {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  fabric_
      .hazard_state_[static_cast<usize>(
          fabric_.index(pe_.coord().x, pe_.coord().y))]
      .live.clear();
}

void PeApi::check_operand_hazard(const char* op, Dsd dest, Dsd source,
                                 usize operand_index) {
  if (!partial_overlap(dest, source)) {
    return;
  }
  const HazardState& state =
      fabric_.hazard_state_[static_cast<usize>(fabric_.index(
          pe_.coord().x, pe_.coord().y))];
  // Offsets are in elements relative to the destination base: stable and
  // deterministic (both views live in the same allocation when they
  // overlap), unlike raw addresses.
  const auto delta = reinterpret_cast<const f32*>(source.base) - dest.base;
  std::ostringstream os;
  os << "memory hazard at PE(" << pe_.coord().x << ',' << pe_.coord().y
     << ") task #" << state.epoch << ": " << op << " source operand "
     << operand_index << " (length " << source.length
     << ") partially overlaps the destination (length " << dest.length
     << ", source offset " << delta
     << " elements) — the element loop reads values the same instruction "
        "already overwrote";
  fabric_.emit_hazard(tile_, os.str());
}

void PeApi::check_dsd_hazards(const char* op, Dsd dest, Dsd a) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  check_operand_hazard(op, dest, a, 1);
}

void PeApi::check_dsd_hazards(const char* op, Dsd dest, Dsd a, Dsd b) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  check_operand_hazard(op, dest, a, 1);
  check_operand_hazard(op, dest, b, 2);
}

void PeApi::check_dsd_hazards(const char* op, Dsd dest, Dsd a, Dsd b, Dsd c) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  check_operand_hazard(op, dest, a, 1);
  check_operand_hazard(op, dest, b, 2);
  check_operand_hazard(op, dest, c, 3);
}

void PeApi::check_receive_hazard(Dsd dest) {
  if (!fabric_.exec_.hazard_check) {
    return;
  }
  const HazardState& state =
      fabric_.hazard_state_[static_cast<usize>(fabric_.index(
          pe_.coord().x, pe_.coord().y))];
  const MemRange range = range_of(dest);
  for (const HazardState::LiveRange& live : state.live) {
    if (ranges_overlap(range, live.range)) {
      std::ostringstream os;
      os << "memory hazard at PE(" << pe_.coord().x << ',' << pe_.coord().y
         << ") task #" << state.epoch << ": fmovs receive (length "
         << dest.length << ") overwrites live buffer '" << live.label
         << "' while a handler still holds a view of it";
      fabric_.emit_hazard(tile_, os.str());
    }
  }
}

void PeApi::set_phase(obs::Phase phase) noexcept {
  if (!fabric_.exec_.phase_profiling || phase == pe_.current_phase_) {
    return;
  }
  fabric_.attribute_phase(pe_, pe_.current_phase_, pe_.phase_mark_, pe_.clock_);
  pe_.current_phase_ = phase;
  pe_.phase_mark_ = pe_.clock_;
}

void PeApi::charge_vector_op(i32 length, u32 loads_per_element) {
  FVF_REQUIRE(length >= 0);
  const FabricTimings& t = fabric_.timings_;
  const f64 issue = fabric_.exec_.vectorized
                        ? t.vector_op_issue_cycles
                        : t.vector_op_issue_cycles * static_cast<f64>(length);
  pe_.clock_ +=
      issue + static_cast<f64>(length) * t.cycles_per_vector_element;
  pe_.counters_.mem_loads += static_cast<u64>(length) * loads_per_element;
  pe_.counters_.mem_stores += static_cast<u64>(length);
}

void PeApi::fmuls(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fmuls", dest, a, b);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) * b.at(i);
  }
  pe_.counters_.fmul += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

void PeApi::fmuls(Dsd dest, Dsd a, f32 scalar) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fmuls", dest, a);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) * scalar;
  }
  pe_.counters_.fmul += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

void PeApi::fadds(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fadds", dest, a, b);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) + b.at(i);
  }
  pe_.counters_.fadd += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

void PeApi::fsubs(Dsd dest, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length);
  check_dsd_hazards("fsubs", dest, a, b);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) - b.at(i);
  }
  pe_.counters_.fsub += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

void PeApi::fsubs(Dsd dest, Dsd a, f32 scalar) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fsubs", dest, a);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) - scalar;
  }
  pe_.counters_.fsub += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 2);
}

void PeApi::fnegs(Dsd dest, Dsd a) {
  FVF_REQUIRE(dest.length == a.length);
  check_dsd_hazards("fnegs", dest, a);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = -a.at(i);
  }
  pe_.counters_.fneg += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 1);
}

void PeApi::fmacs(Dsd dest, Dsd a, Dsd b, Dsd c) {
  FVF_REQUIRE(dest.length == a.length && dest.length == b.length &&
              dest.length == c.length);
  check_dsd_hazards("fmacs", dest, a, b, c);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) * b.at(i) + c.at(i);
  }
  pe_.counters_.fma += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 3);
}

void PeApi::fmacs(Dsd dest, Dsd a, f32 scalar, Dsd c) {
  FVF_REQUIRE(dest.length == a.length && dest.length == c.length);
  check_dsd_hazards("fmacs", dest, a, c);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = a.at(i) * scalar + c.at(i);
  }
  pe_.counters_.fma += static_cast<u64>(dest.length);
  charge_vector_op(dest.length, 3);
}

void PeApi::selects(Dsd dest, Dsd pred, Dsd a, Dsd b) {
  FVF_REQUIRE(dest.length == pred.length && dest.length == a.length &&
              dest.length == b.length);
  check_dsd_hazards("selects", dest, pred, a, b);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = pred.at(i) > 0.0f ? a.at(i) : b.at(i);
  }
  // Predicated move: cycles, no FP instruction counts, no Table 4 traffic.
  const FabricTimings& t = fabric_.timings_;
  const f64 issue = fabric_.exec_.vectorized
                        ? t.vector_op_issue_cycles
                        : t.vector_op_issue_cycles * static_cast<f64>(dest.length);
  pe_.clock_ +=
      issue + static_cast<f64>(dest.length) * t.cycles_per_vector_element;
}

void PeApi::fmovs(Dsd dest, FabricDsd src) {
  FVF_REQUIRE(dest.length == src.length);
  check_receive_hazard(dest);
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = unpack_f32(src.base[i]);
  }
  pe_.counters_.fmov += static_cast<u64>(dest.length);
  pe_.counters_.mem_stores += static_cast<u64>(dest.length);
  pe_.clock_ += static_cast<f64>(dest.length) *
                fabric_.timings_.ramp_cycles_per_wavelet;
}

void PeApi::zeros(Dsd dest) {
  for (i32 i = 0; i < dest.length; ++i) {
    dest.at(i) = 0.0f;
  }
  const FabricTimings& t = fabric_.timings_;
  const f64 issue = fabric_.exec_.vectorized
                        ? t.vector_op_issue_cycles
                        : t.vector_op_issue_cycles * static_cast<f64>(dest.length);
  pe_.clock_ +=
      issue + static_cast<f64>(dest.length) * t.cycles_per_vector_element;
}

void PeApi::scalar_ops(u64 count) {
  pe_.counters_.scalar_misc += count;
  pe_.clock_ += static_cast<f64>(count) * fabric_.timings_.scalar_op_cycles;
}

void PeApi::transcendental_ops(u64 count) {
  pe_.counters_.scalar_misc += count;
  pe_.clock_ += static_cast<f64>(count) * fabric_.timings_.exp_cycles;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(i32 width, i32 height, FabricTimings timings,
               usize pe_memory_budget, ExecutionOptions exec)
    : width_(width),
      height_(height),
      timings_(timings),
      exec_(exec),
      memory_budget_(pe_memory_budget),
      fault_model_(exec.fault) {
  FVF_REQUIRE(width > 0 && height > 0);
  pes_.reserve(static_cast<usize>(pe_count()));
  routers_.resize(static_cast<usize>(pe_count()));
  pending_.resize(static_cast<usize>(pe_count()));
  if (fault_model_.enabled()) {
    // Per-link next-free times backing the FIFO-preserving stall model.
    link_free_.resize(static_cast<usize>(pe_count()),
                      std::array<f64, kLinkCount>{});
  }
  if (exec_.hazard_check) {
    hazard_state_.resize(static_cast<usize>(pe_count()));
  }
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      pes_.emplace_back(Coord2{x, y}, memory_budget_);
    }
  }
}

Fabric::~Fabric() {
  // A loaded PE's host state is mostly its program: free it by row on
  // the threads that built it.
  for_each_row([this](i32 y) {
    for (i32 x = 0; x < width_; ++x) {
      Pe& p = pes_[static_cast<usize>(index(x, y))];
      p.program_.reset();
      p.memory_ = PeMemory(p.memory_.budget());
    }
  });
}

void Fabric::for_each_row(const std::function<void(i32)>& row_fn) const {
  std::vector<std::exception_ptr> failures(static_cast<usize>(height_));
  ThreadPool pool(host_threads());
  pool.run_indexed(height_, [&](i64 row) {
    try {
      row_fn(static_cast<i32>(row));
    } catch (...) {
      failures[static_cast<usize>(row)] = std::current_exception();
    }
  });
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) {
      std::rethrow_exception(failure);
    }
  }
}

Pe& Fabric::pe(i32 x, i32 y) {
  FVF_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_);
  return pes_[static_cast<usize>(index(x, y))];
}

const Pe& Fabric::pe(i32 x, i32 y) const {
  FVF_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_);
  return pes_[static_cast<usize>(index(x, y))];
}

Router& Fabric::router(i32 x, i32 y) {
  FVF_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_);
  return routers_[static_cast<usize>(index(x, y))];
}

const Router& Fabric::router(i32 x, i32 y) const {
  FVF_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_);
  return routers_[static_cast<usize>(index(x, y))];
}

void Fabric::load(const ProgramFactory& factory) {
  FVF_REQUIRE(factory != nullptr);
  // Each row writes only its own PEs and routers.
  for_each_row([&](i32 y) {
    for (i32 x = 0; x < width_; ++x) {
      Pe& p = pe(x, y);
      p.program_ = factory(Coord2{x, y}, Coord2{width_, height_});
      FVF_REQUIRE(p.program_ != nullptr);
      p.program_->configure_router(router(x, y));
    }
  });
}

void Fabric::push_event(detail::Tile& tile, i64 birth, Event& event) {
  event.src = birth;
  event.seq = routers_[static_cast<usize>(birth)].next_birth_seq();
  tile.horizon = std::max(tile.horizon, event.time);
  if (tile.direct) {
    tile.queue.push(event);
    return;
  }
  const i32 dest = tile_of_row_[static_cast<usize>(event.y)];
  if (dest == tile.id) {
    tile.queue.push(event);
  } else {
    // The payload handle still points into this tile's arena; the
    // barrier re-homes it into the destination arena before delivery.
    tile.outbox[static_cast<usize>(dest)].push_back(event);
  }
}

void Fabric::emit_error(detail::Tile& tile, std::string message) {
  if (tile.direct) {
    ++errors_total_;
    if (errors_.size() < kMaxRecordedErrors) {
      errors_.push_back(std::move(message));
    }
    return;
  }
  ++tile.errors_total;
  if (tile.errors.size() < kMaxRecordedErrors) {
    detail::Tile::ErrorRecord record;
    record.key = tile.cursor;
    ++tile.cursor.idx;
    record.message = std::move(message);
    tile.errors.push_back(std::move(record));
  }
}

void Fabric::emit_hazard(detail::Tile& tile, std::string message) {
  if (tile.direct) {
    ++hazards_total_;
    if (hazards_.size() < kMaxRecordedErrors) {
      hazards_.push_back(std::move(message));
    }
    return;
  }
  ++tile.hazards_total;
  if (tile.hazards.size() < kMaxRecordedErrors) {
    detail::Tile::ErrorRecord record;
    record.key = tile.cursor;
    ++tile.cursor.idx;
    record.message = std::move(message);
    tile.hazards.push_back(std::move(record));
  }
}

void Fabric::emit_trace(detail::Tile& tile, const TraceEvent& event) {
  ++tile.traces_emitted;
  if (tile.direct) {
    tracer_(event);
    return;
  }
  detail::Tile::TraceRecord record;
  record.key = tile.cursor;
  ++tile.cursor.idx;
  record.event = event;
  tile.traces.push_back(record);
}

void Fabric::deliver_to_pe(detail::Tile& tile, Pe& target, const Event& event) {
  if (tracer_) {
    emit_trace(tile, TraceEvent{event.timer ? TraceKind::TimerFired
                                            : TraceKind::TaskStart,
                                event.time, event.x, event.y, event.color,
                                event.from, event.payload_words});
  }
  // Profiling is observation only: it reads the clock the dispatch code
  // below advances, and writes nothing the simulation reads back.
  const f64 clock_before = target.clock_;
  if (fault_model_.enabled() && !event.start &&
      fault_model_.halt_pe(event.src, event.seq)) {
    // Transient halt right at dispatch. The per-PE watchdog notices the
    // hung task and restarts it after halt_cycles: the fault costs
    // latency only, and is immediately detected + recovered.
    ++tile.faults.halts_injected;
    ++tile.faults.halts_resumed;
    if (tracer_) {
      emit_trace(tile, TraceEvent{TraceKind::FaultHalt, event.time, event.x,
                                  event.y, event.color, event.from, 0});
    }
    target.clock_ =
        std::max(target.clock_, event.time) + fault_model_.halt_cycles();
  }
  // The task starts when both the data has arrived and the PE is free.
  target.clock_ = std::max(target.clock_, event.time) +
                  timings_.task_dispatch_cycles;
  target.counters_.tasks_executed += 1;
  ++tile.tasks_executed;
  if (exec_.hazard_check) {
    // Dispatch-epoch counter for hazard messages; only the owning tile
    // touches it, so the numbering is identical for every thread count.
    ++hazard_state_[static_cast<usize>(index(target.coord_.x,
                                             target.coord_.y))]
          .epoch;
  }

  if (exec_.phase_profiling) {
    // Cycles the PE spent waiting for this delivery are idle; everything
    // from the task's start (dispatch, halt recovery, handler work) is
    // booked under the task's phase until the handler retags itself.
    const f64 start = std::max(clock_before, event.time);
    attribute_phase(target, obs::Phase::Idle, clock_before, start);
    target.current_phase_ =
        event.start ? obs::Phase::LocalCompute
                    : target.program_->task_phase(event.color, event.control,
                                                  event.timer);
    target.phase_mark_ = start;
  }

  PeApi api(*this, target, tile);
  if (event.start) {
    target.program_->on_start(api);
  } else if (event.timer) {
    target.program_->on_timer(api, event.timer_tag);
  } else if (event.control) {
    target.program_->on_control(api, event.color, event.from);
  } else {
    target.counters_.wavelets_received += event.payload_words;
    target.program_->on_data(
        api, event.color, event.from,
        tile.arena->view(event.payload, event.payload_words));
  }
  if (exec_.phase_profiling) {
    attribute_phase(target, target.current_phase_, target.phase_mark_,
                    target.clock_);
    target.current_phase_ = obs::Phase::Idle;
    target.phase_mark_ = target.clock_;
  }
  tile.horizon = std::max(tile.horizon, target.clock_);
}

void Fabric::attribute_phase(Pe& pe, obs::Phase phase, f64 begin, f64 end) {
  if (end <= begin) {
    return;
  }
  pe.phase_cycles_[phase] += end - begin;
  if (exec_.phase_span_capacity > 0 && phase != obs::Phase::Idle) {
    if (pe.phase_spans_.size() < exec_.phase_span_capacity) {
      pe.phase_spans_.push_back(obs::PhaseSpan{phase, begin, end});
    } else {
      ++pe.phase_spans_dropped_;
    }
  }
}

void Fabric::process_event(detail::Tile& tile, Event& event) {
  // Hot path: coordinates were validated when the event was born, so
  // index directly instead of through the checked pe()/router()
  // accessors.
  const usize at = static_cast<usize>(index(event.x, event.y));
  Pe& local = pes_[at];
  if (event.start || event.timer) {
    // Synthetic events bypass the router entirely.
    deliver_to_pe(tile, local, event);
    return;
  }
  if (event.stalled) {
    // The delayed block made it through its stalled hop: the fault cost
    // latency only and is absorbed by the dataflow slack.
    ++tile.faults.stalls_absorbed;
    event.stalled = false;
  }

  // Resolve the route from the flat mirror (one load) instead of chasing
  // the Router's config/position/rule vectors; see build_route_table.
  const u32 packed =
      route_table_[at * Color::kMaxColors + event.color.id()]
                  [static_cast<usize>(event.from)];
  if (packed == 0) {
    Router& rt = routers_[at];
    if (!rt.config(event.color).configured()) {
      std::ostringstream os;
      os << "wavelet on unconfigured color "
         << static_cast<int>(event.color.id()) << " entering PE (" << event.x
         << ',' << event.y << ") from " << dir_name(event.from);
      emit_error(tile, os.str());
      return;
    }
    // Backpressure: the current switch position does not accept this
    // input. The wavelet waits in the router's input buffer until a
    // control wavelet advances the switch.
    if (tracer_) {
      emit_trace(tile, TraceEvent{TraceKind::Backpressured, event.time,
                                  event.x, event.y, event.color, event.from,
                                  event.payload_words});
    }
    PendingBuffer& buf = pending_[at];
    if (buf.total >= exec_.router_buffer_depth) {
      // A real router would assert backpressure upstream; the model keeps
      // timing simple by dropping the block and recording the overflow as
      // a run error (deterministic across thread counts, like every other
      // diagnostic). ExecutionOptions::router_buffer_depth widens the
      // buffer for deep-column programs that legitimately park more.
      std::ostringstream os;
      os << "router input buffer overflow at PE (" << event.x << ','
         << event.y << "): " << buf.total
         << " blocks waiting, dropped " << (event.control ? "ctrl" : "data")
         << " block on color " << static_cast<int>(event.color.id())
         << " from " << dir_name(event.from);
      emit_error(tile, os.str());
      return;  // run_tile frees the dropped payload
    }
    PendingBuffer::ColorFifo* fifo = nullptr;
    for (PendingBuffer::ColorFifo& f : buf.fifos) {
      if (f.color == event.color) {
        fifo = &f;
        break;
      }
    }
    if (fifo == nullptr) {
      buf.fifos.push_back(PendingBuffer::ColorFifo{event.color, {}});
      fifo = &buf.fifos.back();
    }
    fifo->events.push_back(event);
    event.payload = PayloadArena::kNull;  // the parked copy owns it now
    ++buf.total;
    return;
  }

  if (tracer_) {
    emit_trace(tile, TraceEvent{
        event.control ? TraceKind::ControlRouted : TraceKind::DataRouted,
        event.time, event.x, event.y, event.color, event.from,
        event.payload_words});
  }

  // Route first (using the pre-advance configuration)...
  Router& rt = routers_[at];
  const bool faults = fault_model_.enabled();
  // Exactly-once drop accounting for corrupted blocks: the token travels
  // with one surviving forwarded copy (fan-out duplicates are not
  // re-counted) and is consumed when that copy is dropped at a parity
  // check or absorbed at the wafer boundary.
  bool token = event.fault_token;
  // Decode the packed rule: output links in configuration order.
  const usize out_count = route_output_count(packed);
  Dir outputs[kLinkCount];
  for (usize i = 0; i < out_count; ++i) {
    outputs[i] = route_output(packed, static_cast<u32>(i));
  }
  // The last output that reads payload bytes (Ramp delivery or an
  // in-bounds fabric link): the handle is *moved* there instead of
  // copied, so the common single-output forward allocates nothing.
  usize last_reader = out_count;
  if (event.payload != PayloadArena::kNull) {
    for (usize i = out_count; i-- > 0;) {
      const Dir out = outputs[i];
      if (out == Dir::Ramp) {
        last_reader = i;
        break;
      }
      const Coord2 off = dir_offset(out);
      const i32 nx = event.x + off.x;
      const i32 ny = event.y + off.y;
      if (nx >= 0 && nx < width_ && ny >= 0 && ny < height_) {
        last_reader = i;
        break;
      }
    }
  }
  for (usize out_idx = 0; out_idx < out_count; ++out_idx) {
    const Dir out = outputs[out_idx];
    // Every resolved output link carries the block — including the Ramp,
    // so router utilization and per-color traffic account for delivery
    // to the local PE (Table 3's communication accounting).
    rt.count_output(out, event.payload_words);
    rt.count_color(event.color, event.payload_words);
    if (out == Dir::Ramp) {
      if (faults && !event.control &&
          block_parity(tile.arena->view(event.payload, event.payload_words)) !=
              event.parity) {
        // Detection: the parity word stamped at injection no longer
        // matches — drop the block at delivery, exactly as a link-level
        // CRC would discard it. Recovery (if any) is protocol-level.
        rt.count_dropped();
        if (token) {
          ++tile.faults.flips_dropped;
          token = false;
        }
        if (tracer_) {
          emit_trace(tile,
                     TraceEvent{TraceKind::ParityDrop, event.time, event.x,
                                event.y, event.color, event.from,
                                event.payload_words});
        }
        continue;
      }
      deliver_to_pe(tile, local, event);
      continue;
    }
    const Coord2 off = dir_offset(out);
    const i32 nx = event.x + off.x;
    const i32 ny = event.y + off.y;
    if (nx < 0 || nx >= width_ || ny < 0 || ny >= height_) {
      // Traffic leaving the simulated region is absorbed by the reserved
      // boundary layer of the wafer (paper Section 7.1).
      continue;
    }
    Event forwarded;
    forwarded.time = event.time + timings_.hop_latency_cycles;
    forwarded.x = nx;
    forwarded.y = ny;
    forwarded.from = opposite(out);
    forwarded.color = event.color;
    forwarded.control = event.control;
    forwarded.parity = event.parity;
    forwarded.corrupted = event.corrupted;
    forwarded.payload_words = event.payload_words;
    if (event.payload != PayloadArena::kNull) {
      if (out_idx == last_reader) {
        forwarded.payload = event.payload;  // move: no later output reads it
        event.payload = PayloadArena::kNull;
      } else {
        forwarded.payload = tile.arena->clone_from(*tile.arena, event.payload,
                                                   event.payload_words);
      }
    }
    if (faults) {
      f64& link_free = link_free_[at][static_cast<usize>(out)];
      // FIFO: a stalled link delays its whole tail — later blocks queue
      // behind the held one instead of overtaking it (overtaking would
      // let data slip past the control wavelet sent after it and arrive
      // under the wrong switch position).
      forwarded.time = std::max(forwarded.time, link_free);
      if (fault_model_.stall_link(event.src, event.seq, out)) {
        ++tile.faults.stalls_injected;
        forwarded.time += fault_model_.stall_cycles();
        forwarded.stalled = true;
        if (tracer_) {
          emit_trace(tile,
                     TraceEvent{TraceKind::FaultStall, forwarded.time, event.x,
                                event.y, event.color, event.from,
                                event.payload_words});
        }
      }
      link_free = std::max(link_free, forwarded.time);
      if (!event.control) {
        if (!forwarded.corrupted) {
          usize word = 0;
          u32 bit = 0;
          if (fault_model_.flip_bit(event.src, event.seq, out, event.color,
                                    event.payload_words, &word, &bit)) {
            // Single-event upset: one bit of one wavelet of this copy.
            tile.arena->data(forwarded.payload)[word] ^= (1u << bit);
            forwarded.corrupted = true;
            forwarded.fault_token = true;
            ++tile.faults.flips_injected;
            if (tracer_) {
              emit_trace(tile,
                         TraceEvent{TraceKind::FaultFlip, forwarded.time,
                                    event.x, event.y, event.color, event.from,
                                    event.payload_words});
            }
          }
        } else if (token) {
          forwarded.fault_token = true;
          token = false;
        }
      }
    }
    push_event(tile, static_cast<i64>(at), forwarded);
  }
  if (token) {
    // The only copy carrying the drop-accounting token left the simulated
    // region: the corrupted block is gone for good — count it dropped so
    // the injected/detected/recovered/unrecovered partition holds.
    ++tile.faults.flips_dropped;
  }

  // ...then advance the switch if this was a control wavelet, releasing
  // any wavelets the old position was holding back.
  if (event.control) {
    // Advancing a single-position switch is a no-op, so the Router and
    // the mirror only need touching when the color actually alternates.
    if (packed & kRouteMultiPositionBit) {
      rt.advance_switch(event.color);
      rebuild_route_entry(at, event.color);
    }
    release_pending(tile, event.x, event.y, event.color, event.time);
  }
}

void Fabric::release_pending(detail::Tile& tile, i32 x, i32 y, Color color,
                             f64 not_before) {
  PendingBuffer& buf = pending_[static_cast<usize>(index(x, y))];
  // Re-inject (in FIFO order) the waiting wavelets of this color; they
  // re-resolve against the new switch position. The per-color FIFO makes
  // this a single move instead of a scan over every parked event.
  for (usize f = 0; f < buf.fifos.size(); ++f) {
    if (buf.fifos[f].color != color) {
      continue;
    }
    std::vector<Event> released = std::move(buf.fifos[f].events);
    buf.fifos.erase(buf.fifos.begin() + static_cast<std::ptrdiff_t>(f));
    buf.total -= static_cast<u32>(released.size());
    for (Event& event : released) {
      event.time = std::max(event.time, not_before);
      if (tracer_) {
        emit_trace(tile, TraceEvent{TraceKind::Released, event.time, event.x,
                                    event.y, event.color, event.from,
                                    event.payload_words});
      }
      push_event(tile, index(x, y), event);
    }
    return;
  }
}

void Fabric::run_tile(detail::Tile& tile, f64 window_end, u64 event_cap) {
  u64 processed = 0;
  while (!tile.queue.empty() && tile.queue.top_time() < window_end) {
    if (processed >= event_cap) {
      return;  // forced barrier, not a stop; see kWindowEventCap
    }
    ++processed;
    Event event = tile.queue.pop();
    if (!tile.queue.empty()) {
      // Overlap the next event's cache misses with this event's work:
      // the queue minimum is already known, and its PE/router/route rows
      // are scattered across arrays far larger than the LLC at wafer
      // scale, so the engine is otherwise bound by these fetch stalls.
      const Event& next = tile.queue.top();
      const usize next_at = static_cast<usize>(index(next.x, next.y));
      __builtin_prefetch(
          &route_table_[next_at * Color::kMaxColors + next.color.id()]);
      __builtin_prefetch(&pes_[next_at]);
      __builtin_prefetch(&routers_[next_at]);
    }
    tile.cursor = detail::Tile::RecordKey{event.time, event.src, event.seq, 0};
    ++tile.events_processed;
    process_event(tile, event);
    if (event.payload != PayloadArena::kNull) {
      // Ownership not transferred to a forward or a pending buffer: the
      // payload's last reader was this event.
      tile.arena->free(event.payload);
    }
  }
}

void Fabric::rebuild_route_entry(usize at, Color color) {
  std::array<u32, kLinkCount>& entry =
      route_table_[at * Color::kMaxColors + color.id()];
  const ColorConfig& config = routers_[at].config(color);
  if (!config.configured()) {
    entry.fill(0);
    return;
  }
  // ColorConfig packed every position at configure time (see route.hpp),
  // so refreshing the mirror — including on the control-wavelet hot path
  // — is one kLinkCount-word copy.
  std::memcpy(entry.data(), config.packed_row(), sizeof(entry));
}

void Fabric::build_route_table() {
  const usize n = static_cast<usize>(width_) * static_cast<usize>(height_);
  route_table_.assign(n * Color::kMaxColors, {});
  for (usize at = 0; at < n; ++at) {
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      rebuild_route_entry(at, Color{c});
    }
  }
}

f64 Fabric::checkpoint_cycles() const noexcept {
  if (exec_.budget_check_cycles > 0.0) {
    return exec_.budget_check_cycles;
  }
  // Auto: frequent enough that a budget overshoot stays small relative to
  // the budget, coarse enough that checkpoint barriers never dominate.
  return 256.0 * std::max(timings_.hop_latency_cycles, 1.0);
}

i32 Fabric::tile_count() const noexcept {
  if (!(timings_.hop_latency_cycles > 0.0)) {
    // Zero cross-tile lookahead: conservative windows cannot make
    // progress, so fall back to the serial engine.
    return 1;
  }
  return std::clamp(exec_.threads, 1, height_);
}

RunReport Fabric::run(u64 max_events) {
  const i32 tile_count = this->tile_count();
  build_route_table();

  tile_of_row_.assign(static_cast<usize>(height_), 0);
  if (arenas_.empty()) {
    // One payload arena per tile, owned by the Fabric: parked events keep
    // their payload handles alive across run() calls, and tile_count() is
    // a pure function of construction parameters so the tiling (and thus
    // handle ownership) is identical every run.
    arenas_ = std::vector<PayloadArena>(static_cast<usize>(tile_count));
  }
  std::vector<detail::Tile> tiles(static_cast<usize>(tile_count));
  for (i32 t = 0; t < tile_count; ++t) {
    const i32 row_begin =
        static_cast<i32>(static_cast<i64>(height_) * t / tile_count);
    const i32 row_end =
        static_cast<i32>(static_cast<i64>(height_) * (t + 1) / tile_count);
    for (i32 y = row_begin; y < row_end; ++y) {
      tile_of_row_[static_cast<usize>(y)] = t;
    }
    tiles[static_cast<usize>(t)].id = t;
    tiles[static_cast<usize>(t)].direct = tile_count == 1;
    tiles[static_cast<usize>(t)].arena = &arenas_[static_cast<usize>(t)];
    tiles[static_cast<usize>(t)].outbox.resize(static_cast<usize>(tile_count));
  }

  // Program-start events, one per PE, in deterministic PE order.
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      FVF_REQUIRE_MSG(pe(x, y).program_ != nullptr,
                      "Fabric::run called before load()");
      Event start;
      start.time = 0.0;
      start.x = x;
      start.y = y;
      start.start = true;
      const i64 loc = index(x, y);
      start.src = loc;
      start.seq = routers_[static_cast<usize>(loc)].next_birth_seq();
      tiles[static_cast<usize>(tile_of_row_[static_cast<usize>(y)])]
          .queue.push(start);
    }
  }

  // Unified windowed loop, serial and parallel alike. Execution proceeds
  // in windows capped at the next budget checkpoint (a fixed simulated-
  // time grid, see checkpoint_cycles()); within a window each tile
  // additionally stops at the earliest possible cross-boundary arrival
  // from its neighboring tiles (its events can only come from the two
  // adjacent row strips, one hop away). The budget is evaluated exactly
  // when global time crosses a checkpoint, at which point the processed-
  // event multiset is the precise set of events below that checkpoint —
  // a pure function of the simulation, identical for every thread count.
  const f64 checkpoint = checkpoint_cycles();
  const f64 hop = timings_.hop_latency_cycles;
  std::unique_ptr<ThreadPool> pool;
  if (tile_count > 1) {
    pool = std::make_unique<ThreadPool>(tile_count);
  }
  const usize n_tiles = tiles.size();
  std::vector<f64> tile_min(n_tiles);
  std::vector<f64> earliest(n_tiles);
  std::vector<f64> window_end(n_tiles);
  /// Deferred trace records not yet safe to hand to the tracer: a lagging
  /// tile may still emit records with earlier keys, so only records below
  /// the post-barrier global minimum time are drained each window.
  std::vector<detail::Tile::TraceRecord> held_traces;
  const auto trace_key_less = [](const detail::Tile::TraceRecord& a,
                                 const detail::Tile::TraceRecord& b) {
    return a.key < b.key;
  };
  bool budget_hit = false;
  f64 cut = -std::numeric_limits<f64>::infinity();
  f64 last_min = -std::numeric_limits<f64>::infinity();
  u32 stalled_windows = 0;
  for (;;) {
    f64 min_time = std::numeric_limits<f64>::infinity();
    for (usize t = 0; t < n_tiles; ++t) {
      tile_min[t] = tiles[t].queue.empty()
                        ? std::numeric_limits<f64>::infinity()
                        : tiles[t].queue.top_time();
      min_time = std::min(min_time, tile_min[t]);
    }
    if (!std::isfinite(min_time)) {
      break;  // quiescent
    }
    // Livelock watchdog. The global minimum is nondecreasing (windows
    // only process events below their bound, and every push lands at or
    // after its creator’s time); if it fails to advance across many
    // barriers while events keep flowing, simulated time is stuck.
    if (min_time > last_min) {
      last_min = min_time;
      stalled_windows = 0;
    } else if (++stalled_windows >= kStallLimit) {
      budget_hit = true;
      break;
    }
    if (min_time >= cut) {
      // Checkpoint cut: every event below `cut` (and nothing at or above
      // it) has been processed, on every tiling.
      u64 total = 0;
      for (const detail::Tile& tile : tiles) {
        total += tile.events_processed;
      }
      if (total >= max_events) {
        budget_hit = true;
        break;
      }
      cut = (std::floor(min_time / checkpoint) + 1.0) * checkpoint;
      while (cut <= min_time) {
        cut += checkpoint;  // guard the floor against fp rounding
      }
    }
    u64 before = 0;
    for (const detail::Tile& tile : tiles) {
      before += tile.events_processed;
    }
    // Per-tile-boundary lookahead (conservative CMB-style). `earliest[t]`
    // is the earliest event tile t could possibly process from here on:
    // its own queue minimum, or anything a neighbor could emit to it —
    // which includes multi-tile round trips (a block this tile sends can
    // bounce straight back at +2 hops), so the bound is the fixpoint of
    //   earliest[t] = min(queue_min[t], earliest[t±1] + hop)
    // computed exactly by one forward and one backward sweep over the
    // row-strip chain. Tile t's window then extends to the earliest its
    // neighbors could emit. The bound grows by one hop per tile of
    // distance from the global laggard, so far-away tiles advance many
    // events per barrier (never less than the old global gmin + hop).
    for (usize t = 0; t < n_tiles; ++t) {
      earliest[t] = tile_min[t];
    }
    for (usize t = 1; t < n_tiles; ++t) {
      earliest[t] = std::min(earliest[t], earliest[t - 1] + hop);
    }
    for (usize t = n_tiles - 1; t-- > 0;) {
      earliest[t] = std::min(earliest[t], earliest[t + 1] + hop);
    }
    for (usize t = 0; t < n_tiles; ++t) {
      f64 bound = cut;
      if (t > 0) {
        bound = std::min(bound, earliest[t - 1] + hop);
      }
      if (t + 1 < n_tiles) {
        bound = std::min(bound, earliest[t + 1] + hop);
      }
      window_end[t] = bound;
    }
    if (pool == nullptr) {
      run_tile(tiles[0], window_end[0], kWindowEventCap);
    } else {
      pool->run_indexed(static_cast<i64>(n_tiles), [&](i64 t) {
        run_tile(tiles[static_cast<usize>(t)], window_end[static_cast<usize>(t)],
                 kWindowEventCap);
      });
      // Barrier: batch cross-tile events into their destination queues,
      // re-homing each payload into the destination tile's arena (the
      // only point where payload bytes cross tiles, single-threaded).
      for (detail::Tile& src_tile : tiles) {
        for (usize dest = 0; dest < src_tile.outbox.size(); ++dest) {
          std::vector<Event>& box = src_tile.outbox[dest];
          if (box.empty()) {
            continue;
          }
          for (Event& event : box) {
            if (event.payload != PayloadArena::kNull) {
              const u32 moved = tiles[dest].arena->clone_from(
                  *src_tile.arena, event.payload, event.payload_words);
              src_tile.arena->free(event.payload);
              event.payload = moved;
            }
          }
          tiles[dest].queue.push_batch(box);
        }
      }
      // Drain trace records up to the new safe watermark in global event
      // order; hold the rest (ties included) for a later window.
      if (tracer_) {
        for (detail::Tile& tile : tiles) {
          held_traces.insert(held_traces.end(), tile.traces.begin(),
                             tile.traces.end());
          tile.traces.clear();
        }
        if (!held_traces.empty()) {
          f64 watermark = std::numeric_limits<f64>::infinity();
          for (const detail::Tile& tile : tiles) {
            if (!tile.queue.empty()) {
              watermark = std::min(watermark, tile.queue.top_time());
            }
          }
          std::sort(held_traces.begin(), held_traces.end(), trace_key_less);
          usize safe = 0;
          while (safe < held_traces.size() &&
                 held_traces[safe].key.time < watermark) {
            tracer_(held_traces[safe].event);
            ++safe;
          }
          held_traces.erase(held_traces.begin(),
                            held_traces.begin() +
                                static_cast<std::ptrdiff_t>(safe));
        }
      }
    }
    u64 after = 0;
    for (const detail::Tile& tile : tiles) {
      after += tile.events_processed;
    }
    if (after == before) {
      // No tile could take a single step (possible only with degenerate
      // zero-hop timings where the lookahead windows collapse): report
      // it as budget exhaustion rather than spinning forever.
      budget_hit = true;
      break;
    }
  }
  // Flush records held back by the watermark (end of run: order is final).
  if (tracer_ && !held_traces.empty()) {
    std::sort(held_traces.begin(), held_traces.end(), trace_key_less);
    for (const detail::Tile::TraceRecord& record : held_traces) {
      tracer_(record.event);
    }
  }
  return finish_run(tiles, budget_hit, max_events);
}

RunReport Fabric::finish_run(std::vector<detail::Tile>& tiles,
                             bool budget_hit, u64 max_events) {
  FaultStats faults;
  u64 traces_emitted = 0;
  u64 run_events = 0;
  for (const detail::Tile& tile : tiles) {
    events_processed_ += tile.events_processed;
    run_events += tile.events_processed;
    tasks_executed_ += tile.tasks_executed;
    horizon_ = std::max(horizon_, tile.horizon);
    faults += tile.faults;
    traces_emitted += tile.traces_emitted;
  }

  // Merge deferred error records (multi-tile runs) in deterministic event
  // order, then apply the global cap. Each tile retained at least its
  // first kMaxRecordedErrors records, so the global first
  // kMaxRecordedErrors are all present.
  std::vector<detail::Tile::ErrorRecord> records;
  for (detail::Tile& tile : tiles) {
    errors_total_ += tile.errors_total;
    std::move(tile.errors.begin(), tile.errors.end(),
              std::back_inserter(records));
    tile.errors.clear();
  }
  std::sort(records.begin(), records.end(),
            [](const detail::Tile::ErrorRecord& a,
               const detail::Tile::ErrorRecord& b) { return a.key < b.key; });
  for (detail::Tile::ErrorRecord& record : records) {
    if (errors_.size() < kMaxRecordedErrors) {
      errors_.push_back(std::move(record.message));
    }
  }
  if (budget_hit) {
    ++errors_total_;
    if (errors_.size() < kMaxRecordedErrors) {
      // The count is evaluated at a deterministic simulated-time
      // checkpoint, so this message is byte-identical for every thread
      // count (see Fabric::run).
      std::ostringstream os;
      os << "event budget exhausted (possible livelock): " << run_events
         << " events processed, budget " << max_events;
      errors_.push_back(os.str());
    }
  }

  // Hazard findings merge exactly like errors: sorted by the emitting
  // event's key, first kMaxRecordedErrors kept, the rest summarized.
  std::vector<detail::Tile::ErrorRecord> hazard_records;
  for (detail::Tile& tile : tiles) {
    hazards_total_ += tile.hazards_total;
    std::move(tile.hazards.begin(), tile.hazards.end(),
              std::back_inserter(hazard_records));
    tile.hazards.clear();
  }
  std::sort(hazard_records.begin(), hazard_records.end(),
            [](const detail::Tile::ErrorRecord& a,
               const detail::Tile::ErrorRecord& b) { return a.key < b.key; });
  for (detail::Tile::ErrorRecord& record : hazard_records) {
    if (hazards_.size() < kMaxRecordedErrors) {
      hazards_.push_back(std::move(record.message));
    }
  }

  RunReport report;
  report.makespan_cycles = horizon_;
  report.events_processed = events_processed_;
  report.tasks_executed = tasks_executed_;
  report.faults = faults;
  report.trace_events_emitted = traces_emitted;
  report.trace_records_dropped = recorder_ != nullptr ? recorder_->dropped() : 0;
  report.errors = errors_;
  report.errors_total = errors_total_;
  if (errors_total_ > errors_.size()) {
    report.errors_suppressed = errors_total_ - errors_.size();
    std::ostringstream os;
    os << "… and " << report.errors_suppressed << " more errors suppressed";
    report.errors.push_back(os.str());
  }
  report.hazards = hazards_;
  report.hazards_total = hazards_total_;
  if (hazards_total_ > hazards_.size()) {
    report.hazards_suppressed = hazards_total_ - hazards_.size();
    std::ostringstream os;
    os << "… and " << report.hazards_suppressed << " more hazards suppressed";
    report.hazards.push_back(os.str());
  }
  u64 pending_count = 0;
  for (const PendingBuffer& waiting : pending_) {
    pending_count += waiting.total;
  }
  if (pending_count > 0) {
    std::ostringstream os;
    os << pending_count
       << " wavelet block(s) stranded in router input buffers "
          "(switch never advanced to accept them):";
    int shown = 0;
    for (i32 y = 0; y < height_ && shown < 8; ++y) {
      for (i32 x = 0; x < width_ && shown < 8; ++x) {
        const PendingBuffer& buf = pending_[static_cast<usize>(index(x, y))];
        for (const PendingBuffer::ColorFifo& fifo : buf.fifos) {
          for (const Event& e : fifo.events) {
            os << " [PE(" << x << ',' << y << ") color "
               << static_cast<int>(e.color.id()) << " from "
               << dir_name(e.from) << (e.control ? " ctrl" : " data")
               << " pos "
               << router(x, y).config(e.color).current_position() << "]";
            if (++shown >= 8) {
              break;
            }
          }
          if (shown >= 8) {
            break;
          }
        }
      }
    }
    report.errors.push_back(os.str());
    ++report.errors_total;
  }
  for (const Pe& p : pes_) {
    if (p.done()) {
      ++report.pes_done;
    }
  }
  if (report.pes_done != pe_count()) {
    std::ostringstream os;
    os << "fabric quiescent but only " << report.pes_done << " of "
       << pe_count() << " PEs signaled done (deadlock or missing data)";
    report.errors.push_back(os.str());
    ++report.errors_total;
  }
  return report;
}

PeCounters Fabric::total_counters() const {
  PeCounters total;
  for (const Pe& p : pes_) {
    total += p.counters();
  }
  return total;
}

u64 Fabric::color_traffic(Color color) const {
  u64 total = 0;
  for (const Router& r : routers_) {
    total += r.traffic_of_color(color);
  }
  return total;
}

obs::PhaseCycles Fabric::total_phase_cycles() const {
  obs::PhaseCycles total;
  for (const Pe& p : pes_) {
    total += p.phase_cycles_;
  }
  return total;
}

usize Fabric::max_memory_used() const {
  usize peak = 0;
  for (const Pe& p : pes_) {
    peak = std::max(peak, p.memory().used());
  }
  return peak;
}

}  // namespace fvf::wse
