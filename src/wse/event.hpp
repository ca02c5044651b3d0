/// \file event.hpp
/// \brief The event record of the fabric simulator and the queue that
///        orders it.
///
/// An Event is trivially copyable: payload bytes live in a tile-local
/// PayloadArena (see wse/payload.hpp) and the event carries only a 32-bit
/// handle plus the word count. Moving an event between outboxes and
/// pending buffers is a 56-byte struct copy with no heap traffic; the
/// queue stores it as a 24-byte key plus a 32-byte EventBody (EventQueue).
#pragma once

#include <bit>
#include <vector>

#include "common/assert.hpp"
#include "wse/fabric_types.hpp"
#include "wse/payload.hpp"

namespace fvf::wse {

/// Everything of an Event but its ordering key: what EventQueue keeps in
/// a slot while the key sits in its heap.
struct EventBody {
  i32 x = 0;
  i32 y = 0;
  /// Payload handle into the owning tile's arena (PayloadArena::kNull when
  /// the event carries no payload bytes) and the block's length in
  /// wavelets. Control wavelets report one wavelet but allocate nothing.
  u32 payload = PayloadArena::kNull;
  u32 payload_words = 0;
  /// XOR parity of the payload, stamped at injection (PeApi::send) and
  /// checked at Ramp delivery when fault injection is enabled.
  u32 parity = 0;
  u32 timer_tag = 0;  ///< opaque tag passed back to on_timer
  Dir from = Dir::Ramp;
  Color color{};
  bool control = false;
  bool start = false;      ///< synthetic program-start event
  bool timer = false;      ///< PE-local timer (PeApi::schedule_timer)
  bool stalled = false;    ///< this hop was delayed by a link stall
  bool corrupted = false;  ///< payload suffered an injected bit flip
  /// Accounting token: exactly one in-flight copy of a corrupted block
  /// carries it, so the eventual drop is counted once under fan-out.
  bool fault_token = false;
};

/// One simulation event: a wavelet block arriving at a router, a control
/// wavelet, or a synthetic program-start / PE-timer activation.
struct Event : EventBody {
  f64 time = 0.0;
  /// Birth key: `src` is the linear index of the location (PE/router)
  /// that created the event; `seq` counts creations at that location.
  /// (time, src, seq) is the engine's total processing order, and is
  /// identical for every `threads` value.
  i64 src = 0;
  u64 seq = 0;
};

/// The engine's strict total processing order.
[[nodiscard]] inline bool event_before(const Event& a,
                                       const Event& b) noexcept {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  if (a.src != b.src) {
    return a.src < b.src;
  }
  return a.seq < b.seq;
}

/// Min-queue of events under event_before. The heap holds 24-byte keys
/// {hi, lo, slot}; the rest of each event rests in a slot pool as a
/// 32-byte EventBody, so the ordering key is stored once and every sift
/// moves a third of a cache line instead of the full 56-byte Event.
/// `pop` rebuilds the Event from its key and slot. A 4-ary array heap on
/// top: shallower than a binary heap, and `push_batch` drains a barrier
/// outbox in one call.
///
/// The key packs (time, src, seq) into two u64 words that compare in
/// that order as one unsigned 128-bit number: `hi` is the IEEE-754 bit
/// pattern of the time, `lo` is `src << 32 | seq`. For non-negative
/// doubles the bit pattern orders like the value (`-0.0` is stored as
/// `+0.0`), so the comparison and the pick of the least child are
/// branch-free integer compares; most events tie on time, and the
/// branches of a field-by-field compare mispredict on every tie. `push`
/// therefore requires a non-negative, non-NaN time, and `src` and `seq`
/// below 2^32: `src` is a linear location index (y * width + x) and
/// `seq` a location's u32 birth counter (Router::next_birth_seq).
class EventQueue {
 public:
  /// Heap element: the two-word ordering key plus the slot of the event
  /// it stands for.
  struct Key {
    u64 hi;  ///< bit pattern of the non-negative time
    u64 lo;  ///< src << 32 | seq
    u32 slot;
  };

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] usize size() const noexcept { return heap_.size(); }
  /// The most events this queue has held at once: a slot is added only
  /// when every existing one is occupied.
  [[nodiscard]] usize high_water() const noexcept { return slots_.size(); }
  /// Timestamp of the minimum event without touching its slot (the
  /// window-loop bound check stays inside the key array).
  [[nodiscard]] f64 top_time() const noexcept {
    return std::bit_cast<f64>(heap_.front().hi);
  }
  /// Location of the minimum event, for prefetching its PE and router.
  [[nodiscard]] Coord2 top_location() const noexcept {
    const EventBody& body = slots_[heap_.front().slot];
    return {body.x, body.y};
  }

  void reserve(usize n) {
    heap_.reserve(n);
    slots_.reserve(n);
  }

  void push(const Event& event) {
    FVF_REQUIRE_MSG(event.time >= 0.0,
                    "EventQueue: event time " << event.time
                                              << " is negative or NaN");
    // A negative src converts to a u64 above the limit too.
    FVF_REQUIRE_MSG((static_cast<u64>(event.src) | event.seq) <= kMaxKeyField,
                    "EventQueue: birth key (src " << event.src << ", seq "
                                                  << event.seq
                                                  << ") exceeds 32 bits");
    const EventBody& body = event;
    u32 slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = body;
    } else {
      slot = static_cast<u32>(slots_.size());
      slots_.push_back(body);
    }
    // Adding +0.0 turns -0.0 into +0.0 and leaves every other time as is.
    heap_.push_back(Key{std::bit_cast<u64>(event.time + 0.0),
                        static_cast<u64>(event.src) << 32 | event.seq, slot});
    sift_up(heap_.size() - 1);
  }

  /// Moves every event of `events` into the queue and clears it.
  void push_batch(std::vector<Event>& events) {
    for (const Event& event : events) {
      push(event);
    }
    events.clear();
  }

  [[nodiscard]] Event pop() noexcept {
    const Key key = heap_.front();
    Event out;
    static_cast<EventBody&>(out) = slots_[key.slot];
    out.time = std::bit_cast<f64>(key.hi);
    out.src = static_cast<i64>(key.lo >> 32);
    out.seq = key.lo & kMaxKeyField;
    free_slots_.push_back(key.slot);
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      sift_down(0);
    }
    return out;
  }

 private:
  static constexpr usize kArity = 4;
  static constexpr u64 kMaxKeyField = 0xFFFF'FFFFu;

  /// (a.hi, a.lo) < (b.hi, b.lo) without a branch: the bitwise operators
  /// evaluate every compare.
  [[nodiscard]] static bool key_before(const Key& a, const Key& b) noexcept {
    return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
  }

  /// The lesser of heap_[i] and heap_[j], as an index, by an arithmetic
  /// select rather than a branch.
  [[nodiscard]] usize lesser(usize i, usize j) const noexcept {
    const usize take_j = static_cast<usize>(key_before(heap_[j], heap_[i]));
    return i ^ ((i ^ j) & (usize{0} - take_j));
  }

  void sift_up(usize i) noexcept {
    const Key moving = heap_[i];
    while (i > 0) {
      const usize parent = (i - 1) / kArity;
      if (!key_before(moving, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moving;
  }

  void sift_down(usize i) noexcept {
    const usize n = heap_.size();
    const Key moving = heap_[i];
    for (;;) {
      const usize first = i * kArity + 1;
      if (first >= n) {
        break;
      }
      usize best;
      if (first + kArity <= n) {
        // A full set of children: a two-round tournament, so the two
        // first-round compares do not wait on each other.
        best = lesser(lesser(first, first + 1),
                      lesser(first + 2, first + 3));
      } else {
        best = first;
        for (usize child = first + 1; child < n; ++child) {
          best = lesser(best, child);
        }
      }
      if (!key_before(heap_[best], moving)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moving;
  }

  std::vector<Key> heap_;
  std::vector<EventBody> slots_;
  std::vector<u32> free_slots_;
};

}  // namespace fvf::wse
