// Deterministic discrete-event simulation engine.
//
// This is the ns-2 replacement the reproduction runs on. Properties:
//
//  * Events fire in (time, insertion-sequence) order, so two events scheduled
//    for the same instant run in the order they were scheduled -- reruns with
//    the same seed are bit-identical.
//  * Events are cancellable through the EventHandle returned by schedule().
//    Cancellation removes the event from its heap in O(log n) and is a true
//    no-op after the event has fired (generation tags make stale ids inert).
//  * Pending events sit in two heaps keyed alike: a near tier for events due
//    within kNearSpan of the instant they were scheduled (slot re-arms,
//    response-listen closes: most of a run's events) and a far tier for the
//    rest. The next event is the lesser of the two fronts, so the tiers
//    together fire in exact (time, seq) order with no migration step, and
//    the common pop sifts a heap of dozens instead of thousands.
//  * Event state lives in an arena of reusable slots, so a long run with
//    heavy schedule/cancel churn keeps a small, stable footprint instead of
//    accumulating tombstones.
//  * The engine is single-threaded by design: Bluetooth slot timing needs a
//    strict global order far more than it needs parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/sim/callback.hpp"
#include "src/util/assert.hpp"
#include "src/util/time.hpp"

namespace bips::sim {

/// Opaque identifier for a scheduled event; 0 is "no event". Internally the
/// high half names an arena slot and the low half is that slot's generation
/// at scheduling time, so ids from fired events can never alias live ones.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

class Simulator;

/// RAII-free lightweight handle: cancel() is idempotent and safe after the
/// event has fired (it becomes a no-op).
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(Simulator* sim, EventId id) : sim_(sim), id_(id) {}

  bool valid() const { return id_ != kNoEvent; }
  EventId id() const { return id_; }

  /// Cancels the event if it has not fired yet; clears the handle.
  void cancel();

 private:
  Simulator* sim_ = nullptr;
  EventId id_ = kNoEvent;
};

/// The event-driven simulator core.
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Per-simulation observability context (metrics + tracing). Everything
  /// built on this simulator registers its cells and emits its trace here,
  /// so each Simulator instance is an isolated measurement namespace.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must not be in the past).
  EventHandle schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` from now (delay >= 0).
  EventHandle schedule(Duration delay, Callback fn) {
    BIPS_ASSERT(delay >= Duration(0));
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Runs until the queue is empty or `until` is reached, whichever first.
  /// Time advances to `until` even if the queue drains earlier, so periodic
  /// processes restarted by the caller observe a consistent clock.
  void run_until(SimTime until);

  /// Runs until the event queue is completely empty.
  void run();

  /// Executes exactly one event; returns false if the queue is empty.
  bool step();

  /// Number of events executed so far (for engine micro-benchmarks).
  std::uint64_t events_executed() const { return executed_; }
  /// Number of events currently pending in both tiers (cancelled events
  /// excluded).
  std::size_t events_pending() const {
    return near_.keys.size() + far_.keys.size();
  }
  /// Arena capacity: high-water mark of concurrently pending events (slots
  /// are reused, so this stays flat under schedule/cancel churn).
  std::size_t arena_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNullPos = UINT32_MAX;
  // SlotMeta::heap_pos carries the event's tier in this bit and its index
  // in that tier's heap in the bits below (the arena holds < 2^24 slots).
  static constexpr std::uint32_t kFarBit = 1u << 31;
  // An event due less than this far ahead of the instant it is scheduled
  // goes to the near tier. Eight slots cover the two-slot TX re-arm
  // (1.25 ms) and the response-listen close (1.31 ms) with room to spare,
  // while keeping the longer timers (25 ms polls, supervision, LAN,
  // mobility) out of the heap that almost every pop reads.
  static constexpr Duration kNearSpan = 8 * kSlot;
  // Heap arity. Quaternary instead of binary: half the depth, so half the
  // backpointer updates per sift, and the 4-child minimum scan reads one
  // 64-byte cache line of contiguous 16-byte entries.
  static constexpr std::size_t kArity = 4;
  // The low word of a heap key packs (seq, slot): slot in the low 24 bits,
  // insertion sequence in the high 40. Seqs are unique, so the slot bits
  // never decide an order.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  // Per-event arena slot: the cold payload. The fire time lives only in
  // the event's heap key.
  struct Slot {
    Callback fn;
  };
  // Hot per-slot bookkeeping, kept in a dense parallel array so the sift
  // loops update backpointers without dragging 80-byte slots through the
  // cache. `generation` advances every time the slot fires, is cancelled,
  // or is reused, so an EventId minted for one occupancy can never act on a
  // later one.
  struct SlotMeta {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNullPos;  // tier bit | index in that tier
  };

  // A heap entry is its whole (when, seq) ordering key in one 128-bit
  // word: the fire time in the high 64 bits, seq << kSlotBits | slot in the
  // low 64. Nothing fires before time zero, so unsigned order on the word
  // is exactly (when, seq) order and one compare-with-borrow decides it
  // without a branch. Sift comparisons stay within the heap array instead
  // of chasing arena pointers; 16 bytes, so four children share a cache
  // line.
  using HeapKey = unsigned __int128;
  static HeapKey make_key(SimTime when, std::uint64_t seqslot) {
    return static_cast<HeapKey>(static_cast<std::uint64_t>(when.ns())) << 64 |
           seqslot;
  }
  static SimTime when_of(HeapKey k) {
    return SimTime(static_cast<std::int64_t>(k >> 64));
  }
  static std::uint32_t slot_of_key(HeapKey k) {
    return static_cast<std::uint32_t>(k) & kSlotMask;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  // One 4-ary min-heap of keys; `pos_tag` is 0 or kFarBit, or'ed into the
  // heap_pos of every event it holds.
  struct Tier {
    std::vector<HeapKey> keys;
    std::uint32_t pos_tag;
  };

  void place(Tier& t, std::size_t pos, HeapKey key) {
    t.keys[pos] = key;
    meta_[slot_of_key(key)].heap_pos =
        static_cast<std::uint32_t>(pos) | t.pos_tag;
  }
  void sift_up(Tier& t, std::size_t pos);
  void sift_down(Tier& t, std::size_t pos);
  void heap_remove(Tier& t, std::size_t pos);
  // The tier whose front fires next, or nullptr when nothing is pending.
  // Keys are unique, so the lesser front is the global (when, seq) minimum.
  Tier* front_tier() {
    if (far_.keys.empty()) return near_.keys.empty() ? nullptr : &near_;
    if (near_.keys.empty()) return &far_;
    return near_.keys.front() < far_.keys.front() ? &near_ : &far_;
  }

  // Pops the front of `t` (the due event) and returns its callback;
  // advances now_.
  Callback take_front(Tier& t);
  // Returns the slot to the free list with a bumped generation.
  void retire(std::uint32_t slot);

  obs::Observability obs_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::vector<SlotMeta> meta_;  // parallel to slots_
  std::vector<std::uint32_t> free_slots_;
  Tier near_{{}, 0};
  Tier far_{{}, kFarBit};
};

/// A reusable one-shot activity whose callback is stored once at
/// construction. Components that used to keep an EventHandle and re-schedule
/// a fresh `[this] { ... }` closure on every arming can hold a Process
/// instead: each call_at()/call_after() re-arms the same stored body with no
/// per-arming allocation, and arming again simply moves the pending
/// activation. Not movable -- the scheduled event captures `this`.
class Process {
 public:
  Process(Simulator& sim, Callback body) : sim_(sim), body_(std::move(body)) {
    BIPS_ASSERT(static_cast<bool>(body_));
  }
  ~Process() { cancel(); }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Arms (or re-arms) the process to run its body at absolute time `at`.
  /// Any previously pending activation is replaced.
  void call_at(SimTime at) {
    handle_.cancel();
    handle_ = sim_.schedule_at(at, [this] { fire(); });
  }
  /// Arms (or re-arms) the process `delay` from now.
  void call_after(Duration delay) { call_at(sim_.now() + delay); }

  /// Cancels the pending activation, if any. Idempotent.
  void cancel() { handle_.cancel(); }

  /// True while an activation is scheduled and has not fired.
  bool pending() const { return handle_.valid(); }

  Simulator& simulator() { return sim_; }

 private:
  void fire() {
    // Clear the handle before invoking so the body observes pending() ==
    // false and may freely re-arm itself.
    handle_ = EventHandle();
    body_();
  }

  Simulator& sim_;
  Callback body_;
  EventHandle handle_;
};

/// Repeating timer built on the simulator: fires every `period` until
/// stopped. Restart-safe; the callback may stop or retune the timer.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, Callback fn)
      : process_(sim, [this] { fire(); }), period_(period),
        fn_(std::move(fn)) {
    BIPS_ASSERT(period > Duration(0));
  }
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts (or restarts) the timer; first firing after one period, or after
  /// `initial_delay` if given.
  void start() { start_after(period_); }
  void start_after(Duration initial_delay) {
    running_ = true;
    process_.call_after(initial_delay);
  }
  void stop() {
    process_.cancel();
    running_ = false;
  }

  bool running() const { return running_; }
  Duration period() const { return period_; }
  void set_period(Duration p) {
    BIPS_ASSERT(p > Duration(0));
    period_ = p;
  }

 private:
  void fire() {
    // Re-arm before invoking so the callback can observe running() and call
    // stop()/set_period() to retune.
    process_.call_after(period_);
    fn_();
  }

  Process process_;
  Duration period_;
  Callback fn_;
  bool running_ = false;
};

}  // namespace bips::sim
