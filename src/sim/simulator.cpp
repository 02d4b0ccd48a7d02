#include "src/sim/simulator.hpp"

#include <algorithm>

namespace bips::sim {

namespace {
/// Kernel-churn trace sampling period: one kernel.sample record per this
/// many executed events. Power of two so the check is a mask, not a divide.
constexpr std::uint64_t kSampleMask = (1ull << 16) - 1;
}  // namespace

Simulator::Simulator() {
  // Callback gauges: zero cost until a snapshot polls them.
  obs_.metrics.gauge("kernel.events_executed").set_callback([this] {
    return static_cast<double>(executed_);
  });
  obs_.metrics.gauge("kernel.events_pending").set_callback([this] {
    return static_cast<double>(events_pending());
  });
  obs_.metrics.gauge("kernel.arena_slots").set_callback([this] {
    return static_cast<double>(slots_.size());
  });
}

void EventHandle::cancel() {
  if (sim_ != nullptr && id_ != kNoEvent) sim_->cancel(id_);
  id_ = kNoEvent;
  sim_ = nullptr;
}

EventHandle Simulator::schedule_at(SimTime at, Callback fn) {
  BIPS_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  BIPS_ASSERT(static_cast<bool>(fn));

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    BIPS_ASSERT_MSG(slots_.size() < kSlotMask, "event arena exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    meta_.emplace_back();
  }

  slots_[slot].fn = std::move(fn);

  const std::uint64_t seq = next_seq_++;
  BIPS_ASSERT_MSG(seq < kMaxSeq, "event sequence space exhausted");
  Tier& t = at - now_ < kNearSpan ? near_ : far_;
  t.keys.push_back(make_key(at, seq << kSlotBits | slot));
  sift_up(t, t.keys.size() - 1);
  return EventHandle(this, make_id(slot, meta_[slot].generation));
}

void Simulator::cancel(EventId id) {
  if (id == kNoEvent) return;
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  SlotMeta& m = meta_[slot];
  // Generation mismatch means the event already fired or was cancelled (and
  // the slot possibly reused): a true no-op, no bookkeeping to corrupt.
  if (m.generation != generation_of(id)) return;
  BIPS_ASSERT(m.heap_pos != kNullPos);
  heap_remove((m.heap_pos & kFarBit) != 0 ? far_ : near_,
              m.heap_pos & ~kFarBit);
  retire(slot);
}

void Simulator::sift_up(Tier& t, std::size_t pos) {
  const HeapKey key = t.keys[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(key < t.keys[parent])) break;
    place(t, pos, t.keys[parent]);
    pos = parent;
  }
  place(t, pos, key);
}

void Simulator::sift_down(Tier& t, std::size_t pos) {
  const HeapKey key = t.keys[pos];
  const HeapKey* h = t.keys.data();
  const std::size_t n = t.keys.size();
  for (;;) {
    const std::size_t c = kArity * pos + 1;  // first child
    std::size_t best;
    if (c + kArity <= n) {
      // The grandchildren of `pos` occupy one contiguous index range
      // (kArity^2 entries right after kArity * c); start pulling those
      // lines in while the tournament below picks the least child.
      const std::size_t g = kArity * c + 1;
      if (g < n) {
        __builtin_prefetch(&h[g]);
        __builtin_prefetch(&h[std::min(g + 2 * kArity, n - 1)]);
      }
      // A full family: the least of four in a two-round tournament. Each
      // compare becomes an index offset instead of a jump, so the pick has
      // no data-dependent branch to mispredict (keys are unique: no ties).
      const std::size_t a = c + static_cast<std::size_t>(h[c + 1] < h[c]);
      const std::size_t b =
          c + 2 + static_cast<std::size_t>(h[c + 3] < h[c + 2]);
      best = a + (b - a) * static_cast<std::size_t>(h[b] < h[a]);
    } else {
      // The one family a heap can have with fewer than four children.
      if (c >= n) break;
      best = c;
      for (std::size_t i = c + 1; i < n; ++i) {
        if (h[i] < h[best]) best = i;
      }
    }
    if (!(h[best] < key)) break;
    place(t, pos, h[best]);
    pos = best;
  }
  place(t, pos, key);
}

void Simulator::heap_remove(Tier& t, std::size_t pos) {
  BIPS_ASSERT(pos < t.keys.size());
  meta_[slot_of_key(t.keys[pos])].heap_pos = kNullPos;
  const std::size_t last = t.keys.size() - 1;
  if (pos != last) {
    t.keys[pos] = t.keys[last];
    t.keys.pop_back();
    // The moved-in entry may need to go either way relative to `pos`.
    sift_down(t, pos);
    sift_up(t, pos);
  } else {
    t.keys.pop_back();
  }
}

void Simulator::retire(std::uint32_t slot) {
  SlotMeta& m = meta_[slot];
  ++m.generation;
  m.heap_pos = kNullPos;
  slots_[slot].fn.reset();
  free_slots_.push_back(slot);
}

Callback Simulator::take_front(Tier& t) {
  const HeapKey front = t.keys.front();
  const std::uint32_t slot = slot_of_key(front);
  BIPS_ASSERT(when_of(front) >= now_);
  now_ = when_of(front);
  Callback fn = std::move(slots_[slot].fn);
  heap_remove(t, 0);
  // Retire before invoking: the callback may schedule new events (reusing
  // this slot under a fresh generation) or cancel its own, now stale, id.
  retire(slot);
  ++executed_;
  if ((executed_ & kSampleMask) == 0 && obs_.tracer.enabled()) {
    // Sinks only record; they cannot schedule, so sampling never perturbs
    // the event order -- traces stay bit-identical with tracing on or off.
    obs_.tracer.emit(now_, obs::TraceKind::kKernelSample, 0, executed_,
                     events_pending(), static_cast<double>(slots_.size()));
  }
  return fn;
}

bool Simulator::step() {
  Tier* t = front_tier();
  if (t == nullptr) return false;
  Callback fn = take_front(*t);
  fn();
  return true;
}

void Simulator::run_until(SimTime until) {
  BIPS_ASSERT(until >= now_);
  for (Tier* t = front_tier();
       t != nullptr && when_of(t->keys.front()) <= until; t = front_tier()) {
    Callback fn = take_front(*t);
    fn();
  }
  now_ = until;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace bips::sim
