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
    return static_cast<double>(heap_.size());
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
  heap_.push_back(make_key(at, seq << kSlotBits | slot));
  meta_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
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
  heap_remove(m.heap_pos);
  retire(slot);
}

void Simulator::sift_up(std::size_t pos) {
  const HeapKey key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(key < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapKey key = heap_[pos];
  const HeapKey* h = heap_.data();
  const std::size_t n = heap_.size();
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
    place(pos, h[best]);
    pos = best;
  }
  place(pos, key);
}

void Simulator::heap_remove(std::size_t pos) {
  BIPS_ASSERT(pos < heap_.size());
  meta_[slot_of_key(heap_[pos])].heap_pos = kNullPos;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_.pop_back();
    // The moved-in entry may need to go either way relative to `pos`.
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Simulator::retire(std::uint32_t slot) {
  SlotMeta& m = meta_[slot];
  ++m.generation;
  m.heap_pos = kNullPos;
  slots_[slot].fn.reset();
  free_slots_.push_back(slot);
}

Callback Simulator::take_front() {
  const HeapKey front = heap_.front();
  const std::uint32_t slot = slot_of_key(front);
  BIPS_ASSERT(when_of(front) >= now_);
  now_ = when_of(front);
  Callback fn = std::move(slots_[slot].fn);
  heap_remove(0);
  // Retire before invoking: the callback may schedule new events (reusing
  // this slot under a fresh generation) or cancel its own, now stale, id.
  retire(slot);
  ++executed_;
  if ((executed_ & kSampleMask) == 0 && obs_.tracer.enabled()) {
    // Sinks only record; they cannot schedule, so sampling never perturbs
    // the event order -- traces stay bit-identical with tracing on or off.
    obs_.tracer.emit(now_, obs::TraceKind::kKernelSample, 0, executed_,
                     heap_.size(), static_cast<double>(slots_.size()));
  }
  return fn;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  Callback fn = take_front();
  fn();
  return true;
}

void Simulator::run_until(SimTime until) {
  BIPS_ASSERT(until >= now_);
  while (!heap_.empty() && when_of(heap_.front()) <= until) {
    Callback fn = take_front();
    fn();
  }
  now_ = until;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace bips::sim
