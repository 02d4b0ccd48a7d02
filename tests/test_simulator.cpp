// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/util/rng.hpp"

namespace bips::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(Duration::millis(30), [&] { order.push_back(3); });
  s.schedule(Duration::millis(10), [&] { order.push_back(1); });
  s.schedule(Duration::millis(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime(Duration::millis(30).ns()));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesDuringCallback) {
  Simulator s;
  s.schedule(Duration::seconds(2), [&] {
    EXPECT_EQ(s.now(), SimTime(Duration::seconds(2).ns()));
  });
  s.run();
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule(Duration::millis(1), [&] {
    s.schedule(Duration::millis(1), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now().ns(), Duration::millis(2).ns());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  auto h = s.schedule(Duration::millis(5), [&] { fired = true; });
  h.cancel();
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  bool fired = false;
  auto h = s.schedule(Duration::millis(5), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  h.cancel();  // must not crash or underflow counters
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, DoubleCancelIsIdempotent) {
  Simulator s;
  auto h = s.schedule(Duration::millis(5), [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(s.events_pending(), 0u);
  s.run();
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator s;
  std::vector<int> fired;
  s.schedule(Duration::millis(10), [&] { fired.push_back(1); });
  s.schedule(Duration::millis(30), [&] { fired.push_back(2); });
  s.run_until(SimTime(Duration::millis(20).ns()));
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(s.now().ns(), Duration::millis(20).ns());
  // The future event survives and fires on the next run.
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesTime) {
  Simulator s;
  s.run_until(SimTime(Duration::seconds(5).ns()));
  EXPECT_EQ(s.now().ns(), Duration::seconds(5).ns());
}

TEST(Simulator, EventAtHorizonFires) {
  Simulator s;
  bool fired = false;
  s.schedule(Duration::millis(20), [&] { fired = true; });
  s.run_until(SimTime(Duration::millis(20).ns()));
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int fired = 0;
  s.schedule(Duration::millis(1), [&] { ++fired; });
  s.schedule(Duration::millis(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CountersTrackExecutionAndPending) {
  Simulator s;
  s.schedule(Duration::millis(1), [] {});
  auto h = s.schedule(Duration::millis(2), [] {});
  EXPECT_EQ(s.events_pending(), 2u);
  h.cancel();
  EXPECT_EQ(s.events_pending(), 1u);
  s.run();
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, SchedulingIntoThePastDies) {
  Simulator s;
  s.schedule(Duration::millis(10), [&] {
    EXPECT_DEATH(s.schedule_at(SimTime::zero(), [] {}), "past");
  });
  s.run();
}

TEST(Simulator, CancelAfterFireWithReusedSlotIsNoop) {
  // Regression: the pre-arena kernel cancelled lazily by id, so a stale
  // handle cancelled *after* its event fired could shoot down an unrelated
  // event that had reused the same queue position. Generation tags make the
  // stale cancel a true no-op even when the arena slot has a new occupant.
  Simulator s;
  bool first = false, second = false;
  auto h = s.schedule(Duration::millis(1), [&] { first = true; });
  s.run();
  ASSERT_TRUE(first);
  // This schedule reuses the slot the fired event vacated.
  s.schedule(Duration::millis(1), [&] { second = true; });
  h.cancel();  // stale: must not touch the new occupant
  s.run();
  EXPECT_TRUE(second);
}

TEST(Simulator, CancelDuringDispatchOfSameInstant) {
  // An event may cancel a later event scheduled for the *same* instant;
  // the victim must not run even though it was already due when the
  // canceller fired.
  Simulator s;
  bool victim_ran = false;
  EventHandle victim;
  s.schedule(Duration::millis(5), [&] { victim.cancel(); });
  victim = s.schedule(Duration::millis(5), [&] { victim_ran = true; });
  s.schedule(Duration::millis(5), [&] { /* keep a third in the tie */ });
  s.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, SameInstantOrderSurvivesSlotChurn) {
  // Insertion order within one instant must hold even when the arena is a
  // patchwork of reused slots: recycle many slots first, then schedule a
  // same-instant batch whose slot numbers are descending free-list pops.
  Simulator s;
  for (int i = 0; i < 64; ++i) {
    auto h = s.schedule(Duration::micros(i), [] {});
    if (i % 2 == 0) h.cancel();
  }
  s.run();
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    s.schedule(Duration::millis(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ArenaReusesSlotsUnderChurn) {
  // Schedule/fire/cancel cycles must not grow the arena beyond the
  // high-water mark of *concurrent* events: a long-running simulation with
  // bounded concurrency keeps a bounded footprint.
  Simulator s;
  for (int round = 0; round < 1000; ++round) {
    auto a = s.schedule(Duration::micros(1), [] {});
    auto b = s.schedule(Duration::micros(2), [] {});
    s.schedule(Duration::micros(3), [] {});
    b.cancel();
    s.run();
    (void)a;
  }
  EXPECT_LE(s.arena_slots(), 8u);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, SameInstantOrderHoldsAcrossNearAndFarTiers) {
  // Events scheduled long before their instant wait in the far tier; events
  // scheduled for the same instant from a slot before it, or from inside
  // it, go to the near tier. Schedule order must still decide among them,
  // and a cancel must find its event in either tier.
  Simulator s;
  const SimTime t(Duration::millis(100).ns());
  std::vector<int> order;
  const auto record = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  s.schedule_at(t, record(1));
  EventHandle far_cancelled = s.schedule_at(t, record(-1));
  s.schedule_at(t + Duration::micros(1), record(7));
  EventHandle near_cancelled;
  s.schedule_at(t - Duration::micros(625), [&] {
    s.schedule_at(t, [&] {
      order.push_back(3);
      s.schedule_at(t, record(6));  // from inside the instant: after all
    });
    near_cancelled = s.schedule_at(t, record(-2));
    s.schedule_at(t, record(4));
    EXPECT_EQ(s.events_pending(), 8u);  // 5 scheduled far out, 3 close by
    far_cancelled.cancel();
    near_cancelled.cancel();
    EXPECT_EQ(s.events_pending(), 6u);
  });
  s.schedule_at(t, record(2));
  s.schedule_at(t - Duration::nanos(1), [&] { s.schedule_at(t, record(5)); });
  EXPECT_EQ(s.events_pending(), 6u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(s.events_pending(), 0u);
}

// Reference model for the randomized kernel test: the pending set as a
// std::set ordered by (when, schedule order), which is the order the kernel
// promises. Every id ever minted is kept, so cancels hit stale ids as well
// as live ones.
struct KernelModel {
  struct Issued {
    EventId id;
    SimTime when;
    std::uint64_t seq;
  };

  Simulator s;
  Rng rng{0x5EED};
  std::set<std::pair<std::int64_t, std::uint64_t>> ref;
  std::vector<Issued> issued;
  std::uint64_t next_seq = 0;
  std::uint64_t ops = 0, fired = 0, mismatches = 0;
  std::uint64_t live_cancels = 0, stale_cancels = 0, nested_ops = 0;

  SimTime pick_time() {
    const std::int64_t now = s.now().ns();
    switch (rng.uniform(4)) {
      case 0:  // due at once, behind everything already due now
        return s.now();
      case 1: {  // one of the next 64 slot edges: heavily tied instants,
                 // first scheduled from far out, later from close by
        const std::int64_t slot = Duration::micros(625).ns();
        return SimTime((now / slot + 1 + static_cast<std::int64_t>(
                                             rng.uniform(64))) * slot);
      }
      case 2:  // within a millisecond
        return SimTime(now + static_cast<std::int64_t>(rng.uniform(1'000'000)));
      default:  // far ahead
        return SimTime(now + static_cast<std::int64_t>(
                                 rng.uniform(10'000'000'000ull)));
    }
  }

  void schedule() {
    ++ops;
    const SimTime at = pick_time();
    const std::uint64_t seq = next_seq++;
    const bool nests = rng.uniform(8) == 0;
    const EventHandle h =
        s.schedule_at(at, [this, at, seq, nests] { fire(at, seq, nests); });
    ref.emplace(at.ns(), seq);
    issued.push_back(Issued{h.id(), at, seq});
  }

  void cancel() {
    ++ops;
    if (issued.empty()) return;
    // Half the picks come from the most recent ids (mostly live), half from
    // the whole history (mostly fired or cancelled already).
    const std::size_t n = issued.size();
    const std::size_t i =
        rng.uniform(2) == 0
            ? n - 1 - rng.uniform(std::min<std::size_t>(n, 64))
            : rng.uniform(n);
    const Issued& e = issued[i];
    if (ref.erase({e.when.ns(), e.seq}) > 0) {
      ++live_cancels;
    } else {
      ++stale_cancels;
    }
    s.cancel(e.id);
  }

  void fire(SimTime at, std::uint64_t seq, bool nests) {
    ++fired;
    const std::pair<std::int64_t, std::uint64_t> key{at.ns(), seq};
    if (ref.empty() || *ref.begin() != key || s.now() != at) ++mismatches;
    ref.erase(key);
    if (!nests) return;
    // A callback that itself schedules (possibly at this very instant) and
    // cancels (possibly an event due at this very instant).
    const std::uint64_t k = 1 + rng.uniform(3);
    for (std::uint64_t j = 0; j < k; ++j) {
      ++nested_ops;
      if (rng.uniform(3) == 0) {
        cancel();
      } else {
        schedule();
      }
    }
  }
};

TEST(Simulator, RandomScheduleAndCancelMatchReferenceOrder) {
  KernelModel m;
  bool residue_seen[4] = {false, false, false, false};
  std::size_t max_pending = 0;
  while (m.ops < 120'000) {
    // Alternate growth and drain phases so the pending count sweeps from
    // empty to about a thousand and back, through every residue mod 4: the
    // heap's last family is full and partial in turn.
    const bool grow = (m.ops / 4096) % 2 == 0;
    const std::uint64_t r = m.rng.uniform(10);
    if (r < (grow ? 6u : 2u)) {
      m.schedule();
    } else if (r < (grow ? 7u : 4u)) {
      m.cancel();
    } else {
      ++m.ops;
      m.s.step();
    }
    ASSERT_EQ(m.s.events_pending(), m.ref.size());
    residue_seen[m.ref.size() % 4] = true;
    max_pending = std::max(max_pending, m.ref.size());
  }
  m.s.run();
  EXPECT_TRUE(m.ref.empty());
  EXPECT_EQ(m.s.events_pending(), 0u);
  EXPECT_EQ(m.mismatches, 0u);
  EXPECT_GE(m.ops, 100'000u);
  EXPECT_EQ(m.fired + m.live_cancels, m.next_seq);
  // The stream exercised what it claims to.
  EXPECT_GT(m.live_cancels, 1000u);
  EXPECT_GT(m.stale_cancels, 1000u);
  EXPECT_GT(m.nested_ops, 1000u);
  EXPECT_GT(max_pending, 256u);
  for (bool seen : residue_seen) EXPECT_TRUE(seen);
}

TEST(Process, CallAfterFiresOnceAndClearsPending) {
  Simulator s;
  int fired = 0;
  Process p(s, [&] { ++fired; });
  p.call_after(Duration::millis(5));
  EXPECT_TRUE(p.pending());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(p.pending());
}

TEST(Process, BodyCanRearmItself) {
  Simulator s;
  int fired = 0;
  Process p(s, [&]() {
    if (++fired < 3) p.call_after(Duration::millis(1));
  });
  p.call_after(Duration::millis(1));
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now().ns(), Duration::millis(3).ns());
}

TEST(Process, RearmReplacesPendingActivation) {
  // call_at on an armed process cancels the earlier activation: exactly one
  // firing, at the later time.
  Simulator s;
  std::vector<std::int64_t> at;
  Process p(s, [&] { at.push_back(s.now().ns()); });
  p.call_after(Duration::millis(10));
  p.call_after(Duration::millis(20));
  s.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], Duration::millis(20).ns());
}

TEST(Process, CancelIsIdempotentAndDisarms) {
  Simulator s;
  int fired = 0;
  Process p(s, [&] { ++fired; });
  p.call_after(Duration::millis(1));
  p.cancel();
  p.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(p.pending());
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulator s;
  int fired = 0;
  PeriodicTimer t(s, Duration::millis(10), [&] { ++fired; });
  t.start();
  s.run_until(SimTime(Duration::millis(55).ns()));
  EXPECT_EQ(fired, 5);  // t=10,20,30,40,50
}

TEST(PeriodicTimer, StopHalts) {
  Simulator s;
  int fired = 0;
  PeriodicTimer t(s, Duration::millis(10), [&] { ++fired; });
  t.start();
  s.schedule(Duration::millis(25), [&] { t.stop(); });
  s.run_until(SimTime(Duration::millis(100).ns()));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, CallbackCanStopItself) {
  Simulator s;
  int fired = 0;
  PeriodicTimer t(s, Duration::millis(10), [&] {
    if (++fired == 3) t.stop();
  });
  t.start();
  s.run_until(SimTime(Duration::seconds(1).ns()));
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimer, StartAfterInitialDelay) {
  Simulator s;
  std::vector<std::int64_t> at;
  PeriodicTimer t(s, Duration::millis(10), [&] { at.push_back(s.now().ns()); });
  t.start_after(Duration::millis(3));
  s.run_until(SimTime(Duration::millis(30).ns()));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], Duration::millis(3).ns());
  EXPECT_EQ(at[1], Duration::millis(13).ns());
  EXPECT_EQ(at[2], Duration::millis(23).ns());
}

TEST(PeriodicTimer, RestartReplacesSchedule) {
  Simulator s;
  int fired = 0;
  PeriodicTimer t(s, Duration::millis(10), [&] { ++fired; });
  t.start();
  t.start();  // restart: must not double-fire
  s.run_until(SimTime(Duration::millis(35).ns()));
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace bips::sim
