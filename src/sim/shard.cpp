#include "src/sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <utility>

#include "src/util/assert.hpp"

namespace bips::sim {

std::optional<Duration> conservative_lookahead(const LookaheadInputs& in,
                                               std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<Duration> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  if (in.shard_count == 0) {
    return fail("lookahead: shard_count must be at least 1");
  }
  if (in.shard_count == 1) {
    // Nothing to synchronise with: the single shard may run to the horizon.
    return kUnboundedLookahead;
  }
  if (in.lan_latency <= Duration(0)) {
    return fail(
        "lookahead: cross-shard LAN latency must be positive -- a "
        "zero-latency LAN means a message sent at t can arrive at t, so no "
        "window of barrier-free execution is conservative; configure "
        "net::Lan::Config::base_latency (plus the uplink extra) > 0");
  }
  if (in.max_speed_mps <= 0.0) {
    return fail(
        "lookahead: max_speed_mps must be positive -- without a mobility "
        "speed bound the walk-time-to-radio-overlap at a shard seam is "
        "unbounded below (see Config::ff_max_speed_mps)");
  }
  if (in.seam_margin_m <= 0.0) {
    return fail(
        "lookahead: seam_margin_m must be positive -- a device already "
        "inside the seam overlap can interact with the neighbouring shard "
        "immediately, leaving no conservative window");
  }
  const Duration walk =
      Duration::from_seconds(in.seam_margin_m / in.max_speed_mps);
  const Duration horizon = std::min(in.lan_latency, walk);
  if (horizon <= Duration(0)) {
    // from_seconds rounds to nanoseconds; a sub-nanosecond walk bound
    // truncates to zero, which is as unusable as a zero-latency LAN.
    return fail("lookahead: computed horizon rounds to zero nanoseconds");
  }
  return horizon;
}

ShardGroup::ShardGroup(std::size_t shard_count) {
  BIPS_ASSERT_MSG(shard_count >= 1, "a ShardGroup needs at least one shard");
  shards_.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outboxes_.resize(shard_count);
}

ShardGroup::~ShardGroup() = default;

void ShardGroup::post(std::size_t src, std::size_t dst, SimTime due,
                      Callback fn) {
  BIPS_ASSERT(src < shards_.size());
  BIPS_ASSERT(dst < shards_.size());
  // The conservative-lookahead contract: effects posted during a window must
  // be due strictly after its right edge, otherwise the destination shard --
  // which may already have executed past `due` within this window -- would
  // see an effect from its past. run_until's inclusive right edge makes the
  // strict inequality necessary even for due == window end.
  BIPS_ASSERT_MSG(due > window_end_,
                  "cross-shard mail due inside the current window violates "
                  "the conservative lookahead");
  Outbox& ob = outboxes_[src];
  Mail m;
  m.due = due;
  m.src = static_cast<std::uint32_t>(src);
  m.dst = static_cast<std::uint32_t>(dst);
  m.seq = ob.next_seq++;
  m.fn = std::move(fn);
  ob.mail.push_back(std::move(m));
}

void ShardGroup::run_window_shards(std::size_t worker, std::size_t stride,
                                   SimTime to) {
  for (std::size_t k = worker; k < shards_.size(); k += stride) {
    shards_[k]->run_until(to);
  }
}

void ShardGroup::drain_mailboxes() {
  std::vector<Mail> batch;
  for (Outbox& ob : outboxes_) {
    for (Mail& m : ob.mail) batch.push_back(std::move(m));
    ob.mail.clear();
  }
  if (batch.empty()) return;
  // Canonical delivery order: (due, src shard, per-src posting sequence).
  // Each source's sequence is totally ordered and sources are disjoint, so
  // this key is unique -- destination-heap insertion order (and with it the
  // kernel's FIFO tie-break for same-instant events) is independent of how
  // shards were interleaved across threads.
  std::sort(batch.begin(), batch.end(), [](const Mail& a, const Mail& b) {
    return std::tie(a.due, a.src, a.seq) < std::tie(b.due, b.src, b.seq);
  });
  for (Mail& m : batch) {
    shards_[m.dst]->schedule_at(m.due, std::move(m.fn));
    ++mail_delivered_;
  }
}

void ShardGroup::observe_at(SimTime t, std::function<void()> fn) {
  BIPS_ASSERT_MSG(t >= now_, "observation point in the group's past");
  observers_.emplace(t, std::move(fn));
}

void ShardGroup::observe(SimTime t) {
  now_ = t;
  // An observer may register further points, at `t` itself included, so
  // take one at a time off the front.
  while (!observers_.empty() && observers_.begin()->first <= t) {
    std::function<void()> fn = std::move(observers_.begin()->second);
    observers_.erase(observers_.begin());
    fn();
  }
}

void ShardGroup::run_until(SimTime until, Duration window, unsigned threads) {
  BIPS_ASSERT(window > Duration(0));
  BIPS_ASSERT(until >= now_);
  const std::size_t nworkers = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, shards_.size()));

  // Persistent worker pool for this run: an epoch counter releases the
  // workers towards a target instant; each worker advances its
  // statically-assigned shards (k = worker, worker + n, worker + 2n, ...)
  // and bumps `done`. The main thread participates as worker 0, then waits
  // for the others; with one worker it runs every shard alone. All
  // cross-thread data (the target, shard heaps, outboxes) is ordered by the
  // release/acquire pairs on `epoch` and `done`; shard-to-worker assignment
  // never affects results because shards share no state inside a window.
  struct Pool {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<bool> stop{false};
    SimTime target = SimTime::zero();  // published by the epoch bump
  } pool;
  const auto spin_until = [](auto pred) {
    for (int i = 0; i < 4096; ++i) {
      if (pred()) return;
    }
    while (!pred()) std::this_thread::yield();
  };

  std::vector<std::thread> workers;
  workers.reserve(nworkers - 1);
  for (std::size_t w = 1; w < nworkers; ++w) {
    workers.emplace_back([this, &pool, &spin_until, w, nworkers] {
      std::uint64_t seen = 0;
      for (;;) {
        spin_until([&] {
          return pool.epoch.load(std::memory_order_acquire) != seen;
        });
        seen = pool.epoch.load(std::memory_order_acquire);
        if (pool.stop.load(std::memory_order_acquire)) return;
        run_window_shards(w, nworkers, pool.target);
        pool.done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Runs every shard to `t`: an observation pause or a window edge.
  const auto advance_to = [&](SimTime t) {
    pool.target = t;
    pool.epoch.fetch_add(1, std::memory_order_release);
    run_window_shards(0, nworkers, t);
    spin_until([&] {
      return pool.done.load(std::memory_order_acquire) == nworkers - 1;
    });
    pool.done.store(0, std::memory_order_relaxed);
  };

  while (now_ < until) {
    // Guard the addition: an unbounded window (INT64_MAX ns) must clamp to
    // `until`, not overflow.
    const SimTime w_end = (until - now_ <= window) ? until : now_ + window;
    window_end_ = w_end;
    while (!observers_.empty() && observers_.begin()->first < w_end) {
      const SimTime t = observers_.begin()->first;
      advance_to(t);
      observe(t);
    }
    advance_to(w_end);
    now_ = w_end;
    ++windows_;
    drain_mailboxes();
    if (hook_) {
      hook_(w_end);
      // The hook runs single-threaded at the barrier and may itself post
      // cross-shard mail (the sharded harness's barrier merge fans
      // subscriber pushes and resync requests out through the uplinks).
      // That mail is due inside the *next* window, so it must be moved
      // into the destination heaps before the window runs -- a drain at
      // the following barrier would be one window too late.
      drain_mailboxes();
    }
    observe(w_end);
  }

  pool.stop.store(true, std::memory_order_release);
  pool.epoch.fetch_add(1, std::memory_order_release);
  for (std::thread& t : workers) t.join();
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

}  // namespace bips::sim
