// Sharded parallel event kernel with conservative lookahead.
//
// A ShardGroup runs N independent Simulator instances ("shards") in lockstep
// windows: inside a window every shard advances barrier-free (optionally on
// worker threads); at the window edge all cross-shard traffic posted during
// the window is drained from per-shard mailboxes into the destination heaps
// in one deterministic canonical order. The window length is a conservative
// lookahead: as long as every cross-shard effect posted inside a window is
// due strictly *after* that window's right edge, no shard can ever observe
// an effect "from the future", so the execution -- and therefore every
// discovery history, presence stream and energy ledger -- is byte-identical
// whether the shards run on 1 thread or 16.
//
// The lookahead window is the minimum of two physical bounds the BIPS world
// offers (DESIGN.md section 9):
//   * the cross-shard LAN latency floor: a presence delta sent at t cannot
//     reach the server shard before t + L_min;
//   * the walk-time-to-radio-overlap at a shard seam: an agent at least
//     `seam_margin` metres from the seam, moving at most v_max m/s, cannot
//     interact with the neighbouring shard's radio for seam_margin / v_max
//     seconds (the same speed bound Config::ff_max_speed_mps that the
//     quiesced-piconet fast-forward already trusts, and the same ff_radius
//     convention the radio occupancy wakeups use).
//
// Determinism contract (the --par-ab gate):
//   * each shard's state (simulator, RNG streams, components) is touched
//     only by the worker currently running that shard;
//   * mailbox posts carry a (due, src shard, per-src sequence) key and are
//     drained sorted on it, so destination-heap insertion order -- and with
//     it the FIFO tie-break of same-instant events -- never depends on
//     thread scheduling;
//   * the barrier (and hence any window hook) runs single-threaded.
//
// Observation points (observe_at) let a grader read the whole world at an
// exact instant at every shard count: the group pauses every shard at the
// instant, runs the observer single-threaded and resumes the same window.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/util/time.hpp"

namespace bips::sim {

/// Lookahead with no cross-shard constraint (single-shard worlds): the
/// window degenerates to "run to the end in one go".
inline constexpr Duration kUnboundedLookahead = Duration(INT64_MAX);

/// Inputs to the conservative-lookahead computation.
struct LookaheadInputs {
  /// Minimum latency of any cross-shard LAN message (base latency; jitter
  /// and store-and-forward hops only ever add to it). Must be positive for
  /// multi-shard worlds: a zero-latency LAN admits no conservative window.
  Duration lan_latency = Duration(0);
  /// RF seam margin in metres: how far from a shard seam a device must be
  /// before it can possibly interact with the neighbouring shard's radio.
  /// By convention this follows the radio occupancy radius,
  /// RadioChannel::ff_radius_for(range_highwater, slack) = 2 * range + slack.
  double seam_margin_m = 0.0;
  /// Mobility speed bound (the role Config::ff_max_speed_mps plays for the
  /// quiesce logic). Must be positive for multi-shard worlds.
  double max_speed_mps = 0.0;
  std::size_t shard_count = 1;
};

/// Computes the conservative window: min(lan_latency, seam_margin / v_max).
/// Returns kUnboundedLookahead for single-shard worlds (nothing to
/// synchronise with). Returns nullopt and fills `error` for configurations
/// that admit no conservative window (zero shards, zero-latency LAN,
/// non-positive speed bound or seam margin).
std::optional<Duration> conservative_lookahead(const LookaheadInputs& in,
                                               std::string* error);

/// A group of independent simulators advanced in conservative windows.
class ShardGroup {
 public:
  explicit ShardGroup(std::size_t shard_count);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Simulator& shard(std::size_t k) { return *shards_[k]; }
  const Simulator& shard(std::size_t k) const { return *shards_[k]; }

  /// The group clock: the right edge of the last completed window between
  /// run_until calls (every shard's clock stands exactly here), and the
  /// observation instant while observers run. It does not move while a
  /// window's shards run.
  SimTime now() const { return now_; }

  /// Posts a cross-shard effect: `fn` will be scheduled on shard `dst` at
  /// absolute time `due` during the barrier that ends the current window.
  /// MUST be called from the worker currently executing shard `src` (or
  /// single-threaded between windows with src naming any shard).
  /// `due` must lie strictly after the current window's right edge -- that
  /// is the conservative-lookahead contract; it is asserted.
  void post(std::size_t src, std::size_t dst, SimTime due, Callback fn);

  /// Runs every shard to `until` in windows of `window`, using `threads`
  /// worker threads (clamped to the shard count; 1 = the sequential
  /// reference execution). The result is byte-identical for every value of
  /// `threads`.
  void run_until(SimTime until, Duration window, unsigned threads);

  /// Registers an observation point: run_until advances every shard to `t`
  /// (every event at or before `t` has run, none after), then runs the
  /// observers due at `t` single-threaded, in registration order, with
  /// now() == t, then resumes the same window. No event, mail drain or
  /// barrier merge moves, so a run is byte-identical with or without
  /// observers as long as they only read the world. An instant that is also
  /// a window edge is observed after that barrier's hook. `t` must not lie
  /// before now(); call single-threaded (between run_until calls, from the
  /// window hook or from an observer, which may register later points).
  void observe_at(SimTime t, std::function<void()> fn);

  /// Single-threaded hook invoked at every window barrier (after the mail
  /// drain), with the window's right edge. The sharded harness merges its
  /// zones' presence logs here: every shard is quiescent at the barrier, so
  /// cross-shard reads and writes are safe and deterministic. The hook may
  /// itself post() (src
  /// naming any shard) or schedule directly onto a shard -- barrier-time
  /// mail is drained again right after the hook returns, so it lands
  /// before the next window runs.
  void set_window_hook(std::function<void(SimTime)> hook) {
    hook_ = std::move(hook);
  }

  /// Sum of events executed across all shards.
  std::uint64_t events_executed() const;
  /// Completed synchronisation windows.
  std::uint64_t windows_run() const { return windows_; }
  /// Cross-shard mailbox events drained so far.
  std::uint64_t mail_delivered() const { return mail_delivered_; }

 private:
  struct Mail {
    SimTime due;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;  // per-src posting sequence
    Callback fn;
  };
  /// Per-source outbox: only the worker running shard `src` appends, so no
  /// locking inside a window; the barrier drains single-threaded.
  struct Outbox {
    std::vector<Mail> mail;
    std::uint64_t next_seq = 0;
  };

  void run_window_shards(std::size_t worker, std::size_t stride, SimTime to);
  void drain_mailboxes();
  /// Sets the clock to `t` and runs every observer due by then.
  void observe(SimTime t);

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Outbox> outboxes_;  // indexed by src shard
  std::function<void(SimTime)> hook_;
  /// Pending observation points; equal instants keep registration order.
  std::multimap<SimTime, std::function<void()>> observers_;
  SimTime now_ = SimTime::zero();
  SimTime window_end_ = SimTime::zero();  // right edge while a window runs
  std::uint64_t windows_ = 0;
  std::uint64_t mail_delivered_ = 0;
};

}  // namespace bips::sim
