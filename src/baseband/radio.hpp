// Shared radio channel with propagation range and collision handling.
//
// This is the reproduction of the paper's BlueHoc *extension*: "a mechanism
// for handling collisions that might arise during the establishment of a
// link". Delivery rule: a listener receives a packet iff
//
//   * it started listening on the packet's channel at or before the packet
//     began, and is still listening when the packet ends,
//   * the sender is within radio range, and
//   * no other in-range transmission overlapped the packet on the same
//     channel (unless near-far capture is enabled).
//
// Two slaves answering the same inquiry ID therefore destroy each other's
// FHS at the master -- the effect that caps first-cycle discovery in
// Figure 2.
//
// Scaling architecture (building-sized runs): every RF channel ever used is
// interned once into a ChannelState that owns that channel's listener index
// and a pointer to its transmission queue, so the hot paths cost one hash
// probe (transmit, start_listen) or none at all (stop_listen and delivery
// follow pointers carried by the listen slot / delivery closure). Listen state
// lives in a generation-tagged arena (ListenId = slot + generation, so a
// stale stop_listen is a true no-op), and each device carries its own
// listen list for O(its listens) teardown. A channel's listeners start as
// one flat vector -- a handful of scanners, scanned linearly -- and migrate
// one-way onto a coarse spatial grid over listener positions when the
// channel grows past ChannelConfig::grid_threshold. In-flight transmissions
// sit in start-time order (one queue per inquiry hop, one per page
// namespace), so the collision-overlap check scans a bounded window instead
// of every recent transmission in the building.
// Candidate listeners are visited in registration order, which makes
// delivery deterministic and independent of both hash-map iteration order
// and the flat/grid mode split; per-reception randomness is drawn from
// hash-derived streams keyed by (transmission, receiver), never from the
// shared generator, so one reception can never shift another's draws.
//
// The channel also maintains the occupancy index behind the virtual-slot
// fast-forward (DESIGN.md section 5c): per hop-set namespace it tracks the
// positions of *triggering* listeners (scan windows, armed backoff windows,
// response-exchange listens) plus transient holds covering committed
// response flights, and offers one-shot subscribe_occupancy() wakeups. A
// master whose channel set shows no trigger point within ff_radius() of it
// may park its slot drumming and advance closed-form; the index wakes it
// the instant that stops being safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/baseband/config.hpp"
#include "src/baseband/types.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/flat_map.hpp"
#include "src/util/geom.hpp"
#include "src/util/rng.hpp"

namespace bips::baseband {

using ListenId = std::uint64_t;
inline constexpr ListenId kNoListen = 0;

/// Channels within one hop-set namespace are indexed 0..31 (see RfChannel);
/// the channel intern table direct-indexes that range.
inline constexpr std::uint32_t kChannelIndexSpan = 32;

class RadioChannel;

/// A device attached to the radio channel. Implementations are the
/// controller state machines; the channel calls back on clean receptions.
class RadioDevice {
 public:
  virtual ~RadioDevice() = default;
  virtual BdAddr addr() const = 0;
  /// Physical position (metres); read at delivery time.
  virtual Vec2 position() const = 0;
  /// Radio range in metres (paper: ~10 m piconet radius).
  virtual double range_m() const = 0;
  /// Called on every clean packet reception while listening.
  virtual void on_packet(const Packet& p, RfChannel ch, SimTime end) = 0;

  /// Radio-on accounting hooks (energy model). The channel credits every
  /// transmission's air time and every listen's open duration. Concurrent
  /// listens accumulate independently (receiver-channel time, not wall
  /// time); the only device holding two listens at once is an inquiring
  /// master, which is mains-powered anyway. Default: not accounted.
  virtual void account_tx(Duration) {}
  virtual void account_listen(Duration) {}

 private:
  // Intrusive per-device listen index, maintained by RadioChannel: gives
  // stop_all_listens / listen_count O(own listens) cost with no hash map.
  friend class RadioChannel;
  std::vector<ListenId> active_listens_;
};

/// Per-listen reception callback; when provided it overrides the device's
/// on_packet, letting each protocol state machine own its listens.
using PacketHandler =
    std::function<void(const Packet& p, RfChannel ch, SimTime end)>;

/// How a listen participates in the occupancy index that drives idle
/// fast-forward (DESIGN.md section 5c).
///
///   kTriggering -- the listener is *initiating* state: an open scan window,
///     an armed backoff listen, a response-exchange listen. Its presence
///     means a parked master's drumming could become observable, so it
///     registers an occupancy trigger point and fires pending occupancy
///     subscriptions within ff_radius().
///   kPassive -- the listener is *reactive* state that only matters if a
///     triggering listener already brought the interaction about: a master's
///     own response-window listens. Passive listens never hold a master
///     awake (that would make every master's wakefulness depend on every
///     other master's, a fixpoint the closed-form skip cannot evaluate);
///     instead the scanner side covers the response flight with an
///     occupancy_hold().
enum class ListenKind : std::uint8_t { kTriggering, kPassive };

/// Handle for one occupancy subscription; 0 is never issued.
using OccupancySubId = std::uint64_t;
inline constexpr OccupancySubId kNoOccupancySub = 0;

/// Fired (once) when a triggering listener or hold appears within
/// ff_radius() of the subscription point, with the current simulated time.
/// Runs at the end of the registration that satisfied it; the callback must
/// only schedule (arm a process at `now`), never transmit or listen
/// directly, so registration order stays the only order that matters.
using OccupancyCallback = std::function<void(SimTime)>;

class RadioChannel {
 public:
  RadioChannel(sim::Simulator& sim, Rng& rng, ChannelConfig cfg = {})
      : sim_(sim),
        rng_(rng),
        cfg_(cfg),
        // One up-front draw decorrelates the per-reception hash streams (see
        // deliver()) from everything else derived from the master seed.
        draw_seed_(rng.next_u64()),
        max_range_hw_(cfg.default_range_m),
        c_transmissions_(&sim.obs().metrics.counter("radio.transmissions")),
        c_deliveries_(&sim.obs().metrics.counter("radio.deliveries")),
        c_collisions_(&sim.obs().metrics.counter("radio.collisions")),
        c_out_of_range_(&sim.obs().metrics.counter("radio.out_of_range")),
        c_dropped_per_(&sim.obs().metrics.counter("radio.dropped_per")),
        c_occ_wakeups_(&sim.obs().metrics.counter("radio.occ_wakeups")) {}
  RadioChannel(const RadioChannel&) = delete;
  RadioChannel& operator=(const RadioChannel&) = delete;

  const ChannelConfig& config() const { return cfg_; }

  /// Starts a transmission on `ch` at the current simulated time; the packet
  /// occupies the air for p.duration(). A device may transmit while holding
  /// listens, but state machines never do (half-duplex radio).
  void transmit(RadioDevice* sender, RfChannel ch, Packet p);

  /// Begins listening on one channel; a device may hold several concurrent
  /// listens (an inquiring master watches both response channels of a TX
  /// slot). If `handler` is given it receives the packets; otherwise the
  /// device's on_packet does. On a grid-mode channel the listener is
  /// spatially indexed under its position at this instant (see
  /// ChannelConfig::grid_slack_m). A kTriggering listen (the default; every
  /// scanner-side listen is one) also registers an occupancy trigger point
  /// and fires matching occupancy subscriptions before returning.
  ListenId start_listen(RadioDevice* d, RfChannel ch,
                        PacketHandler handler = nullptr,
                        ListenKind kind = ListenKind::kTriggering);
  /// start_listen with an explicit registration time in the past: how a
  /// woken master reconstructs the response-window listens its skipped
  /// slots would have opened. Delivery/overlap semantics are exactly those
  /// of a listen opened at `since` (a packet that started after `since` and
  /// is still in flight will be delivered); the stop-side energy credit
  /// spans from `since` too. Requires since <= now.
  ListenId start_listen_backdated(RadioDevice* d, RfChannel ch, SimTime since,
                                  PacketHandler handler = nullptr,
                                  ListenKind kind = ListenKind::kPassive);
  void stop_listen(ListenId id);
  /// Drops every listen a device holds; O(listens of that device).
  void stop_all_listens(RadioDevice* d);

  // --- Occupancy index: who could possibly hear a drumming master --------
  //
  // Keyed per hop-set namespace (ns 0 = the shared inquiry set, one ns per
  // paged address). Trigger points are the kTriggering listens plus
  // explicit holds; a master parks only while no trigger point in its
  // namespace lies within ff_radius() of it, and is woken by a one-shot
  // subscription the instant one appears.

  /// Registers a transient trigger point with no listen attached: a scanner
  /// that has committed to transmitting a response keeps nearby masters in
  /// exact mode until the response's flight ends at `until`. Expires lazily.
  void occupancy_hold(RfChannel ch, Vec2 pos, SimTime until);
  /// True if any live trigger point in `ns` is within ff_radius() of `pos`.
  bool occupied(std::uint32_t ns, Vec2 pos);
  /// One-shot wakeup: `cb` fires when a trigger point appears within
  /// ff_radius() of `pos` in `ns` (or when ff_radius() itself grows, which
  /// invalidates every park decision). The caller checks occupied() first;
  /// an already-satisfied subscription does not fire retroactively.
  OccupancySubId subscribe_occupancy(std::uint32_t ns, Vec2 pos,
                                     OccupancyCallback cb);
  /// Cancels a pending subscription (no-op if it already fired).
  void unsubscribe_occupancy(std::uint32_t ns, OccupancySubId id);
  /// Radius of the park predicate: 2 * (largest transmit range any device
  /// has shown) + ChannelConfig::ff_slack_m. The factor 2 closes the
  /// interference chain -- a skipped transmission can only matter through a
  /// victim listener within one range of both the parked master and the
  /// interfering/receiving party (DESIGN.md section 5c).
  double ff_radius() const {
    return ff_radius_for(max_range_hw_, cfg_.ff_slack_m);
  }
  /// The ff_radius convention as a pure function, shared with the sharded
  /// kernel: a shard's seam margin uses the same 2 * range + slack rule, so
  /// "far enough from the seam to ignore the other side" and "far enough
  /// from every trigger point to park" are one invariant.
  static double ff_radius_for(double range_highwater_m, double slack_m) {
    return 2.0 * range_highwater_m + slack_m;
  }

  /// Number of listens currently registered for a device (test hook).
  std::size_t listen_count(const RadioDevice* d) const {
    return d->active_listens_.size();
  }

  /// Received signal strength at distance d: a log-distance path-loss model
  /// (class-2 TX power 0 dBm, exponent 2.5) plus Gaussian shadowing. The
  /// absolute calibration is immaterial; only the monotone distance
  /// relation matters (presence arbitration compares values). This overload
  /// draws its shadowing noise from the shared stream (model probing /
  /// tests); delivered packets use the per-reception hash stream instead.
  double rssi_dbm(double distance_m);

  // Traffic counters live in the simulator's MetricsRegistry under
  // "radio.*" (transmissions, deliveries, collisions, out_of_range,
  // dropped_per, occ_wakeups); read them via
  // sim.obs().metrics.counter_value("radio.<name>").

 private:
  struct Transmission {
    RadioDevice* sender;
    RfChannel ch;
    SimTime start, end;
    Packet packet;
  };
  // One listen as stored in a channel's flat or per-cell index: enough
  // state to filter candidates without touching the arena. Vectors are
  // unsorted (removal is swap-and-pop); deliver() sorts the gathered
  // candidates by registration sequence, which arena slot reuse does not
  // preserve in the id itself.
  struct CellEntry {
    ListenId id;
    std::uint64_t seq;  // registration order, monotone across all listens
    RadioDevice* device;
    SimTime since;
  };
  // Transmissions overlapping the recent past on one inquiry channel or one
  // page namespace, in start-time order (simulation time is monotone, so
  // push_back keeps it sorted).
  // std::deque: grows at the back, prunes at the front, and -- crucially --
  // pointers to elements survive both, so the delivery event can carry a
  // plain Transmission* instead of copying the packet into the closure.
  using TxQueue = std::deque<Transmission>;

  // Everything the channel knows about one RF channel, interned on first
  // use and kept for the rest of the run (scanners revisit the same
  // channels every window; erase/insert churn would cost an allocation
  // each way). Page namespaces make these numerous -- every handheld's
  // page scan walks its own 32 hops -- so an interned state holds no heap
  // until used: the grid table is built on migration, and a page hop has
  // no queue of its own. Held by unique_ptr (as is each NsChannels block),
  // so listen slots and delivery events can keep its address for the run.
  struct ChannelState {
    // Flat listener list (pre-migration). A channel serving one building
    // wing has a handful of listeners: a linear scan beats grid probes.
    std::vector<CellEntry> flat;
    // Spatial index, populated once the channel migrates (empty, and so
    // unallocated, before): grid cell key -> listeners registered under
    // that cell. Emptied vectors are kept, which is exactly the erase-free
    // discipline FlatHashMap requires.
    FlatHashMap<std::vector<CellEntry>> cells;
    // The queue this channel's transmissions join: its own on an inquiry
    // hop, its namespace's shared one on a page hop (see NsChannels).
    TxQueue* recent = nullptr;
    std::uint32_t listens = 0;  // across flat + cells
    // One-way flag: flips when `listens` first exceeds grid_threshold (and
    // the config enables the grid). Crowded channels stay grid-indexed.
    bool grid = false;
  };

  // Arena slot for one listen. `generation` advances when the listen stops
  // and when the slot is reused, so a stale ListenId can never act on a
  // later occupancy (stop_listen of a dead id is a true no-op).
  struct ListenSlot {
    RadioDevice* device = nullptr;  // null while the slot is free
    ChannelState* chan = nullptr;
    SimTime since;
    PacketHandler handler;   // may be empty -> device->on_packet
    std::uint64_t cell = 0;  // grid cell it is indexed under (grid mode)
    std::uint32_t generation = 0;
    std::uint32_t ns = 0;    // hop-set namespace (occupancy bookkeeping)
    ListenKind kind = ListenKind::kTriggering;
  };

  // --- Occupancy bookkeeping (one block per hop-set namespace) -----------
  // A trigger point is either a live kTriggering listen (until ==
  // SimTime::max(), removed by stop_listen) or a hold (expires lazily at
  // `until`). Subscribers are kept in subscription order, which is the
  // order callbacks fire in -- deterministic and independent of hash-map
  // layout.
  struct TriggerPoint {
    Vec2 pos;
    SimTime until;
    ListenId listen = kNoListen;  // kNoListen for holds
  };
  struct OccSubscriber {
    OccupancySubId id;
    Vec2 pos;
    OccupancyCallback cb;
  };
  struct Occupancy {
    std::vector<TriggerPoint> points;
    std::vector<OccSubscriber> subs;
  };

  // A gathered listener, by arena slot: no handler copy during the gather
  // (the handler std::function is only copied for the rare candidate that
  // actually receives). Slots stopped while a delivery is in progress are
  // retired lazily (deferred_free_), so the slot's handler survives until
  // the snapshot is done even if an earlier candidate's handler stopped it.
  struct Candidate {
    RadioDevice* device;
    std::uint32_t slot;
  };

  // One page namespace: a paged address's 32 hop channels, direct-indexed,
  // and the one transmission queue they share. A namespace carries only the
  // page trains aimed at one handheld and that handheld's replies, so the
  // shared queue stays short, and with cross_set_interference == 0 the
  // overlap scan in deliver() skips other hops' entries: sharing changes no
  // outcome. page_ns_ holds one block per distinct paged address, so it
  // grows with the population.
  struct NsChannels {
    std::unique_ptr<ChannelState> ch[kChannelIndexSpan];
    TxQueue recent;
  };

  ChannelState& channel_state(RfChannel ch);
  void migrate_to_grid(ChannelState& cs);
  void deliver(ChannelState& cs, const Transmission& tx);
  void gather_candidates(const ChannelState& cs, const Transmission& tx);
  void prune(TxQueue& q, SimTime now);
  bool in_range(const RadioDevice* rx, const RadioDevice* tx) const;
  double tx_range(const RadioDevice* tx) const;
  std::uint64_t grid_cell(Vec2 pos) const;

  double rssi_dbm(double distance_m, Rng& rng) const;
  Occupancy& occupancy(std::uint32_t ns);
  /// Registers a trigger point and fires satisfied subscriptions in `ns`.
  void add_trigger(std::uint32_t ns, Vec2 pos, SimTime until, ListenId id);
  void remove_trigger(std::uint32_t ns, ListenId id);
  std::size_t live_subs() const;
  /// Tracks the largest transmit range seen; an increase re-fires every
  /// pending subscription (their park decisions used a smaller radius).
  void note_range(const RadioDevice* d);

  sim::Simulator& sim_;
  Rng& rng_;
  ChannelConfig cfg_;
  // Seed of the per-reception hash-derived draw streams (see deliver()).
  std::uint64_t draw_seed_;
  // High-water mark of tx_range() over every device that has transmitted or
  // listened; the ff_radius() base.
  double max_range_hw_;
  // Cached registry cells ("radio.*").
  obs::Counter* c_transmissions_;
  obs::Counter* c_deliveries_;
  obs::Counter* c_collisions_;
  obs::Counter* c_out_of_range_;
  obs::Counter* c_dropped_per_;
  obs::Counter* c_occ_wakeups_;
  // Listen arena + free list (same slot/generation scheme as the event
  // kernel; footprint is the high-water mark of concurrent listens).
  std::vector<ListenSlot> lslots_;
  std::vector<std::uint32_t> lfree_;
  std::uint64_t next_listen_seq_ = 1;
  // Channel intern table, two-level: the inquiry namespace is a direct
  // member (no hashing for the bulk of the traffic), page namespaces map
  // through ns -> channel block. Every inquiring master sweeps all 32
  // inquiry hops, so each keeps its own queue and its overlap scan reads
  // only its own traffic.
  std::unique_ptr<ChannelState> inquiry_ch_[kChannelIndexSpan];
  TxQueue inquiry_recent_[kChannelIndexSpan];
  FlatHashMap<std::unique_ptr<NsChannels>> page_ns_;
  // Transmission bucket used when cross-set interference is enabled: every
  // transmission lands in one global queue (in start-time order, exactly
  // the old flat recent_ list), so the probabilistic cross-channel clash
  // check sees other hop sets *and* draws its random numbers in the same
  // order as the pre-bucketing implementation.
  TxQueue global_recent_;
  // Occupancy blocks: inquiry namespace direct, page namespaces interned
  // (mirrors the channel table's two-level layout).
  Occupancy inquiry_occ_;
  FlatHashMap<std::unique_ptr<Occupancy>> page_occ_;
  std::uint64_t next_sub_id_ = 1;
  // Global subscription order, used only by the rare wake-everything path
  // (max-range increase) so even that fires deterministically; entries
  // whose subscription already fired or was cancelled are skipped lazily.
  std::vector<std::pair<std::uint32_t, OccupancySubId>> sub_order_;
  // Scratch for subscription firing (callbacks may re-subscribe).
  std::vector<OccupancyCallback> fired_cbs_;
  // Scratch buffers reused across deliveries (deliver never nests: handlers
  // run from the event loop and can only schedule, not deliver, packets).
  // Candidates order by (registration time, listener address, registration
  // seq). `since` first: a backdated reconstructed listen sorts exactly
  // where its exact-mode counterpart would have. The address tie-break
  // makes same-instant registrations by *different* devices order
  // identically in both modes even though their registering events may
  // interleave differently within the instant (a woken master's slot event
  // re-enters the FIFO at a different position than the exact path's
  // re-arm); one device's own same-instant listens keep their per-device
  // registration order via seq.
  struct OrderKey {
    SimTime since;
    std::uint64_t addr;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const OrderKey& o) const {
      if (since != o.since) return since < o.since;
      if (addr != o.addr) return addr < o.addr;
      return seq < o.seq;
    }
  };
  std::vector<OrderKey> candidate_seqs_;
  std::vector<Candidate> candidates_;
  // Listen slots stopped while a delivery is running: their free-list push
  // (and handler teardown) waits until the delivery finishes, so snapshot
  // candidates can still reach their handler and no slot is reused
  // mid-delivery.
  bool in_delivery_ = false;
  std::vector<std::uint32_t> deferred_free_;
};

}  // namespace bips::baseband
