// The full-stack BIPS simulation (DESIGN.md section 9).
//
// The one way to run a deployment. With one shard (the default) it is the
// paper's Figure 1 as-is: every workstation, handheld and walking agent on
// one simulator, and the stations talking straight to the central server.
// With more shards it partitions the building into vertical zones
// (contiguous column bands of room centres) and gives each zone its own
// sim::Simulator shard carrying the zone's workstations, its own radio
// channel, its own LAN segment and a replica of every handheld that has
// ever been in the zone: a handheld's replica on a zone is built the first
// time that zone owns it (at add_user for its start zone, on its first seam
// crossing into any other), and stays dormant while another zone owns it.
// The shards advance in conservative-lookahead windows under a
// sim::ShardGroup; the only cross-shard traffic is
//   * zone-LAN -> server uplink datagrams (the server lives on shard 0),
//     carried as mailbox events due at their precomputed delivery instant;
//   * agent handoffs: a walker crossing a zone seam suspends its replica at
//     the exact crossing point and mails its TransitState (route, speed,
//     Rng, session) one window ahead to the neighbouring shard's replica.
//
// The zone seams are RF-opaque: a handheld interacts only with the radio of
// the shard that currently owns it, and goes dark for one lookahead window
// (~ms, i.e. millimetres of walk) while crossing -- the same observable
// behaviour as the walkout/walk-in the stack already handles every time a
// user leaves one room's coverage for another. In exchange, no radio state
// is shared between threads at all, and the execution is byte-identical for
// every thread count: history CSV, presence streams and energy ledgers from
// `--threads N` match `--threads 1` exactly (the --par-ab gate).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/core/zone_map.hpp"
#include "src/core/zone_ingest.hpp"
#include "src/sim/shard.hpp"

namespace bips::core {

struct ShardedConfig {
  /// The deployment configuration every shard inherits.
  SimulationConfig base;
  /// Requested zone count; clamped to the number of distinct room-centre
  /// x coordinates (a single-column building cannot be split). The default
  /// is the paper's single zone. The location service's shard count is
  /// base.server.zones (0, the default, = one per simulator zone).
  std::size_t shards = 1;
  /// Extra one-way latency of the inter-zone uplink switch hop. Only
  /// cross-zone datagrams pay it, and it -- not the intra-zone base
  /// latency -- is the LAN leg of the lookahead window, so it trades
  /// cross-zone presence freshness (milliseconds) for window length.
  Duration uplink_extra = Duration::millis(5);
  /// Explicit window override; Duration(0) derives it (derive_window).
  Duration window = Duration(0);
};

/// The whole-building simulation, cut into `shards` zones; `threads` on
/// run_for selects the worker count without changing a single byte of
/// output.
class ShardedBipsSimulation {
 public:
  /// The conservative window this configuration admits:
  /// min(base LAN latency + uplink extra, seam margin / ff_max_speed_mps)
  /// with the seam margin following the radio occupancy convention
  /// RadioChannel::ff_radius_for(coverage_radius, ff_slack). Returns
  /// nullopt and fills `error` for configurations with no conservative
  /// window (e.g. a zero-latency LAN).
  static std::optional<Duration> derive_window(const ShardedConfig& cfg,
                                               std::string* error);

  ShardedBipsSimulation(mobility::Building building, ShardedConfig cfg);
  ShardedBipsSimulation(const ShardedBipsSimulation&) = delete;
  ShardedBipsSimulation& operator=(const ShardedBipsSimulation&) = delete;

  /// Registers a user and builds its live handheld+agent replica on the
  /// zone owning `start_room`. The replicas on the other zones are built on
  /// the user's first crossing into them; add_user still draws their forks
  /// from every shard's stream, in shard order, so each stream is the same
  /// as if every replica were built here. Call before start().
  void add_user(const std::string& name, const std::string& userid,
                const std::string& password, mobility::RoomId start_room);

  /// Starts every workstation, handheld and agent (idempotent).
  void start();
  /// Starts the system if needed, then advances every shard by `d` in
  /// conservative windows on `threads` workers (1 = the sequential
  /// reference execution; byte-identical).
  void run_for(Duration d, unsigned threads = 1);

  sim::ShardGroup& group() { return group_; }
  std::size_t shard_count() const { return group_.shard_count(); }
  /// The shard owning station / room `s`.
  std::size_t shard_of_station(StationId s) const {
    return station_shard_[s];
  }
  sim::Simulator& shard_simulator(std::size_t k) { return group_.shard(k); }
  /// The synchronisation window in force (kUnboundedLookahead when only
  /// one shard exists).
  Duration window() const { return window_; }

  BipsServer& server() { return *server_; }
  const mobility::Building& building() const { return building_; }
  std::size_t workstation_count() const { return stations_.size(); }
  BipsWorkstation& workstation(StationId s) { return *stations_.at(s); }
  std::size_t user_count() const { return users_.size(); }
  /// Registered userids, in add_user order (invariant grading needs the
  /// roster without reaching into the registry).
  std::vector<std::string> userids() const;

  /// Zone `k`'s LAN segment (fault injection targets it directly: link
  /// loss, loss bursts and partitions are per-zone state).
  net::Lan& shard_lan(std::size_t k) { return shards_[k]->lan; }
  /// Zone `k`'s presence ingest front-end; nullptr in single-shard worlds
  /// (stations talk straight to the server there).
  const ZoneIngest* zone_ingest(std::size_t k) const {
    return ingests_.empty() ? nullptr : ingests_[k].get();
  }
  /// Global LAN addresses of every zone agent (empty in single-shard
  /// worlds). Partition faults must keep these with the server's side so
  /// isolated stations lose their presence path too.
  std::vector<net::Address> ingest_addresses() const;

  /// Gates every shard's metrics registry at once.
  void set_metrics_enabled(bool on);
  /// Sums a registry counter across all shards (shard order).
  std::uint64_t metric_sum(std::string_view name) const;

  /// Schedules a scripted act against whichever replica of `userid` is
  /// live at `at` (scheduled into every shard; the owner guard makes
  /// exactly one fire). An act landing inside the one-window handoff
  /// blackout -- both replicas suspended -- is dropped, identically at
  /// every thread count. Call while the group is idle.
  using UserAct =
      std::function<void(BipsClient&, mobility::RandomWaypointAgent&)>;
  void schedule_user_act(SimTime at, std::string_view userid, UserAct act);
  /// Scripted RF shadow: from `at` the handheld's radio sits 1 km off the
  /// floor plan while its owner keeps walking (ground truth still follows
  /// the owner), so it stops answering inquiries and an attached master
  /// drops it via the supervision timeout. The flag rides handoffs with the
  /// user.
  void schedule_radio_shadow(SimTime at, std::string_view userid,
                             bool shadowed);
  /// Scripted handheld power cycle (shadow + power_off, then unshadow +
  /// power_on, as one act): radio dark and session RAM dead at `at`, back
  /// on at `at + off_for`. The powered-off state rides handoffs with the
  /// user like the shadow flag does.
  void schedule_power_cycle(SimTime at, std::string_view userid,
                            Duration off_for);

  // ---- observation (safe between run_for calls, in observers registered
  // ---- with group().observe_at and in the barrier hook) ----------------

  /// Ground truth: the piconet coverage circle the user stands in.
  mobility::RoomId true_room(std::string_view userid) const;
  /// What the location database believes.
  std::optional<StationId> db_room(std::string_view userid) const;
  /// The live replica's client (the seam-crossing blackout keeps the last
  /// owner's suspended client, whose logged_in() reads false).
  BipsClient& active_client(std::string_view userid);
  mobility::RandomWaypointAgent& active_agent(std::string_view userid);
  /// The shard currently owning the user's live replica.
  std::size_t owner_shard(std::string_view userid) const {
    return owner_[user_index(userid)];
  }

  /// Replaces a user's mobility with a custom position source (e.g. an
  /// AgendaAgent or a scripted path). The handheld, the ground truth
  /// (true_room) and the tracking metrics all follow it; the user's
  /// random-waypoint agent is stopped. Single-shard worlds only: a scripted
  /// source cannot hand off across a zone seam. Call after add_user.
  void set_position_provider(std::string_view userid,
                             std::function<Vec2()> provider);

  /// Single-threaded hook at every window barrier (after handoffs and
  /// uplink mail have been drained), with the window's right edge.
  void set_barrier_hook(std::function<void(SimTime)> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Periodic DB-vs-ground-truth grading: one observation point per
  /// period tick, each arming the next, so every shard count samples the
  /// exact tick grid. The database is read as of the tick; in a
  /// multi-shard world zone deltas reach it only at the next barrier.
  void enable_tracking_metrics(Duration period);
  const TrackingMetrics& tracking() const { return tracking_; }

  /// The canonical discovery-history CSV (core::write_history_csv): the
  /// location database's transition audit trail, time_s,user,device,room,
  /// event -- a convenient hand-off to plotting tools.
  void write_history_csv(std::ostream& os) const;

 private:
  /// One zone: a simulator shard's radio, LAN segment and RNG stream. The
  /// struct is heap-pinned; runtime access is exclusively by the worker
  /// currently executing the owning shard.
  struct Shard {
    Shard(sim::Simulator& sim, Rng rng_in, baseband::ChannelConfig ccfg,
          net::Lan::Config lcfg)
        : rng(std::move(rng_in)), radio(sim, rng, ccfg), lan(sim, rng, lcfg) {}
    Rng rng;
    baseband::RadioChannel radio;
    net::Lan lan;
    std::unordered_map<std::uint64_t, BipsClient*> clients_by_addr;
  };

  /// One user's presence on one shard. Every field is written only by the
  /// owning shard's events (or single-threaded between windows), so the
  /// replicas need no locks. Built only once the shard first owns the user;
  /// an act, shadow or power cycle aimed at a shard that never built one
  /// finds the user inactive there.
  struct Replica {
    std::unique_ptr<BipsClient> client;
    std::unique_ptr<mobility::RandomWaypointAgent> agent;
    bool active = false;    // this shard owns the user right now
    bool shadowed = false;  // scripted RF shadow (travels on handoff)
    bool powered_off = false;  // scripted power cycle (travels on handoff)
    /// set_position_provider's source; replaces the agent when set.
    std::function<Vec2()> provider;

    Vec2 position() const { return provider ? provider() : agent->position(); }
  };

  struct User {
    std::string userid;
    std::string name;
    std::string password;  // a replica's ClientConfig needs it
    /// The agent constructor needs a room; resume_transit then moves a
    /// replica built on first entry to where the walk crossed the seam.
    mobility::RoomId start_room = 0;
    /// One slot per shard, null until that shard first owns the user. Sized
    /// at add_user and never resized: the worker building replica k writes
    /// only element k, so no lock is needed.
    std::vector<std::unique_ptr<Replica>> replicas;
    /// Shard k's client fork seed (Rng::fork() is Rng(next_u64())), drawn
    /// at add_user; consumed when replica k is built.
    std::vector<std::uint64_t> client_seeds;
  };

  std::size_t shard_of_room(mobility::RoomId room) const;
  double dom_lo(std::size_t k) const;
  double dom_hi(std::size_t k) const;
  std::size_t user_index(std::string_view userid) const;

  /// (Re)installs replica (i, k)'s device position provider: the agent's
  /// position, or the user's scripted source. The install itself fires the
  /// device's position listeners -- the discrete "teleport" into or out of
  /// the parking shadow that wakes any quiesced master relying on a speed
  /// bound.
  void install_provider(std::size_t i, std::size_t k);
  /// Builds user i's replica on shard k, inactive, touching only shard k's
  /// simulator, radio, registry and clients_by_addr. `agent_rng` is the
  /// agent's own fork at add_user; a replica built on first entry takes any
  /// stream, since resume_transit installs the one the walk carries.
  Replica& build_replica(std::size_t i, std::size_t k, Rng agent_rng);
  void handle_exit(std::size_t i, std::size_t k, mobility::TransitState st);
  void resume_replica(std::size_t i, std::size_t dst,
                      mobility::TransitState st,
                      BipsClient::HandoffState session, bool shadowed,
                      bool powered_off);
  void on_barrier(SimTime edge);
  /// Barrier step 1: drains every zone agent's window log, replays it
  /// through the shard-0 server in one deterministic merge order, then
  /// mirrors the server's fault/epoch state back out to the agents.
  void merge_zone_ingest(SimTime edge);
  /// Takes one tracking sample and arms the next observation point.
  void sample_tracking();

  ShardedConfig cfg_;
  mobility::Building building_;
  /// The zone partition (seams between adjacent zones and the
  /// station -> zone table); shared shape with the server's location
  /// shards when their count follows the zones.
  ZonePartition zones_;
  sim::ShardGroup group_;
  Duration window_ = Duration(0);
  Rng rng_;  // master stream: construction-time forks only
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<BipsServer> server_;  // lives on shard 0
  std::vector<std::unique_ptr<BipsWorkstation>> stations_;
  std::vector<std::size_t> station_shard_;
  /// Per-zone presence ingest front-ends (multi-shard worlds only): each
  /// zone's stations report presence to their local agent, the agents'
  /// window logs merge into the server at every barrier.
  std::vector<std::unique_ptr<ZoneIngest>> ingests_;
  /// Stations whose presence-stream watermark the server's failure
  /// detector dropped mid-window (written only by shard 0's worker via
  /// the server hook, drained single-threaded at the barrier).
  std::vector<StationId> pending_presence_resets_;
  /// Last server fault_generation() mirrored out to the agents.
  std::uint64_t seen_fault_generation_ = 0;
  std::deque<User> users_;
  /// userid -> index into users_, filled by add_user. The keys view the
  /// users_ entries' own strings, which stay put: users_ only grows at the
  /// back (a deque moves no element doing so) and the class is immovable.
  std::unordered_map<std::string_view, std::size_t> user_ids_;
  /// Owning shard per user. Written by the owning shard's resume event,
  /// read single-threaded (barriers, observers).
  std::vector<std::uint32_t> owner_;
  bool started_ = false;
  std::function<void(SimTime)> barrier_hook_;
  TrackingMetrics tracking_;
  Duration sample_period_ = Duration(0);
};

}  // namespace bips::core
