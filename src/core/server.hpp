// The BIPS central server.
//
// Owns the partitioned location service (one LocationShard per building
// zone), the user registry, and the building topology with its offline
// all-pairs shortest paths ("the computation of the shortest path has no
// impact on BIPS online activities"). Serves the LAN: login/logout relays,
// presence deltas (single or batched), the unified spatio-temporal Query
// API, and streaming movement subscriptions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/location_service.hpp"
#include "src/core/registry.hpp"
#include "src/core/subscriptions.hpp"
#include "src/graph/all_pairs.hpp"
#include "src/mobility/building.hpp"
#include "src/net/lan.hpp"
#include "src/proto/messages.hpp"
#include "src/sim/simulator.hpp"

namespace bips::core {

class BipsServer {
 public:
  struct Config {
    std::size_t history_limit = 4096;
    /// Location shards: the building is cut into this many column-band
    /// zones (clamped to the distinct-column count) and each zone's slice
    /// of the location database lives on its own shard. 1 = the classic
    /// single-database server. 0 (the default) = one location shard per
    /// simulator zone, so deltas never cross shards on ingest; a standalone
    /// server treats 0 as 1.
    std::size_t zones = 0;
    /// Failure detector: a workstation silent (no heartbeat, no presence
    /// traffic) for this long is presumed crashed and every presence record
    /// attributed to it is expired -- a dead station can never send its own
    /// absences. 0 disables the detector.
    Duration station_timeout = Duration(0);
    /// How often the detector sweeps (when enabled).
    Duration sweep_period = Duration::seconds(2);
  };

  /// `building` must outlive the server.
  BipsServer(sim::Simulator& sim, net::Lan& lan,
             const mobility::Building& building, Config cfg);

  net::Address address() const { return endpoint_.address(); }

  /// Fault injection: the server dies -- every in-memory structure
  /// (sessions, presence, history, routing, remote subscriptions) is lost
  /// and all LAN traffic is ignored until restart(). The user registry
  /// survives (accounts live on disk in a real deployment).
  void crash();
  /// Comes back with the next epoch and broadcasts a SyncRequest so the
  /// workstations resynchronise the location database in one round trip
  /// instead of hours of organic re-sightings.
  void restart();
  bool crashed() const { return crashed_; }
  /// Monotonically increasing incarnation number (starts at 1, +1 per
  /// restart). Carried on SyncRequest/HeartbeatAck/PresenceAck so the
  /// workstations can detect restarts even under LAN loss.
  std::uint32_t epoch() const { return epoch_; }

  /// Partial fault injection: one location shard dies. Only zone k's slice
  /// is lost; presence deltas reported by zone-k stations are refused
  /// (unacked -- the workstations' retransmit queues hold them) and
  /// who-is-in queries on zone-k rooms answer zone-unavailable. Every
  /// other zone keeps answering correctly.
  void crash_shard(std::size_t k);
  /// Brings shard k back empty and solicits SyncSnapshots from exactly the
  /// zone-k workstations (zone-scoped unicast SyncRequests, retried via
  /// the pending-resync loop until each snapshot lands).
  void restart_shard(std::size_t k);
  bool shard_crashed(std::size_t k) const { return svc_.shard_crashed(k); }

  // ---- sharded-harness control plane (DESIGN.md section 9) --------------

  /// Applies one zone-agent presence delta at a window barrier. The zone's
  /// ZoneIngest already deduplicated and acked the stream on its own shard,
  /// so this path skips the wire dedup/ack machinery and goes straight to
  /// the shared location service, plus liveness/routing bookkeeping and
  /// subscriber fan-out. No-op while crashed: the agents mirror the crash
  /// at the next barrier, and the one-window sliver of deltas acked in
  /// between is repaired by the restart snapshot resync, exactly like a
  /// delta acked moments before a monolithic server dies.
  void ingest_merged(net::Address from, const proto::PresenceUpdate& m);

  /// Explicit restart()-broadcast targets. A sharded world's stations live
  /// on remote LAN segments the server's own endpoint enumeration cannot
  /// see; the harness hands their global addresses over so the post-restart
  /// SyncRequest reaches every zone. Empty (the default) keeps the
  /// monolithic local-segment broadcast.
  void set_sync_targets(std::vector<net::Address> targets) {
    sync_targets_ = std::move(targets);
  }

  /// Invoked whenever the failure detector forgets a station's presence-
  /// stream watermark (the station must start a fresh stream); the sharded
  /// harness propagates the reset to the station's zone agent at the next
  /// barrier.
  void set_presence_reset_hook(std::function<void(StationId)> hook) {
    presence_reset_hook_ = std::move(hook);
  }

  /// Bumps on every crash / restart / crash_shard / restart_shard; the
  /// sharded harness refreshes the zone agents' mirrored fault state only
  /// when this changed since the last barrier.
  std::uint64_t fault_generation() const { return fault_generation_; }

  UserRegistry& registry() { return registry_; }
  const UserRegistry& registry() const { return registry_; }
  /// The partitioned location service (sessions, presence, history).
  PartitionedLocationService& locations() { return svc_; }
  const PartitionedLocationService& locations() const { return svc_; }
  /// Streaming movement subscriptions; in-process observers attach here.
  SubscriptionHub& subscriptions() { return hub_; }
  const graph::Graph& topology() const { return topology_; }
  const graph::AllPairsPaths& paths() const { return paths_; }
  const mobility::Building& building() const { return building_; }

  // ---- unified spatio-temporal query API -------------------------------
  //
  // The one and only lookup surface. A Query names the requester (empty =
  // system operator, all rights), a kind and that kind's operands; the
  // QueryResult carries the union of the reply fields, with `status`
  // deciding which are meaningful. The wire handlers (legacy request
  // types and the routable proto::Query datagram) all route through
  // query().
  using Query = proto::Query;
  using QueryResult = proto::QueryResult;

  /// Executes `q` against the live service. Counts under "server.queries"
  /// and emits one server.query trace record carrying kind and status.
  QueryResult query(const Query& q) const;

  /// Number of live movement subscriptions, remote and in-process
  /// (test/metrics hook).
  std::size_t subscription_count() const;

 private:
  void on_datagram(net::Address from, const net::Payload& data);
  void handle(net::Address from, const proto::LoginRequest& m);
  void handle(net::Address from, const proto::LogoutRequest& m);
  void handle(net::Address from, const proto::PresenceUpdate& m);
  void handle(net::Address from, const proto::PresenceBatch& m);
  void handle(net::Address from, const proto::Query& m);
  void handle(net::Address from, const proto::WhereIsRequest& m);
  void handle(net::Address from, const proto::PathRequest& m);
  void handle(net::Address from, const proto::WhoIsInRequest& m);
  void handle(net::Address from, const proto::HistoryRequest& m);
  void handle(net::Address from, const proto::SubscribeRequest& m);
  void handle(net::Address from, const proto::Heartbeat& m);
  void handle(net::Address from, const proto::SyncSnapshot& m);
  void reply(net::Address to, const proto::Message& m);

  /// Applies one presence delta (shared by the single and batch handlers).
  /// Handles dedup and seq advance; returns true if an ack should carry
  /// the stream forward (false only when the delta was refused because its
  /// zone's shard is down -- refusals must NOT be acked, the workstation's
  /// retransmit queue is what repairs the slice after restart).
  bool ingest_presence(net::Address from, const proto::PresenceUpdate& m);
  /// Highest contiguously-accepted presence seq of `station` (the value a
  /// cumulative ack carries); 0 if nothing was ever accepted.
  std::uint64_t ackable_seq(StationId station) const {
    const auto it = last_presence_seq_.find(station);
    return it != last_presence_seq_.end() ? it->second : 0;
  }

  /// A station the failure detector expired turned out to be alive: ask it
  /// for a full snapshot (its tracked set never changed from its side, so
  /// no deltas would ever repopulate the expired records).
  void request_resync(net::Address station_addr);
  /// Any traffic from `station` proves liveness; returns true if the
  /// station was awaiting a resync (and issues the SyncRequest).
  void note_station_alive(StationId station, net::Address from);

  /// Failure-detector sweep: expires every record of silent stations.
  void sweep_dead_stations();

  /// Fans a presence transition of `bd_addr` out through the hub to its
  /// remote watchers and in-process observers.
  void notify_subscribers(std::uint64_t bd_addr, bool entered,
                          StationId station, SimTime at);
  /// Routes a server-originated message to the workstation currently
  /// serving `bd_addr`; false when the device's piconet is unknown.
  bool push_to_device(std::uint64_t bd_addr, const proto::Message& m);

  /// Resolves a query's requester/target and applies the paper's checks.
  /// On success fills `target_station`; otherwise returns the status.
  proto::QueryStatus resolve_target(std::string_view requester_userid,
                                    std::string_view target_name,
                                    StationId* target_station) const;

  sim::Simulator& sim_;
  net::Lan& lan_;
  Config cfg_;
  const mobility::Building& building_;
  graph::Graph topology_;
  graph::AllPairsPaths paths_;
  UserRegistry registry_;
  PartitionedLocationService svc_;
  SubscriptionHub hub_;
  net::Endpoint& endpoint_;

  /// Learned routing table: which LAN address serves each station (from the
  /// presence updates they send).
  std::unordered_map<StationId, net::Address> station_lan_;
  /// Reliability state of each workstation's presence stream.
  std::unordered_map<StationId, std::uint64_t> last_presence_seq_;
  /// Failure detector: last time each station was heard from.
  std::unordered_map<StationId, SimTime> last_heard_;
  std::unique_ptr<sim::PeriodicTimer> sweep_timer_;
  /// Stations the failure detector expired (or whose shard restarted
  /// empty), with the time of the last unicast SyncRequest sent to them
  /// (zero = none yet). Every sign of life re-requests (throttled to the
  /// sweep period) until a snapshot actually arrives -- the request or the
  /// reply may itself be lost.
  std::unordered_map<StationId, SimTime> resync_pending_;
  /// Stations that have delivered a SyncSnapshot to *this* incarnation. A
  /// post-restart server (epoch > 1) keeps soliciting a snapshot from every
  /// station it hears until the station shows up here: the restart broadcast
  /// and the station's unprompted epoch-advance push are each one datagram,
  /// and losing both must not orphan the station's state forever.
  std::unordered_set<StationId> synced_;

  /// Heavy-read path: materialised path-to answers. The all-pairs tables
  /// are precomputed offline, but every path-to still reconstructs the hop
  /// list and allocates its room-name strings; with whole floors asking
  /// "path to the printer room" those answers repeat endlessly. Keyed on
  /// (from_station, target_station); the underlying graph never changes at
  /// runtime, so entries are valid forever.
  struct CachedPath {
    std::vector<std::string> rooms;
    double distance = 0.0;
  };
  mutable std::unordered_map<std::uint64_t, CachedPath> path_cache_;

  bool crashed_ = false;
  std::uint32_t epoch_ = 1;
  std::uint64_t fault_generation_ = 0;
  std::vector<net::Address> sync_targets_;
  std::function<void(StationId)> presence_reset_hook_;

  /// Cached "server.*" registry cells and the tracer.
  struct Cells {
    obs::Counter* logins_ok;
    obs::Counter* logins_failed;
    obs::Counter* relogins;  // successful logins refreshing a pre-restart session
    obs::Counter* logouts;
    obs::Counter* presence_received;
    obs::Counter* presence_duplicates;
    obs::Counter* batches_received;
    obs::Counter* whereis_served;
    obs::Counter* paths_served;
    obs::Counter* whoisin_served;
    obs::Counter* history_served;
    obs::Counter* subscriptions_served;
    obs::Counter* events_pushed;
    obs::Counter* heartbeats;
    obs::Counter* stations_expired;
    obs::Counter* presences_expired;
    obs::Counter* malformed;
    obs::Counter* crashes;
    obs::Counter* restarts;
    obs::Counter* shard_crashes;
    obs::Counter* shard_restarts;
    obs::Counter* syncs_received;
    obs::Counter* sessions_restored;
    obs::Counter* presences_restored;
    obs::Counter* resyncs_requested;
    obs::Counter* queries;
    obs::Counter* path_cache_hits;
  };
  Cells c_;
  obs::Tracer* tracer_;
};

}  // namespace bips::core
