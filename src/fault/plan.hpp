// Deterministic fault injection for a full ShardedBipsSimulation.
//
// A FaultPlan is a schedule of infrastructure failures -- workstation and
// server crashes/restarts, LAN partitions, loss bursts -- either scripted
// by hand (builder API) or generated from a seed (chaos()). Applying a plan
// schedules every fault on the simulation's event queue, so the whole run
// stays a deterministic function of the seed: a failing chaos seed replays
// bit-identically under a debugger.
//
// Every generated plan heals: each crash has a matching restart and each
// window ends, so heal_time() gives the instant after which the recovery
// invariants (see invariants.hpp) must reconverge.
//
// apply_sharded splits the schedule by owner: shard-local directives
// (station crash/restart, link loss, loss bursts, partitions, per-station
// chaos) become exact-time events inside the owning shard's windows, while
// barrier-class directives touching only shard-0 state (server
// crash/restart, location-shard crash/restart) are exact-time events on
// shard 0 -- which the kernel always executes single-threaded with respect
// to that shard's state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"

namespace bips::core {
class ShardedBipsSimulation;
}

namespace bips::fault {

/// One scheduled fault. Times are relative to the instant the plan is
/// applied (normally t=0, before the simulation starts).
struct FaultEvent {
  enum class Kind {
    kStationCrash,    // `station` powers off at `at`
    kStationRestart,  // `station` powers back on at `at`
    kServerCrash,     // the central server dies at `at`
    kServerRestart,   // ... and resyncs at `at`
    kPartition,       // `group` stations cut from the rest + server for `span`
    kLossBurst,       // uniform LAN loss raised to `loss` for `span`
    kLinkLoss,        // `station` <-> server link loss set to `loss` for `span`
    kShardCrash,      // location shard `zone` dies at `at`
    kShardRestart,    // ... and resyncs its zone at `at`
  };

  Kind kind;
  Duration at = Duration(0);
  core::StationId station = core::kNoStation;  // station faults / link loss
  std::vector<core::StationId> group;          // kPartition
  Duration span = Duration(0);                 // windowed faults
  double loss = 0.0;                           // kLossBurst / kLinkLoss
  std::size_t zone = 0;                        // kShardCrash / kShardRestart
};

/// Knobs for the seeded chaos generator.
struct ChaosParams {
  /// No fault fires before this (lets the deployment boot and enroll).
  Duration start = Duration::seconds(60);
  /// Faults are injected within [start, start + window).
  Duration window = Duration::seconds(90);
  /// Outage length of each crash / partition / burst, uniform in
  /// [min_outage, max_outage].
  Duration min_outage = Duration::seconds(5);
  Duration max_outage = Duration::seconds(20);
  int station_faults = 2;
  int server_faults = 1;
  int partitions = 1;
  int loss_bursts = 1;
  double burst_loss = 0.3;
};

class FaultPlan {
 public:
  // ---- builder API (times relative to apply_sharded()) ------------------
  FaultPlan& crash_station(Duration at, core::StationId s);
  FaultPlan& restart_station(Duration at, core::StationId s);
  FaultPlan& crash_server(Duration at);
  FaultPlan& restart_server(Duration at);
  /// Cuts `group` off from every other station and the server during
  /// [at, at + span).
  FaultPlan& partition_stations(Duration at, Duration span,
                                std::vector<core::StationId> group);
  FaultPlan& loss_burst(Duration at, Duration span, double loss);
  /// Degrades only the `station` <-> server link during [at, at + span).
  FaultPlan& flaky_link(Duration at, Duration span, core::StationId station,
                        double loss);
  /// Crash-stops location shard `zone` (partial server fault) at `at`.
  FaultPlan& crash_shard(Duration at, std::size_t zone);
  /// Brings location shard `zone` back empty at `at` (zone-scoped resync).
  FaultPlan& restart_shard(Duration at, std::size_t zone);

  /// Seeded random plan over `station_count` stations. Same seed + params
  /// -> same plan; every fault heals by heal_time().
  static FaultPlan chaos(std::uint64_t seed, std::size_t station_count,
                         const ChaosParams& params = {});

  /// Appends every event of `other` (times stay relative to the apply); the
  /// scenario compiler uses this to fold seeded chaos blocks into the
  /// scripted schedule, keeping one plan per run.
  FaultPlan& merge(const FaultPlan& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Instant (relative to the apply) by which every fault has healed.
  Duration heal_time() const;

  /// Schedules every event on `sim`'s event queues, split by owner (see the
  /// header comment): station faults fire on the owning zone's shard,
  /// server / location-shard faults on shard 0, and the windowed LAN faults
  /// (partition, loss burst, link loss) are mirrored onto every zone
  /// segment they affect. The simulation must outlive its scheduled events.
  /// Call while the group is idle (normally before start()). Identical
  /// schedules at every thread count.
  void apply_sharded(core::ShardedBipsSimulation& sim) const;

  /// Human-readable schedule, one line per event (fault-drill narration).
  std::string describe() const;

 private:
  FaultPlan& add(FaultEvent e);

  std::vector<FaultEvent> events_;
};

}  // namespace bips::fault
