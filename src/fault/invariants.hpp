// Safety and convergence invariants for fault-injected runs.
//
// The InvariantChecker samples a running simulation and records every
// violation of the recovery contract as a human-readable string:
//
//  * presence sequence numbers never regress within a workstation
//    incarnation (a regression without an intervening crash() means the
//    reliable delta stream is corrupt);
//  * a workstation's view of the server epoch never moves backwards within
//    an incarnation (epochs are monotonic by construction);
//  * no user stays located at a station that has been dead longer than the
//    failure-detector bound -- a dead station can never report its own
//    absences, so only the server's sweep can tell the truth;
//  * after the plan heals (check_converged()), every logged-in user who is
//    physically inside some piconet is located again, and nobody is located
//    at a crashed station.
//
// Violations accumulate instead of asserting so one chaos run reports every
// broken invariant at once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/simulation.hpp"

namespace bips::core {
class ShardedBipsSimulation;
}

namespace bips::fault {

class InvariantChecker {
 public:
  /// Everything the checker needs to observe a world, as callables. The
  /// caller owns the sampling cadence and calls sample() itself, normally
  /// from observation points (sim::ShardGroup::observe_at): every shard
  /// stands exactly on the instant there, so cross-shard reads are safe at
  /// any shard count. All callables must stay valid for the checker's
  /// lifetime; world_view() builds the standard one.
  struct WorldView {
    std::function<SimTime()> now;
    std::function<std::size_t()> workstation_count;
    std::function<core::BipsWorkstation&(core::StationId)> workstation;
    std::function<bool()> server_crashed;
    std::function<std::vector<std::string>()> userids;
    std::function<bool(std::string_view)> logged_in;
    std::function<std::optional<core::StationId>(std::string_view)> db_room;
    std::function<mobility::RoomId(std::string_view)> true_room;
  };

  struct Config {
    /// How often the running invariants are sampled.
    Duration sample_period = Duration::seconds(1);
    /// A station continuously dead for longer than this must have no
    /// presence records left in the location database. Must exceed the
    /// server's station_timeout + sweep_period (plus slack for a server
    /// outage that delays the sweep).
    Duration dead_station_grace = Duration::seconds(30);
    /// When set, only stations (and users whose records point at stations)
    /// accepted by the filter are graded. The per-shard chaos tests run one
    /// checker per location-service zone with
    /// `filter = [&](StationId s) { return svc.zone_of(s) == k; }` so a
    /// deliberately crashed shard's own degradation does not drown out a
    /// genuine violation in a zone that was supposed to stay healthy.
    std::function<bool(core::StationId)> station_filter;
  };

  InvariantChecker(WorldView view, Config cfg);

  /// Takes one sample of the running invariants now. Callers invoke it every
  /// Config::sample_period, at deterministic instants of their choosing.
  void sample();

  /// End-of-run convergence check; call only after the fault plan has
  /// healed and the recovery bound has elapsed.
  void check_converged();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t samples() const { return samples_; }

 private:
  struct StationState {
    std::uint64_t last_seq = 0;
    std::uint32_t last_epoch = 0;
    std::uint64_t crashes = 0;   // stats().crashes at the last sample
    bool was_crashed = false;
    SimTime crashed_since = SimTime::zero();
  };

  void violate(std::string msg);
  bool graded(core::StationId s) const;

  WorldView view_;
  Config cfg_;
  std::vector<StationState> stations_;
  std::uint64_t samples_ = 0;
  std::vector<std::string> violations_;
};

/// The checker's view of `sim`: its clock (shard 0's: the observation
/// instant in an observer, the event's instant in a shard-0 event, the
/// window edge in the barrier hook), stations, server and users (each user
/// through the replica that owns them).
InvariantChecker::WorldView world_view(core::ShardedBipsSimulation& sim);

}  // namespace bips::fault
