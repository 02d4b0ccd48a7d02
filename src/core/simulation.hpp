// Deployment configuration and grading types of the full-stack harness.
//
// The paper's Figure 1 deployment -- one workstation (piconet master) per
// room, the central server on a LAN, a population of walking users whose
// handhelds scan, get discovered, log in, are tracked and query each
// other's positions -- is built and run by core::ShardedBipsSimulation
// (parallel.hpp). Its one-shard configuration is the paper's single zone;
// more shards cut the same building into zones run on worker threads.
//
// The harness grades the service with a periodic sampler that compares the
// location database against the mobility ground truth (which coverage
// circle each user actually stands in): TrackingMetrics.
#pragma once

#include <iosfwd>

#include "src/core/client.hpp"
#include "src/core/server.hpp"
#include "src/core/workstation.hpp"
#include "src/mobility/agents.hpp"
#include "src/mobility/building.hpp"

namespace bips::core {

struct SimulationConfig {
  std::uint64_t seed = 42;
  /// Piconet coverage radius (paper: ~10 m).
  double coverage_radius_m = 10.0;
  /// Stagger the workstations' operational cycles across the cycle length
  /// so adjacent piconets do not run their inquiry slots simultaneously
  /// (their ID/FHS traffic would collide in coverage-overlap regions).
  bool stagger_inquiry = false;
  baseband::ChannelConfig channel;
  net::Lan::Config lan;
  WorkstationConfig workstation;
  baseband::SlaveConfig slave;
  mobility::RandomWaypointAgent::Config mobility;
  BipsServer::Config server;
};

/// How well the location database matches physical reality, sampled
/// periodically per logged-in user.
struct TrackingMetrics {
  std::uint64_t samples = 0;
  std::uint64_t correct_room = 0;  // DB room == covering room
  std::uint64_t agree_absent = 0;  // DB absent & outside every piconet
  std::uint64_t wrong_room = 0;    // DB names a different room
  std::uint64_t false_absent = 0;  // in a piconet but DB has nothing yet
  std::uint64_t false_present = 0; // outside coverage but DB still has a room

  /// Fraction of samples where the DB tells the truth.
  double accuracy() const {
    return samples == 0
               ? 0.0
               : static_cast<double>(correct_room + agree_absent) /
                     static_cast<double>(samples);
  }
};

/// Dumps a server's location-transition history as the canonical CSV
/// (time_s,user,device,room,event): rows sorted on (time, device) so that
/// kernel interleavings of same-instant independent retirements -- which
/// both the virtual-slot fast-forward and the sharded parallel kernel
/// legitimately perturb -- never show in the bytes, and the file is
/// identical at every shard and thread count.
void write_history_csv(std::ostream& os, const BipsServer& server,
                       const mobility::Building& building);

}  // namespace bips::core
