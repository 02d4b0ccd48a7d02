// Fault-injection tests: server crash-recovery with epoch resync, seeded
// chaos runs graded by the InvariantChecker, and partition healing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/fault/invariants.hpp"
#include "src/fault/plan.hpp"

namespace bips::fault {
namespace {

using core::ShardedBipsSimulation;
using core::ShardedConfig;
using core::SimulationConfig;
using core::StationId;

/// Deployment tuned for fault drills: fast inquiry cycles, users standing
/// still, and the server's failure detector armed.
SimulationConfig drill_config() {
  SimulationConfig cfg;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.mobility.pause_min = Duration::seconds(100'000);
  cfg.mobility.pause_max = Duration::seconds(200'000);
  cfg.server.station_timeout = Duration::seconds(8);
  cfg.server.sweep_period = Duration::seconds(2);
  return cfg;
}

std::size_t located_count(ShardedBipsSimulation& sim) {
  std::size_t n = 0;
  for (const std::string& u : sim.userids()) {
    if (sim.db_room(u)) ++n;
  }
  return n;
}

/// Samples `checker` once per simulated second up to `end`, from
/// observation points (every shard stands exactly on the second there).
void sample_every_second(ShardedBipsSimulation& sim,
                         InvariantChecker& checker, Duration end) {
  for (SimTime t = SimTime::zero() + Duration::seconds(1);
       t <= SimTime::zero() + end; t = t + Duration::seconds(1)) {
    sim.group().observe_at(t, [&checker] { checker.sample(); });
  }
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += "  " + s + "\n";
  return out;
}

TEST(FaultPlan, ChaosIsDeterministicAndHeals) {
  const FaultPlan a = FaultPlan::chaos(7, 4);
  const FaultPlan b = FaultPlan::chaos(7, 4);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), FaultPlan::chaos(8, 4).describe());

  // Every crash has a matching restart and every window ends by heal_time.
  int crashes = 0, restarts = 0;
  for (const FaultEvent& e : a.events()) {
    EXPECT_LE(e.at, a.heal_time());
    if (e.kind == FaultEvent::Kind::kStationCrash ||
        e.kind == FaultEvent::Kind::kServerCrash) {
      ++crashes;
    }
    if (e.kind == FaultEvent::Kind::kStationRestart ||
        e.kind == FaultEvent::Kind::kServerRestart) {
      ++restarts;
    }
  }
  EXPECT_EQ(crashes, restarts);
}

TEST(FaultPlan, ShardFaultsAreFirstClassEvents) {
  // crash_shard / restart_shard ride the same plan machinery as the other
  // kinds: ordered by time and described for humans (their application on
  // shard 0 is exercised in test_parallel).
  FaultPlan plan;
  plan.crash_shard(Duration::seconds(40), 2)
      .restart_shard(Duration::seconds(55), 2);
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultEvent::Kind::kShardCrash);
  EXPECT_EQ(plan.events()[0].zone, 2u);
  EXPECT_EQ(plan.events()[1].kind, FaultEvent::Kind::kShardRestart);
  EXPECT_EQ(plan.heal_time(), Duration::seconds(55));
  const std::string text = plan.describe();
  EXPECT_NE(text.find("location shard 2 crashes"), std::string::npos) << text;
  EXPECT_NE(text.find("location shard 2 restarts"), std::string::npos)
      << text;
}

// The ISSUE acceptance drill: crash the server mid-run under 5% LAN loss,
// leave it down for 30 s, restart -- the located-user count must reconverge
// within 10 simulated seconds via the SyncSnapshot round, not via hours of
// organic re-sightings, and the sessions must survive through the
// workstations' attested hints (the handhelds never notice the outage).
TEST(FaultRecovery, ServerCrashResyncUnderLoss) {
  SimulationConfig cfg = drill_config();
  cfg.lan.loss = 0.05;
  ShardedBipsSimulation sim(mobility::Building::corridor(3),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.add_user("Bob", "bob", "pw", 1);
  sim.add_user("Carol", "carol", "pw", 2);

  sim.run_for(Duration::seconds(80));
  ASSERT_EQ(located_count(sim), 3u) << "deployment failed to enroll everyone";
  ASSERT_TRUE(sim.active_client("alice").logged_in());
  ASSERT_EQ(sim.server().epoch(), 1u);

  sim.server().crash();
  sim.run_for(Duration::seconds(30));
  EXPECT_EQ(located_count(sim), 0u);  // the DB died with the server

  sim.server().restart();
  sim.run_for(Duration::seconds(10));
  EXPECT_EQ(sim.server().epoch(), 2u);
  EXPECT_EQ(located_count(sim), 3u) << "resync did not reconverge in 10 s";
  EXPECT_GE(sim.metric_sum("server.syncs_received"), 3u);
  EXPECT_GE(sim.metric_sum("server.presences_restored"), 3u);

  // Sessions came back from the snapshots' hints: a name query works again
  // even though no handheld re-logged-in.
  EXPECT_GE(sim.metric_sum("server.sessions_restored"), 3u);
  EXPECT_EQ(sim.server()
                .query(core::BipsServer::Query::where_is("", "Alice"))
                .status,
            proto::QueryStatus::kOk);
}

// Partition one workstation from everything else: the failure detector must
// expire its users (a dead-to-us station cannot send absences), and the
// heal must relocate them via the unicast resync round.
TEST(FaultRecovery, PartitionAndHealRelocatesUsers) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = drill_config()});
  sim.add_user("Alice", "alice", "pw", 1);  // served by station 1

  FaultPlan plan;
  plan.partition_stations(Duration::seconds(60), Duration::seconds(30), {1});
  plan.apply_sharded(sim);

  sim.run_for(Duration::seconds(60));
  ASSERT_EQ(sim.db_room("alice"), 1u);

  // Inside the partition, past the detector bound: alice is expired.
  sim.run_for(Duration::seconds(20));
  EXPECT_EQ(sim.db_room("alice"), std::nullopt);
  EXPECT_GE(sim.metric_sum("server.stations_expired"), 1u);

  // Heal at t=90; the station's next heartbeat triggers a unicast
  // SyncRequest because nothing else would ever repopulate the records
  // (alice never moved, so station 1 has no new delta to send).
  sim.run_for(Duration::seconds(20));
  EXPECT_EQ(sim.db_room("alice"), 1u);
  EXPECT_GE(sim.metric_sum("server.resyncs_requested"), 1u);
  EXPECT_GE(sim.metric_sum("server.syncs_received"), 1u);
}

// Seeded chaos: random station/server crashes, a partition and a loss burst
// per run. After the plan heals, every invariant must hold -- across five
// different seeds.
TEST(FaultRecovery, ChaosSeedsKeepInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimulationConfig cfg = drill_config();
    cfg.seed = seed;
    cfg.lan.loss = 0.01;  // a little background loss on top of the faults
    ShardedBipsSimulation sim(mobility::Building::corridor(3),
                              ShardedConfig{.base = cfg});
    sim.add_user("Alice", "alice", "pw", 0);
    sim.add_user("Bob", "bob", "pw", 1);
    sim.add_user("Carol", "carol", "pw", 2);

    const FaultPlan plan = FaultPlan::chaos(seed, sim.workstation_count());
    plan.apply_sharded(sim);

    // Boot + faulted window + recovery bound past the last heal.
    const Duration run = plan.heal_time() + Duration::seconds(40);
    InvariantChecker checker(world_view(sim), InvariantChecker::Config{});
    sample_every_second(sim, checker, run);

    sim.run_for(run);
    checker.check_converged();

    EXPECT_TRUE(checker.ok())
        << "seed " << seed << " violated:\n"
        << join(checker.violations()) << "plan:\n"
        << plan.describe();
    EXPECT_GT(checker.samples(), 0u);
  }
}

// ---- partitioned location service under faults ----------------------------

// Crash one location shard of a three-zone service: only its own zone
// degrades. The neighbours' whereis answers stay correct through the whole
// crash/resync cycle, per-zone InvariantCheckers on the healthy zones stay
// green, and the zone-scoped unicast SyncRequest repairs the crashed slice
// after restart without touching the others.
TEST(ShardFault, CrashedShardDegradesOnlyItsZone) {
  // One simulator zone, one location shard per corridor room.
  SimulationConfig cfg = drill_config();
  cfg.server.zones = 3;
  ShardedBipsSimulation sim(mobility::Building::corridor(3),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.add_user("Bob", "bob", "pw", 1);
  sim.add_user("Carol", "carol", "pw", 2);

  auto& server = sim.server();
  const auto& svc = server.locations();
  ASSERT_EQ(svc.shard_count(), 3u);

  // Per-zone graders for the zones that must stay healthy throughout.
  auto zone_checker = [&](std::size_t zone) {
    InvariantChecker::Config icfg;
    icfg.station_filter = [&svc, zone](StationId s) {
      return svc.zone_of(s) == zone;
    };
    return std::make_unique<InvariantChecker>(world_view(sim),
                                              std::move(icfg));
  };
  auto check0 = zone_checker(0);
  auto check2 = zone_checker(2);
  // The drill below runs 80 + 10 + 20 s.
  sample_every_second(sim, *check0, Duration::seconds(110));
  sample_every_second(sim, *check2, Duration::seconds(110));

  sim.run_for(Duration::seconds(80));
  ASSERT_EQ(located_count(sim), 3u) << "deployment failed to enroll everyone";

  using Query = core::BipsServer::Query;
  auto where = [&](const char* name) {
    return server.query(Query::where_is("", name));
  };
  ASSERT_EQ(where("Bob").status, proto::QueryStatus::kOk);

  // Zone 1's shard dies. Its slice is gone; its stations' deltas are
  // refused (unacked -- they sit in the workstation's retransmit queue).
  server.crash_shard(1);
  sim.run_for(Duration::seconds(10));

  // Bob's session died with the shard slice (exactly what a whole-server
  // crash does to everyone), so the lookup fails at session resolution.
  EXPECT_EQ(where("Bob").status, proto::QueryStatus::kNotLoggedIn);
  EXPECT_EQ(server.query(Query::who_is_in("", "room-1")).status,
            proto::QueryStatus::kZoneUnavailable);
  // The neighbours never noticed.
  const auto alice = where("Alice");
  ASSERT_EQ(alice.status, proto::QueryStatus::kOk);
  EXPECT_EQ(alice.room, "room-0");
  const auto carol = where("Carol");
  ASSERT_EQ(carol.status, proto::QueryStatus::kOk);
  EXPECT_EQ(carol.room, "room-2");
  EXPECT_EQ(server.query(Query::who_is_in("", "room-0")).status,
            proto::QueryStatus::kOk);

  // Restart: the server unicasts SyncRequest to zone 1's stations only;
  // the snapshot (plus the retransmit queue) repairs the slice.
  server.restart_shard(1);
  sim.run_for(Duration::seconds(20));
  const auto bob = where("Bob");
  ASSERT_EQ(bob.status, proto::QueryStatus::kOk);
  EXPECT_EQ(bob.room, "room-1");
  EXPECT_EQ(located_count(sim), 3u);

  // The healthy zones' graders sampled through the whole drill and stayed
  // green; the end-of-run convergence check passes for them too.
  check0->check_converged();
  check2->check_converged();
  EXPECT_TRUE(check0->ok()) << join(check0->violations());
  EXPECT_TRUE(check2->ok()) << join(check2->violations());
  EXPECT_GT(check0->samples(), 0u);
}

// Seeded chaos against the partitioned service (three location shards),
// graded per zone: every zone's InvariantChecker must be green once the
// plan heals -- shard routing, seam re-homing and batched retransmits must
// not weaken any recovery invariant.
TEST(ShardFault, ChaosStaysGreenPerZoneWithShardedService) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SimulationConfig cfg = drill_config();
    cfg.seed = seed;
    cfg.lan.loss = 0.01;
    cfg.server.zones = 3;
    ShardedBipsSimulation sim(mobility::Building::corridor(3),
                              ShardedConfig{.base = cfg});
    sim.add_user("Alice", "alice", "pw", 0);
    sim.add_user("Bob", "bob", "pw", 1);
    sim.add_user("Carol", "carol", "pw", 2);

    const FaultPlan plan = FaultPlan::chaos(seed, sim.workstation_count());
    plan.apply_sharded(sim);

    const Duration run = plan.heal_time() + Duration::seconds(40);
    const auto& svc = sim.server().locations();
    std::vector<std::unique_ptr<InvariantChecker>> checkers;
    for (std::size_t zone = 0; zone < svc.shard_count(); ++zone) {
      InvariantChecker::Config icfg;
      icfg.station_filter = [&svc, zone](StationId s) {
        return svc.zone_of(s) == zone;
      };
      checkers.push_back(
          std::make_unique<InvariantChecker>(world_view(sim), std::move(icfg)));
      sample_every_second(sim, *checkers.back(), run);
    }

    sim.run_for(run);
    for (std::size_t zone = 0; zone < checkers.size(); ++zone) {
      checkers[zone]->check_converged();
      EXPECT_TRUE(checkers[zone]->ok())
          << "seed " << seed << " zone " << zone << " violated:\n"
          << join(checkers[zone]->violations()) << "plan:\n"
          << plan.describe();
      EXPECT_GT(checkers[zone]->samples(), 0u);
    }
  }
}

}  // namespace
}  // namespace bips::fault
