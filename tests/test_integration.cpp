// Full-stack integration tests: building + workstations + server + clients,
// end to end through the radio, the piconets and the LAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/core/parallel.hpp"

namespace bips::core {
namespace {

SimulationConfig fast_config() {
  SimulationConfig cfg;
  // Generous inquiry slots so enrollment converges in little simulated
  // time: 2.56 s covers a full train-A dwell, and a 50% duty cycle puts
  // every other scan window inside an inquiry slot.
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  // Pin users in place by default; movement tests override providers.
  cfg.mobility.pause_min = Duration::seconds(100'000);
  cfg.mobility.pause_max = Duration::seconds(200'000);
  return cfg;
}

TEST(Integration, SingleUserEnrollsLogsInAndIsLocated) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.run_for(Duration::seconds(60));

  BipsClient& alice = sim.active_client("alice");
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(alice.logged_in());
  EXPECT_EQ(sim.db_room("alice"), 0u);
  EXPECT_TRUE(sim.workstation(0).tracks(alice.addr()));
  EXPECT_GE(sim.metric_sum("server.logins_ok"), 1u);
  EXPECT_GE(sim.workstation(0).stats().presences_reported, 1u);
}

TEST(Integration, WrongPasswordNeverLogsIn) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  // Corrupt the stored credentials by registering through the simulation
  // but logging in with a different password: craft via a second user whose
  // password mismatches what the client sends is not reachable through the
  // public API, so exercise the failure through the server directly.
  sim.run_for(Duration::seconds(1));
  EXPECT_FALSE(sim.server().registry().authenticate("alice", "nope"));
}

TEST(Integration, TwoUsersWhereIsEndToEnd) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 1);
  sim.run_for(Duration::seconds(60));

  ASSERT_TRUE(sim.active_client("alice").logged_in());
  ASSERT_TRUE(sim.active_client("bob").logged_in());
  ASSERT_EQ(sim.db_room("bob"), 1u);

  std::optional<proto::WhereIsReply> reply;
  ASSERT_TRUE(sim.active_client("alice").where_is(
      "Bob", [&](const proto::WhereIsReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kOk);
  EXPECT_EQ(reply->room, "room-1");
}

TEST(Integration, PathQueryEndToEnd) {
  ShardedBipsSimulation sim(mobility::Building::corridor(4),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 3);
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.active_client("alice").logged_in());
  ASSERT_TRUE(sim.active_client("bob").logged_in());
  ASSERT_EQ(sim.db_room("bob"), 3u);

  std::optional<proto::PathReply> reply;
  ASSERT_TRUE(sim.active_client("alice").find_path_to(
      "Bob", [&](const proto::PathReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kOk);
  const std::vector<std::string> want{"room-0", "room-1", "room-2", "room-3"};
  EXPECT_EQ(reply->rooms, want);
  EXPECT_DOUBLE_EQ(reply->distance, 36.0);
}

TEST(Integration, QueryForOfflineUserReportsNotLoggedIn) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  // Bob is registered at the server but his handheld never starts.
  ASSERT_TRUE(
      sim.server().registry().register_user("bob", "Bob", "pw-b", 99));
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.active_client("alice").logged_in());

  std::optional<proto::WhereIsReply> reply;
  ASSERT_TRUE(sim.active_client("alice").where_is(
      "Bob", [&](const proto::WhereIsReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kNotLoggedIn);
}

TEST(Integration, MovingDeviceIsReattributedToTheNewRoom) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  // Take manual control of the handheld's position.
  Vec2 pos = sim.building().room(0).center;
  sim.active_client("alice").device().set_position_provider(
      [&pos] { return pos; });

  sim.run_for(Duration::seconds(60));
  ASSERT_EQ(sim.db_room("alice"), 0u);

  pos = sim.building().room(1).center;  // teleport to the next room
  sim.run_for(Duration::seconds(90));
  EXPECT_EQ(sim.db_room("alice"), 1u);
  EXPECT_FALSE(sim.workstation(0).tracks(sim.active_client("alice").addr()));
  EXPECT_TRUE(sim.workstation(1).tracks(sim.active_client("alice").addr()));
}

TEST(Integration, DeviceLeavingTheBuildingBecomesAbsent) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  Vec2 pos = sim.building().room(0).center;
  sim.active_client("alice").device().set_position_provider(
      [&pos] { return pos; });
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.db_room("alice").has_value());

  pos = Vec2{500, 500};  // outside
  sim.run_for(Duration::seconds(60));
  EXPECT_FALSE(sim.db_room("alice").has_value());
  EXPECT_GE(sim.workstation(0).stats().absences_reported, 1u);
}

TEST(Integration, TrackingAccuracyWithWalkingUsers) {
  SimulationConfig cfg = fast_config();
  cfg.mobility.pause_min = Duration::seconds(20);
  cfg.mobility.pause_max = Duration::seconds(60);
  ShardedBipsSimulation sim(mobility::Building::department(),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 3);
  sim.add_user("Carol", "carol", "pw-c", 5);
  sim.enable_tracking_metrics(Duration::seconds(1));
  sim.run_for(Duration::seconds(300));

  const TrackingMetrics& m = sim.tracking();
  ASSERT_GT(m.samples, 0u);
  // Walking users are found, followed across rooms and expired when they
  // leave coverage; the DB should be right most of the time.
  EXPECT_GT(m.accuracy(), 0.55) << "correct=" << m.correct_room
                                << " absent=" << m.agree_absent
                                << " wrong=" << m.wrong_room
                                << " false_absent=" << m.false_absent
                                << " false_present=" << m.false_present;
}

TEST(Integration, PresenceTrafficIsDeltaOnly) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.run_for(Duration::seconds(120));
  // A stationary user generates the discovery presence plus the
  // connection-upgrade re-report (deduplicated at the server) and no other
  // churn -- nothing proportional to the 24 cycles that elapsed.
  EXPECT_LE(sim.workstation(0).stats().presences_reported, 3u);
  EXPECT_LE(sim.server().locations().stats().redundant_updates, 2u);
}

TEST(Integration, DeterministicUnderSameSeed) {
  auto run_one = [](std::uint64_t seed) {
    SimulationConfig cfg = fast_config();
    cfg.seed = seed;
    cfg.mobility.pause_min = Duration::seconds(10);
    cfg.mobility.pause_max = Duration::seconds(30);
    ShardedBipsSimulation sim(mobility::Building::department(),
                              ShardedConfig{.base = cfg});
    sim.add_user("Alice", "alice", "pw-a", 0);
    sim.add_user("Bob", "bob", "pw-b", 4);
    sim.enable_tracking_metrics(Duration::seconds(1));
    sim.run_for(Duration::seconds(120));
    return std::tuple{sim.tracking().samples, sim.tracking().correct_room,
                      sim.server().locations().stats().presence_updates,
                      sim.shard_simulator(0).events_executed()};
  };
  EXPECT_EQ(run_one(1234), run_one(1234));
  EXPECT_NE(run_one(1234), run_one(4321));
}

}  // namespace
}  // namespace bips::core

// ---- extended services end-to-end ------------------------------------------

namespace bips::core {
namespace {

TEST(IntegrationExt, WhoIsInEndToEnd) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 0);    // same room as alice
  sim.add_user("Carol", "carol", "pw-c", 1);
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.active_client("alice").logged_in());
  ASSERT_TRUE(sim.active_client("bob").logged_in());

  std::optional<proto::WhoIsInReply> reply;
  ASSERT_TRUE(sim.active_client("alice").who_is_in(
      "room-0", [&](const proto::WhoIsInReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kOk);
  EXPECT_EQ(reply->users, (std::vector<std::string>{"Alice", "Bob"}));
}

TEST(IntegrationExt, HistoryQueryEndToEnd) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 0);
  Vec2 bob_pos = sim.building().room(0).center;
  sim.active_client("bob").device().set_position_provider(
      [&] { return bob_pos; });

  sim.run_for(Duration::seconds(60));
  ASSERT_EQ(sim.db_room("bob"), 0u);
  const SimTime was_here = sim.shard_simulator(0).now();

  bob_pos = sim.building().room(1).center;
  sim.run_for(Duration::seconds(60));
  ASSERT_EQ(sim.db_room("bob"), 1u);

  // "Where was Bob a minute ago?"
  std::optional<proto::HistoryReply> reply;
  ASSERT_TRUE(sim.active_client("alice").where_was(
      "Bob", was_here, [&](const proto::HistoryReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kOk);
  EXPECT_TRUE(reply->was_present);
  EXPECT_EQ(reply->room, "room-0");
}

TEST(IntegrationExt, MovementSubscriptionEndToEnd) {
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 0);
  Vec2 bob_pos = sim.building().room(0).center;
  sim.active_client("bob").device().set_position_provider(
      [&] { return bob_pos; });
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.active_client("alice").logged_in());

  std::vector<proto::MovementEvent> events;
  std::optional<proto::SubscribeReply> sub_result;
  ASSERT_TRUE(sim.active_client("alice").subscribe(
      "Bob", [&](const proto::MovementEvent& ev) { events.push_back(ev); },
      [&](const proto::SubscribeReply& r) { sub_result = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(sub_result.has_value());
  EXPECT_EQ(sub_result->status, proto::QueryStatus::kOk);

  // Bob moves next door; alice's handheld hears about it.
  bob_pos = sim.building().room(1).center;
  sim.run_for(Duration::seconds(90));
  ASSERT_FALSE(events.empty());
  bool entered_room1 = false;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.target_user, "Bob");
    if (ev.entered && ev.room == "room-1") entered_room1 = true;
  }
  EXPECT_TRUE(entered_room1);

  // After unsubscribing the stream stops.
  ASSERT_TRUE(sim.active_client("alice").unsubscribe("Bob"));
  sim.run_for(Duration::seconds(2));
  const auto count = events.size();
  bob_pos = sim.building().room(0).center;
  sim.run_for(Duration::seconds(90));
  EXPECT_EQ(events.size(), count);
}

TEST(IntegrationExt, PresenceStreamSurvivesLossyLan) {
  SimulationConfig cfg = fast_config();
  cfg.lan.loss = 0.4;  // drop 40% of every datagram, both directions
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  Vec2 pos = sim.building().room(0).center;
  sim.active_client("alice").device().set_position_provider(
      [&pos] { return pos; });

  sim.run_for(Duration::seconds(90));
  ASSERT_EQ(sim.db_room("alice"), 0u);

  pos = sim.building().room(1).center;
  sim.run_for(Duration::seconds(120));
  EXPECT_EQ(sim.db_room("alice"), 1u);
  // Retransmissions actually happened (the loss was real) and were
  // deduplicated at the server.
  const auto retx = sim.workstation(0).stats().retransmissions +
                    sim.workstation(1).stats().retransmissions;
  EXPECT_GT(retx, 0u);
  // Everything eventually acked.
  EXPECT_EQ(sim.workstation(0).unacked_updates(), 0u);
  EXPECT_EQ(sim.workstation(1).unacked_updates(), 0u);
}

TEST(IntegrationExt, PresenceStreamQuiescesOnReliableLan) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.run_for(Duration::seconds(120));
  EXPECT_EQ(sim.workstation(0).stats().retransmissions, 0u);
  EXPECT_EQ(sim.workstation(0).unacked_updates(), 0u);
}

}  // namespace
}  // namespace bips::core

// ---- deployment features: staggered inquiry, CSV audit trail ---------------

namespace bips::core {
namespace {

TEST(IntegrationExt, StaggeredInquirySlotsNeverOverlap) {
  SimulationConfig cfg = fast_config();
  cfg.stagger_inquiry = true;  // 2 stations, cycle 5.12, inquiry 2.56:
                               // offsets 0 and 2.56 -> complementary slots
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.start();
  int samples_both = 0, samples_any = 0;
  for (int i = 0; i < 400; ++i) {
    sim.run_for(Duration::millis(100));
    const bool a = sim.workstation(0).scheduler().in_inquiry_phase();
    const bool b = sim.workstation(1).scheduler().in_inquiry_phase();
    if (a && b) ++samples_both;
    if (a || b) ++samples_any;
  }
  EXPECT_EQ(samples_both, 0);
  EXPECT_GT(samples_any, 300);  // 50% duty each, complementary -> ~always
}

TEST(IntegrationExt, SynchronizedInquirySlotsDoOverlap) {
  SimulationConfig cfg = fast_config();
  cfg.stagger_inquiry = false;
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.start();
  int samples_both = 0;
  for (int i = 0; i < 100; ++i) {
    sim.run_for(Duration::millis(100));
    if (sim.workstation(0).scheduler().in_inquiry_phase() &&
        sim.workstation(1).scheduler().in_inquiry_phase()) {
      ++samples_both;
    }
  }
  EXPECT_GT(samples_both, 30);
}

TEST(IntegrationExt, HistoryCsvExport) {
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = fast_config()});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.db_room("alice").has_value());

  std::ostringstream os;
  sim.write_history_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_s,user,device,room,event"), std::string::npos);
  EXPECT_NE(csv.find("alice"), std::string::npos);
  EXPECT_NE(csv.find("room-0"), std::string::npos);
  EXPECT_NE(csv.find("enter"), std::string::npos);
  // One line per history entry + header.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            sim.server().locations().history().size() + 1);
}

}  // namespace
}  // namespace bips::core

// ---- park mode at deployment scale -----------------------------------------

namespace bips::core {
namespace {

TEST(IntegrationExt, TwentyUsersInOneRoomAllTracked) {
  // More users than AM_ADDRs: park mode must carry the overflow.
  SimulationConfig cfg = fast_config();
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = cfg});
  for (int i = 0; i < 20; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 0);
  }
  sim.run_for(Duration::seconds(240));

  int logged_in = 0, tracked = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string id = "u" + std::to_string(i);
    if (sim.active_client(id).logged_in()) ++logged_in;
    if (sim.db_room(id) == 0u) ++tracked;
  }
  EXPECT_GE(logged_in, 18);  // allow a couple of slow enrollments
  EXPECT_GE(tracked, 18);
  // The AM_ADDR limit was respected throughout.
  EXPECT_LE(sim.workstation(0).scheduler().piconet().active_count(), 7u);
  EXPECT_GT(sim.workstation(0).scheduler().piconet().parked_count(), 5u);
  EXPECT_GT(sim.workstation(0).scheduler().piconet().stats().parks, 0u);
}

TEST(IntegrationExt, ParkedClientCanStillQuery) {
  SimulationConfig cfg = fast_config();
  ShardedBipsSimulation sim(mobility::Building::corridor(2),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw-a", 0);
  sim.add_user("Bob", "bob", "pw-b", 1);
  sim.run_for(Duration::seconds(60));
  ASSERT_TRUE(sim.active_client("alice").logged_in());
  // Alice has been parked after login (the default policy).
  ASSERT_TRUE(sim.active_client("alice").link().parked());

  std::optional<proto::WhereIsReply> reply;
  ASSERT_TRUE(sim.active_client("alice").where_is(
      "Bob", [&](const proto::WhereIsReply& r) { reply = r; }));
  sim.run_for(Duration::seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, proto::QueryStatus::kOk);
  EXPECT_EQ(reply->room, "room-1");
}

}  // namespace
}  // namespace bips::core

// ---- interlaced handhelds at deployment scale -------------------------------

namespace bips::core {
namespace {

TEST(IntegrationExt, InterlacedHandheldsEnrollFromEitherTrain) {
  // With classic scanning, a short inquiry slot restarting on train A keeps
  // missing devices whose scan channel sits in train B; interlaced
  // handhelds are reachable from both trains in every window.
  SimulationConfig cfg = fast_config();
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(1.28);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.slave.inquiry_scan.interlaced = true;
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = cfg});
  for (int i = 0; i < 6; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 0);
  }
  sim.run_for(Duration::seconds(90));
  int logged_in = 0;
  for (int i = 0; i < 6; ++i) {
    if (sim.active_client("u" + std::to_string(i)).logged_in()) ++logged_in;
  }
  EXPECT_EQ(logged_in, 6);
}

}  // namespace
}  // namespace bips::core

// ---- workstation crash and recovery -----------------------------------------

namespace bips::core {
namespace {

TEST(IntegrationExt, CrashedWorkstationExpiresAndRecoversOnRestart) {
  SimulationConfig cfg = fast_config();
  cfg.server.station_timeout = Duration::seconds(10);
  cfg.server.sweep_period = Duration::seconds(2);
  ShardedBipsSimulation sim(mobility::Building::corridor(1),
                            ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", 0);
  sim.run_for(Duration::seconds(60));
  ASSERT_EQ(sim.db_room("alice"), 0u);
  ASSERT_TRUE(sim.active_client("alice").connected());

  // The room's workstation dies.
  sim.workstation(0).crash();
  sim.run_for(Duration::seconds(20));
  // The handheld saw its link drop and is scanning again; the server's
  // failure detector expired the stale presence record.
  EXPECT_FALSE(sim.active_client("alice").connected());
  EXPECT_FALSE(sim.db_room("alice").has_value());
  EXPECT_GE(
      sim.metric_sum("server.stations_expired"),
      1u);

  // Power restored: the device is re-discovered, re-enrolled, re-tracked.
  sim.workstation(0).restart();
  sim.run_for(Duration::seconds(60));
  EXPECT_TRUE(sim.active_client("alice").connected());
  EXPECT_EQ(sim.db_room("alice"), 0u);
  EXPECT_TRUE(sim.active_client("alice").logged_in());  // session survived
}

TEST(IntegrationExt, NeighbourCoversForACrashedStation) {
  // Two overlapping rooms; the device sits in the overlap. When its
  // serving workstation dies, the neighbour's suppressed claim (or fresh
  // rediscovery) takes over.
  SimulationConfig cfg = fast_config();
  cfg.server.station_timeout = Duration::seconds(10);
  cfg.server.sweep_period = Duration::seconds(2);
  cfg.stagger_inquiry = true;  // overlapping piconets must not collide
  mobility::Building b;
  const auto left = b.add_room("left", {0, 0});
  const auto right = b.add_room("right", {8, 0});
  b.connect(left, right);
  ShardedBipsSimulation sim(std::move(b), ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw", left);
  sim.set_position_provider("alice", [] { return Vec2{4, 0}; });
  sim.run_for(Duration::seconds(60));
  const auto before = sim.db_room("alice");
  ASSERT_TRUE(before.has_value());

  sim.workstation(*before).crash();
  sim.run_for(Duration::seconds(60));
  const auto after = sim.db_room("alice");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);  // the surviving neighbour owns her now
}

}  // namespace
}  // namespace bips::core
