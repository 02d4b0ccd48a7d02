// Extended-services demo: movement subscriptions, who-is-in, and temporal
// ("where was X at time T") queries -- the service layer a deployment would
// build on top of the paper's core tracking, all driven from a handheld.
//
// Also dumps the location database's transition history as CSV at the end
// (the audit trail / plotting hand-off).
//
//   $ ./office_watch
#include <cstdio>
#include <sstream>

#include "src/core/parallel.hpp"

using namespace bips;

int main() {
  core::SimulationConfig cfg;
  cfg.seed = 11;
  cfg.stagger_inquiry = true;  // neighbourly piconets
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.mobility.pause_min = Duration::seconds(10'000);  // scripted movement
  cfg.mobility.pause_max = Duration::seconds(20'000);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw-a", *sim.building().find("office-a"));
  sim.add_user("Bob", "bob", "pw-b", *sim.building().find("lobby"));
  sim.add_user("Carol", "carol", "pw-c", *sim.building().find("lobby"));
  core::BipsClient& alice = sim.active_client("alice");

  Vec2 bob_pos = sim.building().room(*sim.building().find("lobby")).center;
  sim.active_client("bob").device().set_position_provider(
      [&] { return bob_pos; });

  std::printf("enrolling the floor...\n");
  sim.run_for(Duration::seconds(60));

  // Alice watches Bob.
  std::printf("\nalice subscribes to Bob's movements:\n");
  alice.subscribe(
      "Bob",
      [&](const proto::MovementEvent& ev) {
        std::printf("  [%7.2f s] notification: Bob %s %s\n",
                    Duration::nanos(ev.timestamp_ns).to_seconds(),
                    ev.entered ? "entered" : "left", ev.room.c_str());
      },
      [](const proto::SubscribeReply& r) {
        std::printf("  subscription: %s\n", proto::to_string(r.status));
      });
  sim.run_for(Duration::seconds(2));

  const SimTime before_move = sim.shard_simulator(0).now();

  // Bob does a coffee run: lobby -> admin-office -> lobby.
  std::printf("\nBob wanders to the admin office and back...\n");
  bob_pos = sim.building().room(*sim.building().find("admin-office")).center;
  sim.run_for(Duration::seconds(40));
  bob_pos = sim.building().room(*sim.building().find("lobby")).center;
  sim.run_for(Duration::seconds(40));

  // Who shares the lobby with Bob right now?
  std::printf("\nalice asks who is in the lobby:\n");
  alice.who_is_in("lobby", [](const proto::WhoIsInReply& r) {
    std::printf("  lobby occupants (%s):", proto::to_string(r.status));
    for (const auto& u : r.users) std::printf(" %s", u.c_str());
    std::printf("\n");
  });
  sim.run_for(Duration::seconds(2));

  // And the temporal query: where was Bob before his walk?
  std::printf("\nalice asks where Bob was at t=%.0f s:\n",
              before_move.to_seconds());
  alice.where_was(
      "Bob", before_move, [&](const proto::HistoryReply& r) {
        if (r.was_present) {
          std::printf("  Bob was in %s (since %.2f s)\n", r.room.c_str(),
                      Duration::nanos(r.since_ns).to_seconds());
        } else {
          std::printf("  Bob was not attributed to any room (%s)\n",
                      proto::to_string(r.status));
        }
      });
  sim.run_for(Duration::seconds(6));

  // Privacy: Carol opts out of being located; she vanishes from queries.
  std::printf("\ncarol opts out of location queries; alice asks again:\n");
  sim.server().registry().set_locatable_by_anyone("carol", false);
  alice.who_is_in("lobby", [](const proto::WhoIsInReply& r) {
    std::printf("  lobby occupants (%s):", proto::to_string(r.status));
    for (const auto& u : r.users) std::printf(" %s", u.c_str());
    std::printf("\n");
  });
  sim.run_for(Duration::seconds(2));

  // The audit trail, through the server's unified query API: every
  // transition of Bob's handheld since just before his coffee run, as one
  // history-since query (the same data the CSV dump below carries, but
  // filtered, permission-checked and chronological).
  using Query = core::BipsServer::Query;
  const auto hist =
      sim.server().query(Query::history_since("alice", "Bob", before_move));
  std::printf("\nBob's movements since t=%.0f s (BipsServer::query):\n",
              before_move.to_seconds());
  if (!hist.ok()) {
    std::printf("  %s\n", proto::to_string(hist.status));
  } else if (hist.visits.empty()) {
    std::printf("  (no transitions recorded)\n");
  }
  for (const auto& v : hist.visits) {
    std::printf("  [%7.2f s] Bob %s %s\n", v.at.to_seconds(),
                v.entered ? "entered" : "left", v.room.c_str());
  }

  // The raw audit trail.
  std::ostringstream csv;
  sim.write_history_csv(csv);
  std::printf("\nlocation-database transition log (CSV):\n%s",
              csv.str().c_str());
  return 0;
}
