// Scenario demo: "visualize on your handheld the shortest path to reach
// another mobile user inside the same building" -- the BIPS headline
// feature, driven entirely through the handheld-side client API (queries
// travel handheld -> workstation -> server and back over the simulated
// piconet + LAN).
//
//   $ ./find_colleague
#include <cstdio>

#include "src/core/parallel.hpp"

using namespace bips;

namespace {

void render_handheld(const proto::PathReply& r) {
  std::printf("  +--------------------------------------+\n");
  std::printf("  |  BIPS  - find colleague              |\n");
  if (r.status != proto::QueryStatus::kOk) {
    std::printf("  |  %-36s|\n", proto::to_string(r.status));
  } else {
    std::printf("  |  %.0f m to go:%-24s|\n", r.distance, "");
    for (std::size_t i = 0; i < r.rooms.size(); ++i) {
      std::printf("  |   %s %-33s|\n", i + 1 == r.rooms.size() ? "*" : "v",
                  r.rooms[i].c_str());
    }
  }
  std::printf("  +--------------------------------------+\n");
}

}  // namespace

int main() {
  core::SimulationConfig cfg;
  cfg.seed = 7;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.mobility.pause_min = Duration::seconds(10'000);  // scripted movement
  cfg.mobility.pause_max = Duration::seconds(20'000);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  sim.add_user("Alice", "alice", "pw-a", *sim.building().find("lobby"));
  sim.add_user("Bob", "bob", "pw-b", *sim.building().find("seminar-room"));
  core::BipsClient& alice = sim.active_client("alice");
  core::BipsClient& bob = sim.active_client("bob");

  // Bob's handheld position is scripted so the story is deterministic.
  Vec2 bob_pos = sim.building().room(*sim.building().find("seminar-room")).center;
  bob.device().set_position_provider([&] { return bob_pos; });

  std::printf("enrolling both handhelds...\n");
  sim.run_for(Duration::seconds(60));
  std::printf("  alice: connected=%d logged_in=%d\n", alice.connected(),
              alice.logged_in());
  std::printf("  bob:   connected=%d logged_in=%d\n\n",
              bob.connected(), bob.logged_in());

  // Alice asks her handheld for the way to Bob.
  std::printf("alice (in the lobby) searches for Bob:\n");
  bool done = false;
  alice.find_path_to("Bob", [&](const proto::PathReply& r) {
    render_handheld(r);
    done = true;
  });
  sim.run_for(Duration::seconds(2));
  if (!done) std::printf("  (no reply -- not connected?)\n");

  // Bob wanders off to the networks lab; BIPS notices the move on its own.
  std::printf("\nBob walks to lab-networks; waiting for BIPS to re-track "
              "him...\n\n");
  bob_pos = sim.building().room(*sim.building().find("lab-networks")).center;
  sim.run_for(Duration::seconds(45));

  std::printf("alice asks again:\n");
  done = false;
  alice.find_path_to("Bob", [&](const proto::PathReply& r) {
    render_handheld(r);
    done = true;
  });
  sim.run_for(Duration::seconds(2));
  if (!done) std::printf("  (no reply -- not connected?)\n");

  // And the failure modes a real user would see:
  std::printf("\nalice searches for someone who never logged in:\n");
  sim.server().registry().register_user("carol", "Carol", "pw-c", 3);
  alice.find_path_to("Carol", [&](const proto::PathReply& r) {
    render_handheld(r);
  });
  sim.run_for(Duration::seconds(2));

  std::printf("\nalice searches for an unknown name:\n");
  alice.find_path_to("Mallory", [&](const proto::PathReply& r) {
    render_handheld(r);
  });
  sim.run_for(Duration::seconds(2));

  // The same answers through the server's unified query API -- the operator
  // console view, no handheld round trip. One Query type covers every
  // lookup the handheld flows above exercised piecemeal.
  using Query = core::BipsServer::Query;
  std::printf("\noperator console, via BipsServer::query():\n");
  const auto where = sim.server().query(Query::where_is("", "Bob"));
  std::printf("  where-is Bob: %s%s\n", proto::to_string(where.status),
              where.ok() ? (" -> " + where.room).c_str() : "");
  const auto path = sim.server().query(Query::path_to(
      "alice", "Bob",
      static_cast<core::StationId>(*sim.building().find("lobby"))));
  if (path.ok()) {
    std::printf("  path-to Bob from the lobby: %.0f m via", path.distance);
    for (const auto& room : path.rooms) std::printf(" %s", room.c_str());
    std::printf("\n");
  } else {
    std::printf("  path-to Bob: %s\n", proto::to_string(path.status));
  }
  return 0;
}
