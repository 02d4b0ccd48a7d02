// Quickstart: the smallest complete BIPS deployment.
//
// Two rooms, two registered users, one central server. We let the system
// run for a simulated minute -- long enough for the workstations to
// discover, page, enroll and log in both handhelds -- then ask the location
// service where everyone is.
//
//   $ ./quickstart
#include <cstdio>

#include "src/core/parallel.hpp"

using namespace bips;

int main() {
  // 1. Describe the building: one workstation (piconet master) per room.
  mobility::Building building;
  const auto office = building.add_room("office", {0, 0});
  const auto lab = building.add_room("lab", {14, 0});
  building.connect(office, lab);

  // 2. Configure the deployment. Defaults follow the paper: 10 m piconets,
  //    3.84 s inquiry slot inside a 15.4 s operational cycle.
  core::SimulationConfig cfg;
  cfg.seed = 2003;  // ICDCS 2003 -- any seed reproduces bit-identically
  cfg.mobility.pause_min = Duration::seconds(1'000);  // stay put for the demo
  cfg.mobility.pause_max = Duration::seconds(2'000);

  core::ShardedBipsSimulation sim(std::move(building),
                                  core::ShardedConfig{.base = cfg});

  // 3. Register users (the paper's off-line registration procedure) and
  //    hand them their Bluetooth handhelds.
  sim.add_user("Alice", "alice", "alice-pw", office);
  sim.add_user("Bob", "bob", "bob-pw", lab);

  // 4. Run: discovery -> paging -> enrollment -> login, all simulated.
  sim.run_for(Duration::seconds(60));

  std::printf("after 60 simulated seconds:\n");
  for (const char* user : {"alice", "bob"}) {
    const auto& client = sim.active_client(user);
    const auto room = sim.db_room(user);
    std::printf("  %-5s connected=%d logged_in=%d room=%s\n", user,
                client.connected() ? 1 : 0, client.logged_in() ? 1 : 0,
                room ? sim.building().room(*room).name.c_str() : "(unknown)");
  }

  // 5. The paper's spatio-temporal query, served by the central server's
  //    unified Query API (one entry point for every lookup kind).
  using Query = core::BipsServer::Query;
  const auto reply = sim.server().query(Query::where_is("alice", "Bob"));
  std::printf("\nalice asks: where is Bob?  ->  status=%s room=%s\n",
              proto::to_string(reply.status), reply.room.c_str());

  // 6. And the headline feature: the shortest path to reach him.
  const auto path = sim.server().query(Query::path_to("alice", "Bob", office));
  std::printf("shortest path: ");
  for (std::size_t i = 0; i < path.rooms.size(); ++i) {
    std::printf("%s%s", i ? " -> " : "", path.rooms[i].c_str());
  }
  std::printf("  (%.0f m)\n", path.distance);
  return 0;
}
