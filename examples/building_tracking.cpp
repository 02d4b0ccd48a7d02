// Building-scale tracking demo: the full BIPS deployment of the paper's
// Figure 1 on the 10-room academic-department floor plan, with six users
// walking between rooms for ten simulated minutes.
//
// Streams the presence transitions the central location database records
// through the server's subscription hub -- one in-process room
// subscription per piconet, so every delta is pushed to us the instant
// the server applies it. The hub's cost model makes this the cheap way
// to watch a building: the server does one fan-out per presence *delta*
// (people move a few times a minute), where the old pattern -- re-polling
// the history after every run_for slice -- paid per poll regardless of
// whether anything moved. Ends with a tracking scorecard against mobility
// ground truth.
//
//   $ ./building_tracking
#include <cstdio>

#include "src/core/parallel.hpp"
#include "src/mobility/render.hpp"

using namespace bips;

int main() {
  core::SimulationConfig cfg;
  cfg.seed = 42;
  // The paper's operational cycle: 3.84 s of discovery per 15.4 s.
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(3.84);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(15.4);
  cfg.mobility.pause_min = Duration::seconds(20);
  cfg.mobility.pause_max = Duration::seconds(120);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  const struct {
    const char* name;
    const char* userid;
    const char* room;
  } users[] = {
      {"Alice", "alice", "office-a"},   {"Bob", "bob", "lab-networks"},
      {"Carol", "carol", "library"},    {"Dave", "dave", "lobby"},
      {"Erin", "erin", "seminar-room"}, {"Frank", "frank", "coffee-corner"},
  };
  for (const auto& u : users) {
    sim.add_user(u.name, u.userid, std::string(u.userid) + "-pw",
                 *sim.building().find(u.room));
  }
  sim.enable_tracking_metrics(Duration::seconds(1));

  // One in-process room subscription per piconet: the server pushes every
  // presence delta to us as it lands. Registration cost is paid once;
  // after that the hub does a single fan-out per delta -- nothing scales
  // with how often (or whether) we would have polled.
  for (core::StationId s = 0;
       s < static_cast<core::StationId>(sim.workstation_count()); ++s) {
    sim.server().subscriptions().subscribe_room(
        s, [](const core::SubscriptionHub::Event& ev) {
          std::printf("[%7.2f s] %-6s %s %s\n", ev.at.to_seconds(),
                      ev.user.c_str(), ev.entered ? "entered" : "left   ",
                      ev.room.c_str());
        });
  }

  std::printf("running 600 simulated seconds across %zu piconets...\n\n",
              sim.workstation_count());
  sim.run_for(Duration::seconds(600));

  // A snapshot of the floor: workstations '#', users a..f.
  std::vector<mobility::Marker> markers;
  char glyph = 'a';
  for (const auto& u : users) {
    markers.push_back({glyph++, sim.active_agent(u.userid).position()});
  }
  mobility::RenderOptions ropts;
  ropts.meters_per_cell = 1.5;
  std::printf("\n--- floor map at t=600 s (users a..f) ---\n%s",
              mobility::render_map(sim.building(), markers, ropts).c_str());

  std::printf("\n--- where is everyone (location database) ---\n");
  for (const auto& u : users) {
    const auto reply =
        sim.server().query(core::BipsServer::Query::where_is("", u.name));
    const auto truth = sim.true_room(u.userid);
    std::printf("  %-6s db=%-14s truth=%s\n", u.name,
                reply.status == proto::QueryStatus::kOk ? reply.room.c_str()
                                                        : to_string(reply.status),
                truth != mobility::kNoRoom
                    ? sim.building().room(truth).name.c_str()
                    : "(between rooms)");
  }

  const core::TrackingMetrics& m = sim.tracking();
  std::printf("\n--- tracking scorecard (1 Hz samples, logged-in users) ---\n");
  std::printf("  samples        %8llu\n",
              static_cast<unsigned long long>(m.samples));
  std::printf("  correct room   %8llu\n",
              static_cast<unsigned long long>(m.correct_room));
  std::printf("  agree absent   %8llu\n",
              static_cast<unsigned long long>(m.agree_absent));
  std::printf("  wrong room     %8llu\n",
              static_cast<unsigned long long>(m.wrong_room));
  std::printf("  false absent   %8llu\n",
              static_cast<unsigned long long>(m.false_absent));
  std::printf("  false present  %8llu\n",
              static_cast<unsigned long long>(m.false_present));
  std::printf("  accuracy       %7.1f%%\n", 100.0 * m.accuracy());

  std::printf("\n--- LAN cost of the delta-update policy ---\n");
  std::printf("  presence updates applied: %llu, redundant: %llu\n",
              static_cast<unsigned long long>(
                  sim.server().locations().stats().presence_updates),
              static_cast<unsigned long long>(
                  sim.server().locations().stats().redundant_updates));
  return 0;
}
