// Operations drill: what happens when the server dies? And a workstation?
//
// Runs the department deployment and power-cuts the central server
// mid-meeting: sessions, presence and history all die with it. On restart
// it comes back with a fresh epoch and broadcasts a SyncRequest; the
// workstations answer with full SyncSnapshots (tracked devices plus their
// witnessed userid<->device bindings), so the location database reconverges
// in seconds and no handheld ever has to re-login. Then the drill kills the
// seminar-room workstation and narrates that recovery too: link losses at
// the handhelds, the server's failure detector expiring the dead station's
// records, and full re-enrollment after the restart.
//
//   $ ./fault_drill
#include <cstdio>

#include "src/core/parallel.hpp"

using namespace bips;

namespace {

void report(core::ShardedBipsSimulation& sim, const char* label) {
  int logged = 0, connected = 0, located = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "u" + std::to_string(i);
    if (sim.active_client(id).logged_in()) ++logged;
    if (sim.active_client(id).connected()) ++connected;
    if (sim.db_room(id)) ++located;
  }
  std::printf("%-28s logged_in=%d/4 connected=%d/4 located=%d/4 "
              "stations_expired=%llu\n",
              label, logged, connected, located,
              static_cast<unsigned long long>(
                  sim.metric_sum("server.stations_expired")));
}

}  // namespace

int main() {
  core::SimulationConfig cfg;
  cfg.seed = 21;
  cfg.stagger_inquiry = true;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.server.station_timeout = Duration::seconds(10);
  cfg.mobility.pause_min = Duration::seconds(10'000);
  cfg.mobility.pause_max = Duration::seconds(20'000);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  const auto seminar = *sim.building().find("seminar-room");
  // Four attendees sit in the seminar room.
  for (int i = 0; i < 4; ++i) {
    sim.add_user("Attendee " + std::to_string(i), "u" + std::to_string(i),
                 "pw", seminar);
  }

  std::printf("BIPS fault drill: first the server fails, then a station.\n\n");
  sim.run_for(Duration::seconds(60));
  report(sim, "t=60 s (healthy):");

  // Act one: the server dies. Everything in memory -- sessions, presence,
  // history -- is lost; only the user registry survives.
  std::printf("\n*** power cut at the central server (epoch %u dies) ***\n\n",
              sim.server().epoch());
  sim.server().crash();
  sim.run_for(Duration::seconds(30));
  report(sim, "t=90 s (server dark):");

  std::printf("\n*** server restarted: epoch++, SyncRequest broadcast ***\n\n");
  sim.server().restart();
  sim.run_for(Duration::seconds(10));
  report(sim, "t=100 s (resynced):");
  std::printf(
      "\nepoch=%u  snapshots_received=%llu  presences_restored=%llu  "
      "sessions_restored=%llu\n",
      sim.server().epoch(),
      static_cast<unsigned long long>(sim.metric_sum("server.syncs_received")),
      static_cast<unsigned long long>(
          sim.metric_sum("server.presences_restored")),
      static_cast<unsigned long long>(
          sim.metric_sum("server.sessions_restored")));
  std::printf(
      "\nnote: the server forgot the sessions, but the workstations'\n"
      "snapshots carried their witnessed userid<->device bindings, so the\n"
      "service healed without a single re-login.\n");

  // Act two: a workstation dies instead.
  std::printf("\n*** power cut at the seminar room ***\n\n");
  sim.workstation(seminar).crash();
  sim.run_for(Duration::seconds(5));
  report(sim, "t=105 s (links dropping):");
  sim.run_for(Duration::seconds(15));
  report(sim, "t=120 s (records expired):");

  std::printf("\n*** workstation restarted ***\n\n");
  sim.workstation(seminar).restart();
  sim.run_for(Duration::seconds(60));
  report(sim, "t=180 s (recovered):");

  std::printf("\nnote: this time the sessions survived untouched (they live\n"
              "at the server); only presence needed healing.\n");
  return 0;
}
