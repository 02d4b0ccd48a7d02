// Convergence workload: the whole floor walks to a staff meeting.
//
// Eight users with agendas converge on the seminar room at t = 120 s --
// more people than one piconet has AM_ADDRs (7), so the workstation must
// park enrolled links to keep tracking everyone. Shows:
//   * who-is-in before, during and after the meeting,
//   * the seminar-room piconet's active/parked membership,
//   * the floor map with everyone clustered.
//
//   $ ./staff_meeting
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/mobility/render.hpp"

using namespace bips;

namespace {

void print_roll_call(core::ShardedBipsSimulation& sim, const char* when) {
  const auto rep = sim.server().query(
      core::BipsServer::Query::who_is_in("", "seminar-room"));
  std::printf("%-22s seminar-room holds %zu:", when, rep.users.size());
  for (const auto& u : rep.users) std::printf(" %s", u.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  core::SimulationConfig cfg;
  cfg.seed = 5;
  cfg.stagger_inquiry = true;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  const mobility::RoomId seminar = *sim.building().find("seminar-room");
  const char* names[] = {"Alice", "Bob",  "Carol", "Dave",
                         "Erin",  "Frank", "Grace", "Heidi"};

  std::vector<std::unique_ptr<mobility::AgendaAgent>> agendas;
  for (int i = 0; i < 8; ++i) {
    const std::string userid = "u" + std::to_string(i);
    const auto start =
        static_cast<mobility::RoomId>(i % sim.building().room_count());
    sim.add_user(names[i], userid, "pw", start);
    // Everyone's calendar says: seminar room, t = 120 s.
    agendas.push_back(std::make_unique<mobility::AgendaAgent>(
        sim.shard_simulator(0), sim.building(), sim.server().paths(),
        Rng(900 + i), start,
        std::vector<mobility::AgendaAgent::Appointment>{
            {SimTime(Duration::seconds(120).ns()), seminar}}));
    mobility::AgendaAgent* agent = agendas.back().get();
    sim.set_position_provider(userid, [agent] { return agent->position(); });
  }
  sim.start();
  for (auto& a : agendas) a->start();

  std::printf("enrolling the floor (meeting at t=120 s)...\n\n");
  sim.run_for(Duration::seconds(110));
  print_roll_call(sim, "t=110 s (before):");

  sim.run_for(Duration::seconds(150));  // everyone walks + gets re-tracked
  print_roll_call(sim, "t=260 s (meeting):");

  auto& pico = sim.workstation(seminar).scheduler().piconet();
  std::printf("\nseminar-room piconet: %zu members = %zu active + %zu "
              "parked (AM_ADDR limit: 7)\n",
              pico.slave_count(), pico.active_count(), pico.parked_count());
  std::printf("park/unpark operations so far: %llu/%llu\n",
              static_cast<unsigned long long>(pico.stats().parks),
              static_cast<unsigned long long>(pico.stats().unparks));

  std::vector<mobility::Marker> markers;
  char glyph = 'a';
  for (int i = 0; i < 8; ++i) {
    markers.push_back({glyph++, agendas[i]->position()});
  }
  mobility::RenderOptions ropts;
  ropts.meters_per_cell = 1.5;
  std::printf("\nfloor map during the meeting (users a..h; co-located\nmarkers overdraw each other at the seminar room):\n%s",
              mobility::render_map(sim.building(), markers, ropts).c_str());

  // The meeting ends: everyone wanders back to their desks by agenda-free
  // scripted dispersal (walk home = reverse appointment).
  std::printf("\nmeeting over; everyone returns...\n");
  std::vector<std::unique_ptr<mobility::AgendaAgent>> returns;
  for (int i = 0; i < 8; ++i) {
    const auto home =
        static_cast<mobility::RoomId>(i % sim.building().room_count());
    returns.push_back(std::make_unique<mobility::AgendaAgent>(
        sim.shard_simulator(0), sim.building(), sim.server().paths(),
        Rng(950 + i), seminar,
        std::vector<mobility::AgendaAgent::Appointment>{
            {sim.shard_simulator(0).now() + Duration::seconds(5), home}}));
    mobility::AgendaAgent* agent = returns.back().get();
    sim.set_position_provider("u" + std::to_string(i),
                              [agent] { return agent->position(); });
    agent->start();
  }
  sim.run_for(Duration::seconds(120));
  print_roll_call(sim, "t=380 s (after):");
  return 0;
}
