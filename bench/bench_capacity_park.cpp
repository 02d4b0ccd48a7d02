// Experiment A6 -- room capacity: enrollment at populations far beyond the
// AM_ADDR limit.
//
// A piconet holds 7 active slaves; the paper sizes discovery for "up to 20
// slaves" in one room but never says how a master *serves* them. Park mode
// is the answer: enrolled links give up their AM_ADDR and the poll loop
// rotates waiters through the active set. This bench loads one room with
// N handhelds and measures how long full enrollment takes and what the
// piconet membership looks like.
#include "bench/harness.hpp"

#include "src/core/parallel.hpp"

namespace bips::bench {
namespace {

struct Outcome {
  double all_logged_in_s = -1;  // time until every user has a session
  std::size_t active = 0, parked = 0;
  std::uint64_t parks = 0, unparks = 0;
  double mean_login_s = 0;
};

Outcome run_once(int n_users) {
  core::SimulationConfig cfg;
  cfg.seed = 0xA6'0000 + static_cast<std::uint64_t>(n_users);
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.mobility.pause_min = Duration::seconds(100'000);
  cfg.mobility.pause_max = Duration::seconds(200'000);

  core::ShardedBipsSimulation sim(mobility::Building::corridor(1),
                                  core::ShardedConfig{.base = cfg});
  for (int i = 0; i < n_users; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 0);
  }

  Outcome o;
  RunningStats login_times;
  std::vector<bool> counted(static_cast<std::size_t>(n_users), false);
  const double horizon = 600;
  for (double t = 1; t <= horizon; t += 1) {
    sim.run_for(Duration::seconds(1));
    int logged = 0;
    for (int i = 0; i < n_users; ++i) {
      if (sim.active_client("u" + std::to_string(i)).logged_in()) {
        ++logged;
        if (!counted[static_cast<std::size_t>(i)]) {
          counted[static_cast<std::size_t>(i)] = true;
          login_times.add(t);
        }
      }
    }
    if (logged == n_users) {
      o.all_logged_in_s = t;
      break;
    }
  }
  auto& pico = sim.workstation(0).scheduler().piconet();
  o.active = pico.active_count();
  o.parked = pico.parked_count();
  o.parks = pico.stats().parks;
  o.unparks = pico.stats().unparks;
  o.mean_login_s = login_times.mean();
  return o;
}

int run() {
  print_header("A6",
               "Room capacity with park mode: one piconet, N enrolling "
               "users (AM_ADDR limit: 7 active)");
  TableWriter table({"users", "all enrolled by", "mean login time",
                     "active", "parked", "park ops"});
  for (int n : {3, 7, 10, 20, 40}) {
    const Outcome o = run_once(n);
    table.add_row({std::to_string(n),
                   o.all_logged_in_s < 0 ? "(>600 s)"
                                         : fmt(o.all_logged_in_s, 0) + " s",
                   fmt(o.mean_login_s, 1) + " s", std::to_string(o.active),
                   std::to_string(o.parked),
                   std::to_string(o.parks) + "/" + std::to_string(o.unparks)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "reading: beyond 7 users the active set saturates and park mode\n"
      "carries the overflow; enrollment time grows with population (the\n"
      "pager serves one page at a time per service phase) but the room\n"
      "never stops admitting members.\n");
  return 0;
}

}  // namespace
}  // namespace bips::bench

int main() { return bips::bench::run(); }
