// Ablation A4 -- coordinated inquiry schedules for overlapping piconets.
//
// The paper places one workstation per room and sizes each master's cycle
// independently; it never asks what happens where coverage circles overlap.
// There, two masters inquiring *simultaneously* interfere: their ID packets
// collide at devices in the overlap region, and simultaneous FHS responses
// to different masters collide too. Because all workstations hang off one
// LAN, a deployment can trivially stagger their operational cycles. This
// bench measures what that buys.
//
// Setup: two workstations only 8 m apart (10 m radius -> a large overlap
// lens), six handhelds standing in the middle of the overlap, full BIPS
// stack. Metric: how quickly each device first appears in the location
// database, and the radio collision count.
#include "bench/harness.hpp"

#include "src/core/parallel.hpp"

namespace bips::bench {
namespace {

constexpr int kUsers = 6;
constexpr int kRuns = 15;
constexpr double kHorizon = 120.0;

struct Outcome {
  SampleSet first_seen;    // seconds until a device first hits the DB
  RunningStats collisions; // radio collisions per run
  std::size_t never_seen = 0;
};

Outcome run_mode(bool staggered) {
  Outcome o;
  for (int r = 0; r < kRuns; ++r) {
    mobility::Building b;
    const auto left = b.add_room("left", {0, 0});
    const auto right = b.add_room("right", {8, 0});
    b.connect(left, right);

    core::SimulationConfig cfg;
    cfg.seed = 0xA4'0000 + static_cast<std::uint64_t>(r) * 7 +
               (staggered ? 1 : 0) * 1000;
    cfg.stagger_inquiry = staggered;
    cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
    cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
    cfg.mobility.pause_min = Duration::seconds(100'000);
    cfg.mobility.pause_max = Duration::seconds(200'000);

    core::ShardedBipsSimulation sim(std::move(b),
                                    core::ShardedConfig{.base = cfg});
    std::vector<std::string> ids;
    for (int i = 0; i < kUsers; ++i) {
      const std::string id = "u" + std::to_string(i);
      sim.add_user("User " + std::to_string(i), id, "pw", left);
      ids.push_back(id);
    }
    // Everyone stands in the middle of the overlap lens.
    for (const auto& id : ids) {
      sim.active_client(id).device().set_position_provider(
          [] { return Vec2{4, 0}; });
    }
    sim.run_for(Duration::from_seconds(kHorizon));

    for (const auto& id : ids) {
      const std::uint64_t addr = sim.active_client(id).addr().raw();
      double first = -1;
      for (const auto& t : sim.server().locations().history()) {
        if (t.bd_addr == addr && t.present) {
          first = t.at.to_seconds();
          break;
        }
      }
      if (first < 0) {
        ++o.never_seen;
      } else {
        o.first_seen.add(first);
      }
    }
    o.collisions.add(static_cast<double>(
        sim.metric_sum("radio.collisions")));
  }
  return o;
}

int run() {
  print_header("A4",
               "Ablation: staggered vs synchronized inquiry in a coverage "
               "overlap (2 masters 8 m apart, 6 devices in the lens)");
  TableWriter table({"schedule", "mean first-seen (s)", "p95 first-seen (s)",
                     "never seen", "radio collisions/run"});
  for (const bool staggered : {false, true}) {
    const Outcome o = run_mode(staggered);
    table.add_row({staggered ? "staggered (cycle/2 offset)" : "synchronized",
                   fmt(o.first_seen.mean(), 2),
                   fmt(o.first_seen.percentile(95), 2),
                   std::to_string(o.never_seen),
                   fmt(o.collisions.mean(), 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "reading: synchronized inquiry slots collide in the overlap lens\n"
      "(ID/ID and FHS/FHS interference) and slow first contact; a cycle/2\n"
      "offset removes the contention for free over the shared LAN.\n");
  return 0;
}

}  // namespace
}  // namespace bips::bench

int main() { return bips::bench::run(); }
