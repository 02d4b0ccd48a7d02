// Experiment S5 -- subscription fan-out vs per-watcher polling.
//
// The paper's office-watch clients poll: every watcher asks where-is once
// per sweep, so the server pays watchers x sweeps queries whether anyone
// moved or not. The subscription API inverts that: the server fans each
// presence DELTA out to the watchers interested in that one user, and a
// sweep in which nobody moved costs nothing. This bench registers 10,000
// watchers, runs busy and quiet populations (and a double-length quiet
// run), and checks the accounting identity behind the cost model:
//
//     deliveries == sum over users of (deltas[u] * watchers[u])
//
// i.e. fan-out work has NO term in sweeps or wall time -- it is driven
// entirely by how much the population actually moves. The quiet runs make
// the contrast concrete: poll-equivalent work (watchers x sweeps) doubles
// when the run doubles, while deliveries stay flat at the handful of
// arrival deltas. The process exits nonzero if the identity is violated in
// any run or if a quiet run fails to undercut the busy run's deliveries.
#include <ctime>

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/parallel.hpp"

namespace bips::bench {
namespace {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr int kUsers = 50;
constexpr int kWatchers = 10000;
constexpr double kSweepSeconds = 5.12;  // one inquiry cycle = one poll sweep

struct Outcome {
  std::uint64_t deltas = 0;        // presence deltas published by the hub
  std::uint64_t deliveries = 0;    // watcher callbacks actually invoked
  std::uint64_t expected = 0;      // sum_u deltas[u] * watchers[u]
  std::uint64_t poll_equiv = 0;    // watchers x sweeps (the old cost)
  double cpu_s = 0;
};

Outcome run_once(bool busy, double sim_seconds, int watchers) {
  core::SimulationConfig cfg;
  cfg.seed = 0x5AB5'0000 + (busy ? 1 : 0);
  if (!busy) {
    // A population that settles down after arriving: the poll model keeps
    // paying per sweep, the subscription model goes idle with the users.
    cfg.mobility.pause_min = Duration::seconds(100000);
    cfg.mobility.pause_max = Duration::seconds(200000);
  }

  core::ShardedBipsSimulation sim(mobility::Building::grid(4, 4),
                                  core::ShardedConfig{.base = cfg});
  for (int i = 0; i < kUsers; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i % 16));
  }

  Outcome o;
  // Meters: one per user, counting that user's published deltas. These are
  // instrumentation, not watchers -- they are excluded from `deliveries`.
  std::vector<std::uint64_t> deltas_per_user(kUsers, 0);
  for (int i = 0; i < kUsers; ++i) {
    sim.server().subscriptions().subscribe_user(
        "u" + std::to_string(i),
        [&deltas_per_user, i](const core::SubscriptionHub::Event&) {
          ++deltas_per_user[static_cast<std::size_t>(i)];
        });
  }
  // The watcher fleet, round-robin over the population: watcher i follows
  // user i mod kUsers. Every callback is one unit of fan-out work.
  std::vector<std::uint64_t> watchers_per_user(kUsers, 0);
  for (int i = 0; i < watchers; ++i) {
    ++watchers_per_user[static_cast<std::size_t>(i % kUsers)];
    sim.server().subscriptions().subscribe_user(
        "u" + std::to_string(i % kUsers),
        [&o](const core::SubscriptionHub::Event&) { ++o.deliveries; });
  }

  const double c0 = process_cpu_seconds();
  sim.run_for(Duration::from_seconds(sim_seconds));
  o.cpu_s = process_cpu_seconds() - c0;

  for (int i = 0; i < kUsers; ++i) {
    o.deltas += deltas_per_user[static_cast<std::size_t>(i)];
    o.expected += deltas_per_user[static_cast<std::size_t>(i)] *
                  watchers_per_user[static_cast<std::size_t>(i)];
  }
  o.poll_equiv = static_cast<std::uint64_t>(watchers) *
                 static_cast<std::uint64_t>(sim_seconds / kSweepSeconds);
  return o;
}

int run() {
  print_header("S5",
               "Subscription fan-out cost: 10k watchers, deliveries driven "
               "by deltas, not watchers x sweeps");

  struct RunSpec {
    const char* label;
    bool busy;
    double sim_seconds;
    int watchers;
  };
  const RunSpec specs[] = {
      {"busy,   600 s, 10k watchers", true, 600, kWatchers},
      {"quiet,  600 s, 10k watchers", false, 600, kWatchers},
      {"quiet, 1200 s, 10k watchers", false, 1200, kWatchers},
  };

  TableWriter table({"scenario", "deltas", "deliveries", "poll-equiv",
                     "delivery/poll", "cpu s"});
  bool ok = true;
  std::uint64_t busy_deliveries = 0;
  std::vector<Outcome> outs;
  for (const RunSpec& s : specs) {
    const Outcome o = run_once(s.busy, s.sim_seconds, s.watchers);
    outs.push_back(o);
    if (o.deliveries != o.expected) {
      std::printf("FAIL (%s): %llu deliveries but the delta accounting "
                  "predicts %llu -- fan-out did work not attributable to a "
                  "delta\n",
                  s.label, static_cast<unsigned long long>(o.deliveries),
                  static_cast<unsigned long long>(o.expected));
      ok = false;
    }
    if (s.busy) busy_deliveries = o.deliveries;
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.4f",
                  o.poll_equiv > 0 ? static_cast<double>(o.deliveries) /
                                         static_cast<double>(o.poll_equiv)
                                   : 0.0);
    char cpu[32];
    std::snprintf(cpu, sizeof cpu, "%.2f", o.cpu_s);
    table.add_row({s.label, std::to_string(o.deltas),
                   std::to_string(o.deliveries), std::to_string(o.poll_equiv),
                   ratio, cpu});
  }
  std::printf("%s\n", table.to_string().c_str());

  // The cost-model gates. (1) Deliveries are exactly deltas weighted by
  // interested watchers -- proved per run above. (2) An idle population
  // must cost less than a busy one under identical watcher load. (3)
  // Doubling the quiet run's duration doubles the poll-equivalent work but
  // must NOT double the deliveries: the settled population publishes
  // (almost) nothing new, so the extra sweeps are free.
  if (outs[1].deliveries >= busy_deliveries) {
    std::printf("FAIL: quiet run delivered %llu >= busy run's %llu -- "
                "deliveries should track movement\n",
                static_cast<unsigned long long>(outs[1].deliveries),
                static_cast<unsigned long long>(busy_deliveries));
    ok = false;
  }
  if (outs[2].deliveries >= 2 * outs[1].deliveries &&
      outs[2].deliveries > outs[1].deliveries + 100) {
    std::printf("FAIL: doubling the quiet run's duration scaled deliveries "
                "%llu -> %llu -- fan-out cost is tracking time, not "
                "deltas\n",
                static_cast<unsigned long long>(outs[1].deliveries),
                static_cast<unsigned long long>(outs[2].deliveries));
    ok = false;
  }
  if (ok) {
    std::printf("OK: every delivery is accounted to a presence delta; a "
                "settled population costs ~nothing regardless of watcher "
                "count or run length\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bips::bench

int main() { return bips::bench::run(); }
