// Property-style parameterised sweeps (TEST_P) over the protocol knobs:
// invariants that must hold across the whole configuration space, not just
// the defaults.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "src/baseband/device.hpp"
#include "src/baseband/inquiry.hpp"
#include "src/baseband/inquiry_scan.hpp"
#include "src/net/lan.hpp"
#include "src/sim/simulator.hpp"

namespace bips::baseband {
namespace {

struct Rig {
  sim::Simulator sim;
  Rng rng;
  RadioChannel radio;
  explicit Rig(std::uint64_t seed) : rng(seed), radio(sim, rng, ChannelConfig{}) {}
  std::unique_ptr<Device> dev(std::uint64_t a) {
    return std::make_unique<Device>(sim, radio, BdAddr(a), rng.fork());
  }
};

// ---- sweep 1: backoff window ------------------------------------------

class BackoffSweep : public ::testing::TestWithParam<int> {};

TEST_P(BackoffSweep, DiscoveryBoundedByBackoffWindow) {
  const int max_slots = GetParam();
  Rig rig(1000 + max_slots);
  auto master = rig.dev(0xA1);
  auto slave = rig.dev(0xB1);

  std::optional<SimTime> found;
  Inquirer inq(*master, InquiryConfig{},
               [&](const InquiryResponse& r) { found = r.received_at; });
  ScanConfig scan;
  scan.window = scan.interval = kDefaultScanInterval;  // continuous
  scan.channel_mode = ScanChannelMode::kFixed;
  BackoffConfig bo;
  bo.max_slots = max_slots;
  InquiryScanner sc(*slave, scan, bo);
  sc.set_initial_channel(4);  // train A
  sc.start_with_phase(Duration(0));
  inq.start();
  rig.sim.run_until(SimTime(Duration::seconds(8).ns()));

  ASSERT_TRUE(found.has_value());
  // Bound: one train sweep + backoff + one sweep + exchange slack.
  const double bound =
      0.010 + max_slots * kSlot.to_seconds() + 0.010 + 0.050;
  EXPECT_LT(found->to_seconds(), bound);
}

INSTANTIATE_TEST_SUITE_P(Backoffs, BackoffSweep,
                         ::testing::Values(0, 31, 127, 255, 511, 1023, 2047));

// ---- sweep 2: scan schedule -------------------------------------------

class ScanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (win ms*100, int ms)

TEST_P(ScanSweep, DiscoveryWithinAFewIntervals) {
  const auto [win_hundredths_ms, interval_ms] = GetParam();
  Rig rig(2000 + interval_ms + win_hundredths_ms);
  auto master = rig.dev(0xA1);
  auto slave = rig.dev(0xB1);

  std::optional<SimTime> found;
  Inquirer inq(*master, InquiryConfig{},
               [&](const InquiryResponse& r) { found = r.received_at; });
  ScanConfig scan;
  scan.window = Duration::micros(win_hundredths_ms * 10);
  scan.interval = Duration::millis(interval_ms);
  scan.channel_mode = ScanChannelMode::kStickyTrain;
  InquiryScanner sc(*slave, scan, BackoffConfig{});
  sc.set_initial_channel(2);  // train A
  sc.start();
  inq.start();
  rig.sim.run_until(SimTime(Duration::seconds(30).ns()));

  ASSERT_TRUE(found.has_value());
  // Three waits of at most one interval each (first window, backoff
  // re-entry, response window) plus the backoff itself and slack.
  const double bound = 3.0 * interval_ms / 1000.0 + 0.64 + 0.2;
  EXPECT_LT(found->to_seconds(), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScanSweep,
    ::testing::Values(std::tuple{1125, 1280},   // spec defaults
                      std::tuple{2250, 1280},   // double window
                      std::tuple{1125, 640},    // faster interval
                      std::tuple{4500, 2560},   // slow but wide
                      std::tuple{1125, 320}));  // very aggressive

// ---- sweep 3: population ----------------------------------------------

class PopulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(PopulationSweep, DedicatedMasterFindsEveryone) {
  const int n = GetParam();
  Rig rig(3000 + n);
  auto master = rig.dev(0xA1);
  std::set<std::uint64_t> found;
  Inquirer inq(*master, InquiryConfig{},
               [&](const InquiryResponse& r) { found.insert(r.addr.raw()); });
  std::vector<std::unique_ptr<Device>> devs;
  std::vector<std::unique_ptr<InquiryScanner>> scans;
  for (int i = 0; i < n; ++i) {
    devs.push_back(rig.dev(0xB00 + i));
    ScanConfig scan;
    scan.window = scan.interval = kDefaultScanInterval;
    scans.push_back(
        std::make_unique<InquiryScanner>(*devs.back(), scan, BackoffConfig{}));
    scans.back()->start();
  }
  inq.start();
  rig.sim.run_until(SimTime(Duration::from_seconds(10.24).ns()));
  EXPECT_EQ(found.size(), static_cast<std::size_t>(n));

  // Channel accounting sanity: every loss is attributed.
  const auto& m = rig.sim.obs().metrics;
  EXPECT_GT(m.counter_value("radio.transmissions"), 0u);
  EXPECT_EQ(m.counter_value("radio.dropped_per"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Populations, PopulationSweep,
                         ::testing::Values(1, 2, 5, 10, 15, 20, 30));

// ---- sweep 4: scan channel modes --------------------------------------

class ChannelModeSweep : public ::testing::TestWithParam<ScanChannelMode> {};

TEST_P(ChannelModeSweep, TrainMembershipInvariant) {
  Rig rig(4000);
  auto slave = rig.dev(0xB1);
  ScanConfig scan;
  scan.channel_mode = GetParam();
  InquiryScanner sc(*slave, scan, BackoffConfig{});
  sc.set_initial_channel(5);  // train A
  sc.start_with_phase(Duration(0));
  // Step through windows; the *reported* upcoming train must follow the
  // mode's rule.
  bool ever_b = false;
  for (int w = 0; w < 40; ++w) {
    const Train t = sc.current_train();
    if (GetParam() == ScanChannelMode::kFixed ||
        GetParam() == ScanChannelMode::kStickyTrain) {
      EXPECT_EQ(t, Train::kA);
    }
    ever_b |= (t == Train::kB);
    rig.sim.run_until(rig.sim.now() + scan.interval);
  }
  if (GetParam() == ScanChannelMode::kSequence) {
    EXPECT_TRUE(ever_b);  // the full sequence crosses trains
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ChannelModeSweep,
                         ::testing::Values(ScanChannelMode::kFixed,
                                           ScanChannelMode::kStickyTrain,
                                           ScanChannelMode::kSequence));

}  // namespace
}  // namespace bips::baseband

namespace bips::sim {
namespace {

// ---- sweep 5: engine ordering invariant --------------------------------

class EngineSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineSeedSweep, FireTimesAreMonotone) {
  Simulator s;
  Rng rng(GetParam());
  std::vector<std::int64_t> fire_times;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 500; ++i) {
    const auto delay = Duration::micros(
        static_cast<std::int64_t>(rng.uniform(1'000'000)));
    handles.push_back(
        s.schedule(delay, [&] { fire_times.push_back(s.now().ns()); }));
  }
  // Cancel a random third.
  for (auto& h : handles) {
    if (rng.chance(0.33)) h.cancel();
  }
  s.run();
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LE(fire_times[i - 1], fire_times[i]);
  }
  EXPECT_EQ(s.events_pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace bips::sim

namespace bips::net {
namespace {

// ---- sweep 6: LAN FIFO under any jitter --------------------------------

class LanJitterSweep : public ::testing::TestWithParam<int> {};

TEST_P(LanJitterSweep, FifoHoldsForAnyJitter) {
  sim::Simulator simu;
  Rng rng(GetParam());
  Lan::Config cfg;
  cfg.base_latency = Duration::micros(50);
  cfg.jitter = Duration::micros(GetParam() * 100);
  Lan lan(simu, rng, cfg);
  Endpoint& a = lan.create_endpoint();
  Endpoint& b = lan.create_endpoint();
  std::vector<std::uint8_t> order;
  b.set_handler([&](Address, const Payload& p) { order.push_back(p[0]); });
  for (std::uint8_t i = 0; i < 100; ++i) {
    simu.schedule(Duration::micros(i * 7),
                  [&a, &b, i] { a.send(b.address(), {i}); });
  }
  simu.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) ASSERT_EQ(order[i], i);
}

INSTANTIATE_TEST_SUITE_P(Jitters, LanJitterSweep,
                         ::testing::Values(0, 1, 5, 20, 100));

}  // namespace
}  // namespace bips::net

// ---- sweep 7: randomized full-system soak ----------------------------------

#include "src/core/parallel.hpp"

namespace bips::core {
namespace {

class SystemSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemSoak, InvariantsHoldOnRandomDeployments) {
  Rng rng(GetParam());

  // Random connected building: 2..6 rooms on a chain plus random extras.
  mobility::Building b;
  const int rooms = 2 + static_cast<int>(rng.uniform(5));
  for (int i = 0; i < rooms; ++i) {
    b.add_room("r" + std::to_string(i),
               Vec2{12.0 * i + rng.uniform_double() * 3,
                    rng.uniform_double() * 6});
  }
  for (int i = 1; i < rooms; ++i) {
    b.connect(static_cast<mobility::RoomId>(i - 1),
              static_cast<mobility::RoomId>(i));
  }
  if (rooms > 2 && rng.chance(0.5)) {
    b.connect(0, static_cast<mobility::RoomId>(rooms - 1),
              12.0 * rooms);
  }

  SimulationConfig cfg;
  cfg.seed = GetParam() * 7919;
  cfg.stagger_inquiry = rng.chance(0.5);
  cfg.lan.loss = rng.chance(0.3) ? 0.2 : 0.0;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(2.56);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  cfg.mobility.pause_min = Duration::seconds(5);
  cfg.mobility.pause_max = Duration::seconds(30);

  ShardedBipsSimulation sim(std::move(b), ShardedConfig{.base = cfg});
  const int users = 1 + static_cast<int>(rng.uniform(10));
  for (int i = 0; i < users; ++i) {
    sim.add_user("User" + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(rng.uniform(rooms)));
  }
  sim.enable_tracking_metrics(Duration::seconds(1));
  sim.run_for(Duration::seconds(150));

  // Invariants, whatever happened above:
  for (std::size_t s = 0; s < sim.workstation_count(); ++s) {
    auto& pico = sim.workstation(static_cast<StationId>(s)).scheduler().piconet();
    // AM_ADDR limit never exceeded.
    EXPECT_LE(pico.active_count(), 7u);
    // Membership arithmetic consistent.
    EXPECT_EQ(pico.active_count() + pico.parked_count(), pico.slave_count());
  }
  // Every DB presence points at a real station and a logged-in or at least
  // known device; every session is unique per user and device.
  const auto& db = sim.server().locations();
  std::size_t present = 0;
  for (int i = 0; i < users; ++i) {
    const std::string id = "u" + std::to_string(i);
    const auto room = sim.db_room(id);
    if (room) {
      EXPECT_LT(*room, sim.workstation_count());
      ++present;
    }
    if (sim.active_client(id).logged_in()) {
      EXPECT_TRUE(db.logged_in(id));
      EXPECT_EQ(db.addr_of(id), sim.active_client(id).addr().raw());
    }
  }
  // On a lossless LAN everything acks out eventually.
  if (cfg.lan.loss == 0.0) {
    for (std::size_t s = 0; s < sim.workstation_count(); ++s) {
      EXPECT_EQ(sim.workstation(static_cast<StationId>(s)).unacked_updates(),
                0u);
    }
  }
  // The system did make progress: most users are somewhere in the DB.
  EXPECT_GT(present, 0u);
  // Tracking samples only count logged-in users; accuracy is a probability.
  const auto& m = sim.tracking();
  EXPECT_LE(m.correct_room + m.agree_absent + m.wrong_room + m.false_absent +
                m.false_present,
            m.samples);
}

INSTANTIATE_TEST_SUITE_P(Deployments, SystemSoak,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

}  // namespace
}  // namespace bips::core
