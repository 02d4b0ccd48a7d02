// Virtual-slot fast-forward: the VirtualClock lattice contract, occupancy
// wake/re-idle behaviour of a parked master, and the central equivalence
// property -- a fixed seed produces byte-identical discovery histories and
// presence-delta streams whether masters drum every slot (--exact-slots) or
// fast-forward closed-form across idle spans (the default). DESIGN.md
// section 5c derives why; these tests enforce it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "src/baseband/device.hpp"
#include "src/baseband/inquiry.hpp"
#include "src/baseband/inquiry_scan.hpp"
#include "src/baseband/piconet.hpp"
#include "src/baseband/radio.hpp"
#include "src/core/parallel.hpp"
#include "src/fault/plan.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/virtual_clock.hpp"

namespace bips {
namespace {

using baseband::BackoffConfig;
using baseband::BdAddr;
using baseband::ChannelConfig;
using baseband::Device;
using baseband::InquiryConfig;
using baseband::InquiryResponse;
using baseband::InquiryScanner;
using baseband::Inquirer;
using baseband::RadioChannel;
using baseband::ScanChannelMode;
using baseband::ScanConfig;

// ---- VirtualClock lattice contract --------------------------------------

TEST(VirtualClock, WakeResumesOnTheCadenceLattice) {
  sim::Simulator sim;
  sim::VirtualClock vc(sim, 2 * kSlot);  // 1250 us cadence
  const SimTime t0 = SimTime(Duration::micros(10'000).ns());
  vc.park(t0);
  EXPECT_TRUE(vc.parked());

  // Wake 3.2 cadences after the park: slots at t0, +1250, +2500, +3750 are
  // all elided (the one at +3750 lies before the off-grid wake point), and
  // the drumming resumes at the next on-grid instant, +5000.
  const auto wk = vc.wake(t0 + Duration::micros(4'000));
  EXPECT_EQ(wk.skipped, 4u);
  EXPECT_EQ(wk.resume, t0 + Duration::micros(5'000));
  EXPECT_FALSE(vc.parked());
  EXPECT_EQ(vc.skipped_total(), 4u);
  EXPECT_EQ(sim.obs().metrics.counter_value("kernel.skipped_slots"), 4u);
}

TEST(VirtualClock, OnGridWakeDoesNotSkipTheResumeSlot) {
  sim::Simulator sim;
  sim::VirtualClock vc(sim, 2 * kSlot);
  const SimTime t0 = SimTime(Duration::micros(20'000).ns());
  vc.park(t0);
  // An exactly on-grid wake re-runs that slot instead of skipping it: only
  // the two strictly-earlier activations are elided.
  const auto wk = vc.wake(t0 + Duration::micros(2'500));
  EXPECT_EQ(wk.skipped, 2u);
  EXPECT_EQ(wk.resume, t0 + Duration::micros(2'500));
}

TEST(VirtualClock, RetireCountsElisionsWithoutAResumeSlot) {
  sim::Simulator sim;
  sim::VirtualClock vc(sim, 2 * kSlot);
  const SimTime t0 = SimTime(0);
  vc.park(t0);
  EXPECT_EQ(vc.elided_before(t0 + Duration::micros(3'000)), 3u);
  EXPECT_EQ(vc.retire(t0 + Duration::micros(3'000)), 3u);
  EXPECT_FALSE(vc.parked());
}

// ---- occupancy wake / re-idle at the slot boundary ----------------------

struct TrialResult {
  std::optional<SimTime> discovered;
  std::uint64_t ids_sent = 0;
  std::uint64_t ids_heard = 0;
  std::uint64_t fhs_received = 0;
  std::uint64_t skipped = 0;
  std::uint64_t wakeups = 0;
  std::int64_t tx_ns = 0;      // master's energy ledger (TX airtime)
  std::int64_t listen_ns = 0;  // master's energy ledger (receiver-on time)
};

// One master inquiring forever; one scanner that starts far out of range,
// enters coverage at t=2.5 s and leaves again at t=7 s. In fast-forward
// mode the master must park while alone, wake on the exact slot lattice
// when the scanner's next window registers in range, re-park in every scan
// gap, and park for good once the scanner is gone. Position changes land in
// the scanner's window *gaps*: listen positions are snapshotted at
// registration, and the ff-radius contract covers walking drift within a
// window, not teleports (a real walker crosses the coverage edge at m/s).
TrialResult range_transition_trial(std::uint64_t seed, bool exact,
                                   bool spatial_grid) {
  ChannelConfig ch;
  ch.exact_slots = exact;
  ch.spatial_grid = spatial_grid;
  ch.grid_threshold = spatial_grid ? 1 : 48;  // force the grid path when on
  sim::Simulator sim;
  Rng rng(seed);
  RadioChannel radio(sim, rng, ch);
  Device master(sim, radio, BdAddr(0xA1), rng.fork());
  Device slave(sim, radio, BdAddr(0xB1), rng.fork());
  slave.set_position({100, 0});  // far outside the 10 m range

  TrialResult r;
  Inquirer inq(master, InquiryConfig{}, [&](const InquiryResponse& resp) {
    if (!r.discovered) r.discovered = resp.received_at;
  });
  // Dense periodic scan: windows [k*640, k*640+320) ms re-register every
  // cycle, so position changes (placed in the gaps at 2.5 s and 7 s) take
  // effect at the next window in both modes alike, and the 4.5 s in-range
  // stretch holds enough windows to discover reliably.
  ScanConfig scfg;
  scfg.window = Duration::millis(320);
  scfg.interval = Duration::millis(640);
  InquiryScanner scan(slave, scfg, BackoffConfig{});
  scan.set_initial_channel(
      static_cast<std::uint32_t>(rng.uniform(baseband::kTrainSize)));
  scan.start_with_phase(Duration(0));  // pin windows to the k*640 ms grid
  inq.start();

  sim.run_until(SimTime(Duration::millis(2'500).ns()));
  slave.set_position({5, 0});  // walk in (scan gap: 2500 mod 640 >= 320)
  sim.run_until(SimTime(Duration::millis(7'000).ns()));
  slave.set_position({100, 0});  // walk out (gap again: 7000 mod 640 >= 320)
  // End at an instant off the 312.5 us slot lattice: run_until executes
  // same-instant events, while a mid-park stats read uses the in-event FIFO
  // convention (a half-slot ID due exactly "now" has not fired) -- probing
  // off-lattice keeps the two bookkeeping views comparable.
  sim.run_until(SimTime(Duration::micros(10'000'100).ns()));

  r.ids_sent = inq.stats().ids_sent;
  r.fhs_received = inq.stats().fhs_received;
  r.ids_heard = scan.stats().ids_heard;
  // The stats() read above also settled the lazy energy credit of any
  // in-progress park (probe is off-lattice, so both modes agree on which
  // TX/listen intervals have completed by now).
  r.tx_ns = master.energy().tx_time.ns();
  r.listen_ns = master.energy().listen_time.ns();
  // stop() retires the final park, settling its elisions into the counter
  // (while parked, only the lazy stats() view is current).
  inq.stop();
  scan.stop();
  r.skipped = sim.obs().metrics.counter_value("kernel.skipped_slots");
  r.wakeups = sim.obs().metrics.counter_value("radio.occ_wakeups");
  return r;
}

TEST(FastForward, RangeTransitionsWakeAndReidleOnTheExactSlotBoundary) {
  for (const bool spatial_grid : {false, true}) {
    for (std::uint64_t seed = 31; seed < 36; ++seed) {
      const TrialResult ex =
          range_transition_trial(seed, /*exact=*/true, spatial_grid);
      const TrialResult ff =
          range_transition_trial(seed, /*exact=*/false, spatial_grid);
      const std::string label =
          (spatial_grid ? "grid" : "flat") + std::string(", seed ") +
          std::to_string(seed);

      // The exact drumming discovers the scanner; fast-forward must land on
      // the identical instant -- a wake that misses the 1250 us lattice by
      // even one half-slot desynchronises the train sweep and shows up here.
      ASSERT_TRUE(ex.discovered.has_value()) << label;
      ASSERT_TRUE(ff.discovered.has_value()) << label;
      EXPECT_EQ(ex.discovered->ns(), ff.discovered->ns()) << label;

      // Every observable statistic matches: the elided slots are credited
      // as if they had run.
      EXPECT_EQ(ex.ids_sent, ff.ids_sent) << label;
      EXPECT_EQ(ex.ids_heard, ff.ids_heard) << label;
      EXPECT_EQ(ex.fhs_received, ff.fhs_received) << label;

      // The energy ledger is mode-invariant too: a mid-park read credits
      // the elided TX/listen time lazily, pinned to the same completed
      // intervals the exact path accounted.
      EXPECT_GT(ex.tx_ns, 0) << label;
      EXPECT_EQ(ex.tx_ns, ff.tx_ns) << label;
      EXPECT_GT(ex.listen_ns, 0) << label;
      EXPECT_EQ(ex.listen_ns, ff.listen_ns) << label;

      // Mode bookkeeping: exact mode never parks. Fast-forward parked
      // before the scanner arrived, in every scan gap while it was near
      // (hence >= 2 occupancy wakeups: each wake implies the master had
      // re-idled first), and for the whole post-departure stretch -- the
      // final 3 s alone elide > 2000 slot activations.
      EXPECT_EQ(ex.skipped, 0u) << label;
      EXPECT_EQ(ex.wakeups, 0u) << label;
      EXPECT_GE(ff.wakeups, 2u) << label;
      EXPECT_GT(ff.skipped, 2000u) << label;
    }
  }
}

TEST(FastForward, ParkedInquirerCreditsStatsLazily) {
  // A master with no scanner anywhere parks immediately; a mid-park stats()
  // read must still see the IDs the exact path would have sent by now
  // (1600/s), without ending the park.
  sim::Simulator sim;
  Rng rng(7);
  RadioChannel radio(sim, rng, ChannelConfig{});  // default: fast-forward
  Device master(sim, radio, BdAddr(0xA1), rng.fork());
  Inquirer inq(master, InquiryConfig{}, nullptr);
  inq.start();
  sim.run_until(SimTime(Duration::seconds(2).ns()));
  EXPECT_NEAR(static_cast<double>(inq.stats().ids_sent), 3200.0, 10.0);
  // Repeated reads only add the delta since the last one.
  const auto first = inq.stats().ids_sent;
  sim.run_until(SimTime(Duration::seconds(4).ns()));
  EXPECT_NEAR(static_cast<double>(inq.stats().ids_sent - first), 3200.0,
              10.0);
  // Ending the park settles the whole ledger: stats are unchanged (already
  // credited lazily) and the elided slots land in the kernel counter.
  const auto at_stop = inq.stats().ids_sent;
  inq.stop();
  EXPECT_EQ(inq.stats().ids_sent, at_stop);
  EXPECT_GT(sim.obs().metrics.counter_value("kernel.skipped_slots"), 0u);
}

// ---- supervised piconet equivalence -------------------------------------

struct SupervisedResult {
  std::int64_t lost_at_ns = -1;  // instant of the supervision disconnect
  std::uint64_t lost_addr = 0;
  std::uint64_t polls = 0;
  std::uint64_t link_losses = 0;
  std::uint64_t parks = 0;
  std::uint64_t elided = 0;
};

// A supervised piconet under fast-forward must reproduce the exact path's
// supervision behaviour byte-for-byte: one slave sits parked (park mode) in
// coverage for the whole run, the other walks straight out at 1.2 m/s on a
// continuous position provider and is dropped by the 2 s supervision
// timeout *mid-park* -- the master is quiescent when the deadline
// approaches, so the disconnect instant is reconstructed from the deadline
// wake, not observed by drumming. Any error in the speed-bound horizons or
// the last_reachable reconstruction moves the disconnect by at least one
// 25 ms round and fails the exact-instant comparison.
SupervisedResult supervised_walkout_trial(std::uint64_t seed, bool exact) {
  sim::Simulator sim;
  Rng rng(seed);
  baseband::ChannelConfig ch;
  ch.exact_slots = exact;
  baseband::RadioChannel radio(sim, rng, ch);
  Device mdev(sim, radio, BdAddr(0xA1), rng.fork());
  baseband::PiconetMaster master(mdev, baseband::PiconetMaster::Config{});
  Device parked_dev(sim, radio, BdAddr(0xB1), rng.fork(), {5, 0});
  Device walker_dev(sim, radio, BdAddr(0xB2), rng.fork(), {8, 0});
  baseband::SlaveLink parked(parked_dev);
  baseband::SlaveLink walker(walker_dev);

  SupervisedResult r;
  master.set_on_link_loss([&](BdAddr a) {
    r.lost_at_ns = sim.now().ns();
    r.lost_addr = a.raw();
  });
  master.attach(parked);
  master.attach(walker);
  master.park(BdAddr(0xB1));  // parked members are supervised too
  // Continuous walkout, well under the 2.0 m/s ff speed bound: leaves the
  // 10 m range at t = 5/3 s, supervision fires ~2 s later.
  walker_dev.set_position_provider(
      [&sim] { return Vec2{8.0 + 1.2 * sim.now().ns() * 1e-9, 0.0}; });

  // Probe off the 25 ms round lattice (see range_transition_trial).
  sim.run_until(SimTime(Duration::micros(10'000'100).ns()));
  r.polls = master.stats().polls;
  r.link_losses = master.stats().link_losses;
  r.parks = sim.obs().metrics.counter_value("piconet.quiesce_parks");
  r.elided = sim.obs().metrics.counter_value("piconet.elided_polls");
  return r;
}

TEST(FastForward, SupervisedWalkoutDisconnectsAtTheIdenticalInstant) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const SupervisedResult ex = supervised_walkout_trial(seed, true);
    const SupervisedResult ff = supervised_walkout_trial(seed, false);
    const std::string label = "seed " + std::to_string(seed);

    // The walker is dropped in both modes, at the same simulated instant,
    // and the parked slave survives (it never leaves coverage).
    EXPECT_EQ(ex.lost_addr, 0xB2u) << label;
    EXPECT_EQ(ff.lost_addr, ex.lost_addr) << label;
    ASSERT_GE(ex.lost_at_ns, 0) << label;
    EXPECT_EQ(ff.lost_at_ns, ex.lost_at_ns) << label;
    EXPECT_EQ(ex.link_losses, 1u) << label;
    EXPECT_EQ(ff.link_losses, ex.link_losses) << label;
    EXPECT_EQ(ff.polls, ex.polls) << label;

    // Fast-forward did elide: the post-disconnect stretch alone (walker
    // gone, parked slave pinned at d = 5) holds multi-second parks.
    EXPECT_EQ(ex.parks, 0u) << label;
    EXPECT_EQ(ex.elided, 0u) << label;
    EXPECT_GE(ff.parks, 2u) << label;
    EXPECT_GT(ff.elided, 100u) << label;
  }
}

// ---- whole-stack equivalence harness ------------------------------------

struct ModeCapture {
  std::string history;        // location-DB transition history (CSV)
  std::string presence;       // the trace's presence-delta stream (JSONL)
  std::uint64_t executed = 0; // kernel events actually run
  std::uint64_t skipped = 0;  // slots elided by fast-forward
  std::uint64_t elided_polls = 0;  // piconet rounds elided by quiesce
};

ModeCapture building_run(std::uint64_t seed, bool exact, bool chaos = false) {
  core::SimulationConfig cfg;
  cfg.seed = seed;
  cfg.stagger_inquiry = true;
  cfg.channel.exact_slots = exact;
  cfg.workstation.scheduler.inquiry_length = Duration::from_seconds(1.28);
  cfg.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  core::ShardedBipsSimulation sim(mobility::Building::grid(2, 2),
                                  core::ShardedConfig{.base = cfg});
  for (int i = 0; i < 6; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i % 4));
  }
  if (chaos) {
    // Pull the chaos window into the 45 s run (defaults start at 60 s).
    fault::ChaosParams cp;
    cp.start = Duration::seconds(10);
    cp.window = Duration::seconds(20);
    cp.min_outage = Duration::seconds(3);
    cp.max_outage = Duration::seconds(8);
    fault::FaultPlan::chaos(seed, sim.workstation_count(), cp)
        .apply_sharded(sim);
  }
  std::ostringstream trace_os;
  obs::JsonlSink sink(trace_os);
  sim.shard_simulator(0).obs().tracer.set_sink(&sink);
  sim.run_for(Duration::seconds(45));
  sim.shard_simulator(0).obs().tracer.set_sink(nullptr);
  sink.flush();

  ModeCapture cap;
  std::ostringstream history;
  sim.write_history_csv(history);
  cap.history = history.str();
  // Full traces legitimately differ across modes (radio.ff and
  // kernel.sample records); the *presence-delta* stream may not.
  std::istringstream lines(trace_os.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"kind\":\"presence\"") != std::string::npos) {
      cap.presence += line;
      cap.presence += '\n';
    }
  }
  cap.executed = sim.shard_simulator(0).events_executed();
  const auto& metrics = sim.shard_simulator(0).obs().metrics;
  cap.skipped = metrics.counter_value("kernel.skipped_slots");
  cap.elided_polls = metrics.counter_value("piconet.elided_polls");
  return cap;
}

TEST(FastForward, ExactAndVirtualModesAreByteEquivalent) {
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 42u}) {
    const ModeCapture ex = building_run(seed, /*exact=*/true);
    const ModeCapture ff = building_run(seed, /*exact=*/false);

    EXPECT_FALSE(ex.history.empty()) << "seed " << seed;
    EXPECT_EQ(ex.history, ff.history) << "seed " << seed;
    EXPECT_FALSE(ex.presence.empty()) << "seed " << seed;
    EXPECT_EQ(ex.presence, ff.presence) << "seed " << seed;

    // Fast-forward earns its keep: it retires the same observable run with
    // far fewer executed kernel events, the difference living in the
    // skipped-slot ledger -- and the supervised piconets contribute (their
    // drained poll rounds quiesce instead of drumming).
    EXPECT_EQ(ex.skipped, 0u) << "seed " << seed;
    EXPECT_GT(ff.skipped, 0u) << "seed " << seed;
    EXPECT_EQ(ex.elided_polls, 0u) << "seed " << seed;
    EXPECT_GT(ff.elided_polls, 0u) << "seed " << seed;
    EXPECT_LT(ff.executed, ex.executed) << "seed " << seed;
  }
}

TEST(FastForward, ChaosSeedsStayByteEquivalentAcrossModes) {
  // Crash/restart/partition faults hit mid-run -- station crashes tear
  // piconets down while quiesced, restarts rebuild them, the server resync
  // replays presence -- and the two modes must still agree byte-for-byte.
  for (const std::uint64_t seed : {7u, 21u}) {
    const ModeCapture ex = building_run(seed, /*exact=*/true, /*chaos=*/true);
    const ModeCapture ff = building_run(seed, /*exact=*/false, /*chaos=*/true);

    EXPECT_FALSE(ex.history.empty()) << "seed " << seed;
    EXPECT_EQ(ex.history, ff.history) << "seed " << seed;
    EXPECT_FALSE(ex.presence.empty()) << "seed " << seed;
    EXPECT_EQ(ex.presence, ff.presence) << "seed " << seed;
    EXPECT_GT(ff.skipped, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bips
