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
#include <utility>
#include <vector>

#include "src/baseband/device.hpp"
#include "src/baseband/inquiry.hpp"
#include "src/baseband/inquiry_scan.hpp"
#include "src/baseband/paging.hpp"
#include "src/baseband/piconet.hpp"
#include "src/baseband/radio.hpp"
#include "src/baseband/train_sweep.hpp"
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
using baseband::Packet;
using baseband::PacketType;
using baseband::PageConfig;
using baseband::PageScanner;
using baseband::Pager;
using baseband::RadioChannel;
using baseband::RfChannel;
using baseband::ScanChannelMode;
using baseband::ScanConfig;
using baseband::TrainSweep;

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

// The two master procedures that drum the ID train and fast-forward it.
enum class Procedure { kInquiry, kPage };

struct TrialResult {
  // Each instant the master reached the target: the inquirer's first FHS,
  // or every completed page.
  std::vector<std::int64_t> reached_ns;
  std::uint64_t ids_sent = 0;
  std::uint64_t ids_heard = 0;  // IDs (inquiry) or page IDs the target heard
  std::uint64_t responses = 0;  // FHS received / pages succeeded
  std::uint64_t pages_failed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t wakeups = 0;
  std::int64_t tx_ns = 0;      // master's energy ledger (TX airtime)
  std::int64_t listen_ns = 0;  // master's energy ledger (receiver-on time)
};

// One master running `proc` forever against one target that starts far out
// of range, enters coverage at t=2.5 s and leaves again at t=7 s. In
// fast-forward mode the master must park while alone, wake on the exact slot
// lattice when the target's next scan window registers in range, re-park in
// every scan gap, and park for good once the target is gone. Position
// changes land in the target's window *gaps*: listen positions are
// snapshotted at registration, and the ff-radius contract covers walking
// drift within a window, not teleports (a real walker crosses the coverage
// edge at m/s).
//
// The pager pages the target again after every success and every failure,
// so the same run also exits parks through its page timeout (out of range)
// and, on a lossy channel, through exchanges whose FHS or ack is lost.
TrialResult range_transition_trial(Procedure proc, std::uint64_t seed,
                                   bool exact, bool spatial_grid,
                                   double packet_error_rate = 0.0) {
  ChannelConfig ch;
  ch.exact_slots = exact;
  ch.spatial_grid = spatial_grid;
  ch.grid_threshold = spatial_grid ? 1 : 48;  // force the grid path when on
  ch.packet_error_rate = packet_error_rate;
  sim::Simulator sim;
  Rng rng(seed);
  RadioChannel radio(sim, rng, ch);
  Device master(sim, radio, BdAddr(0xA1), rng.fork());
  Device slave(sim, radio, BdAddr(0xB1), rng.fork());
  slave.set_position({100, 0});  // far outside the 10 m range

  TrialResult r;
  // Dense periodic scan: windows [k*640, k*640+320) ms re-register every
  // cycle, so position changes (placed in the gaps at 2.5 s and 7 s) take
  // effect at the next window in both modes alike, and the 4.5 s in-range
  // stretch holds enough windows to discover reliably.
  ScanConfig scfg;
  scfg.window = Duration::millis(320);
  scfg.interval = Duration::millis(640);
  std::optional<Inquirer> inq;
  std::optional<InquiryScanner> scan;
  std::optional<Pager> pager;
  std::optional<PageScanner> pscan;
  if (proc == Procedure::kInquiry) {
    inq.emplace(master, InquiryConfig{}, [&](const InquiryResponse& resp) {
      r.reached_ns.push_back(resp.received_at.ns());
    });
    scan.emplace(slave, scfg, BackoffConfig{});
    scan->set_initial_channel(
        static_cast<std::uint32_t>(rng.uniform(baseband::kTrainSize)));
    scan->start_with_phase(Duration(0));  // pin windows to the k*640 ms grid
    inq->start();
  } else {
    // Two repetitions per train: a train lasts 20 ms, so every parked
    // stretch crosses many train switches. The timeout fails every page
    // begun out of range while the sweep is parked; it lies off the
    // 312.5 us lattice, so those parks end part-way through a slot.
    PageConfig pcfg;
    pcfg.train_repetitions = 2;
    pcfg.timeout = Duration::micros(1'100'100);
    pager.emplace(master, pcfg);
    pscan.emplace(slave, scfg);
    const auto page = [&] {
      pager->page(slave.addr(), slave.clock().clkn(sim.now()), sim.now());
    };
    pager->set_on_success([&r, page](BdAddr, SimTime when) {
      r.reached_ns.push_back(when.ns());
      page();
    });
    pager->set_on_failure([page](BdAddr) { page(); });
    // A connected target stops scanning; it resumes on the k*640 ms grid.
    pscan->set_on_connected([&](BdAddr, std::uint32_t, SimTime now) {
      pscan->start_with_phase(scfg.interval -
                              Duration(now.ns() % scfg.interval.ns()));
    });
    pscan->start_with_phase(Duration(0));
    page();
  }

  sim.run_until(SimTime(Duration::millis(2'500).ns()));
  slave.set_position({5, 0});  // walk in (scan gap: 2500 mod 640 >= 320)
  sim.run_until(SimTime(Duration::millis(7'000).ns()));
  slave.set_position({100, 0});  // walk out (gap again: 7000 mod 640 >= 320)
  // End at an instant off the 312.5 us slot lattice: run_until executes
  // same-instant events, while a mid-park stats read uses the in-event FIFO
  // convention (a half-slot ID due exactly "now" has not fired) -- probing
  // off-lattice keeps the two bookkeeping views comparable.
  sim.run_until(SimTime(Duration::micros(10'000'100).ns()));

  // Each stats() read below also settles the lazy energy credit of any
  // in-progress park (probe is off-lattice, so both modes agree on which
  // TX/listen intervals have completed by now).
  if (inq) {
    r.ids_sent = inq->stats().ids_sent;
    r.responses = inq->stats().fhs_received;
    r.ids_heard = scan->stats().ids_heard;
  } else {
    r.ids_sent = pager->stats().ids_sent;
    r.responses = pager->stats().pages_succeeded;
    r.pages_failed = pager->stats().pages_failed;
    r.ids_heard = pscan->stats().pages_heard;
  }
  r.tx_ns = master.energy().tx_time.ns();
  r.listen_ns = master.energy().listen_time.ns();
  // Stopping retires the final park, settling its elisions into the counter
  // (while parked, only the lazy stats() view is current).
  if (inq) {
    inq->stop();
    scan->stop();
  } else {
    pager->cancel();
    pscan->stop();
  }
  r.skipped = sim.obs().metrics.counter_value("kernel.skipped_slots");
  r.wakeups = sim.obs().metrics.counter_value("radio.occ_wakeups");
  return r;
}

// The comparisons every procedure's trial must pass.
void expect_modes_agree(const TrialResult& ex, const TrialResult& ff,
                        const std::string& label) {
  // Fast-forward must reach the target at the exact path's instants -- a
  // wake that misses the 1250 us lattice by even one half-slot
  // desynchronises the train sweep and shows up here.
  EXPECT_EQ(ex.reached_ns, ff.reached_ns) << label;

  // Every observable statistic matches: the elided slots are credited as if
  // they had run.
  EXPECT_EQ(ex.ids_sent, ff.ids_sent) << label;
  EXPECT_EQ(ex.ids_heard, ff.ids_heard) << label;
  EXPECT_EQ(ex.responses, ff.responses) << label;
  EXPECT_EQ(ex.pages_failed, ff.pages_failed) << label;

  // The energy ledger is mode-invariant too: a mid-park read credits the
  // elided TX/listen time lazily, pinned to the same completed intervals
  // the exact path accounted.
  EXPECT_GT(ex.tx_ns, 0) << label;
  EXPECT_EQ(ex.tx_ns, ff.tx_ns) << label;
  EXPECT_GT(ex.listen_ns, 0) << label;
  EXPECT_EQ(ex.listen_ns, ff.listen_ns) << label;

  // Mode bookkeeping: exact mode never parks. Fast-forward parked before
  // the target arrived, in every scan gap while it was near (hence >= 2
  // occupancy wakeups: each wake implies the master had re-idled first),
  // and for the whole post-departure stretch -- the final 3 s alone elide
  // > 2000 slot activations.
  EXPECT_EQ(ex.skipped, 0u) << label;
  EXPECT_EQ(ex.wakeups, 0u) << label;
  EXPECT_GE(ff.wakeups, 2u) << label;
  EXPECT_GT(ff.skipped, 2000u) << label;
}

TEST(FastForward, RangeTransitionsWakeAndReidleOnTheExactSlotBoundary) {
  for (const bool spatial_grid : {false, true}) {
    for (std::uint64_t seed = 31; seed < 36; ++seed) {
      const TrialResult ex = range_transition_trial(
          Procedure::kInquiry, seed, /*exact=*/true, spatial_grid);
      const TrialResult ff = range_transition_trial(
          Procedure::kInquiry, seed, /*exact=*/false, spatial_grid);
      const std::string label = (spatial_grid ? "grid" : "flat") +
                                std::string(", seed ") + std::to_string(seed);
      EXPECT_EQ(ex.reached_ns.size(), 1u) << label;  // one session, one FHS
      expect_modes_agree(ex, ff, label);
    }
  }
}

TEST(FastForward, PagerRangeTransitionsMatchTheExactSweep) {
  for (const bool spatial_grid : {false, true}) {
    for (std::uint64_t seed = 31; seed < 51; ++seed) {
      const TrialResult ex = range_transition_trial(
          Procedure::kPage, seed, /*exact=*/true, spatial_grid);
      const TrialResult ff = range_transition_trial(
          Procedure::kPage, seed, /*exact=*/false, spatial_grid);
      const std::string label = (spatial_grid ? "grid" : "flat") +
                                std::string(", seed ") + std::to_string(seed);
      expect_modes_agree(ex, ff, label);
      // The target was paged in range at every window of the 4.5 s stretch,
      // and the pages begun out of range (before 2.5 s and after 7 s)
      // ended in timeouts -- under fast-forward, while parked.
      EXPECT_GE(ex.reached_ns.size(), 5u) << label;
      EXPECT_GE(ex.pages_failed, 4u) << label;
    }
  }
}

TEST(FastForward, PagerExchangeTimeoutsResumeTheSweepInBothModes) {
  // On a lossy channel some exchanges lose the FHS or the ack after the
  // target answered: the pager pauses its sweep on the answer, and resumes
  // it at the next even slot when the ack times out. The FHS count, read
  // off the TX ledger (68 us per ID, 366 us per FHS), exceeds the successes
  // when some exchange was abandoned after its FHS.
  std::uint64_t reached = 0;
  std::uint64_t abandoned = 0;
  for (std::uint64_t seed = 31; seed < 51; ++seed) {
    const TrialResult ex = range_transition_trial(
        Procedure::kPage, seed, /*exact=*/true, /*spatial_grid=*/false, 0.3);
    const TrialResult ff = range_transition_trial(
        Procedure::kPage, seed, /*exact=*/false, /*spatial_grid=*/false, 0.3);
    const std::string label = "seed " + std::to_string(seed);
    expect_modes_agree(ex, ff, label);
    const std::int64_t fhs_ns =
        ex.tx_ns - static_cast<std::int64_t>(ex.ids_sent) * 68'000;
    ASSERT_EQ(fhs_ns % 366'000, 0) << label;
    reached += ex.reached_ns.size();
    abandoned += static_cast<std::uint64_t>(fhs_ns / 366'000) - ex.responses;
  }
  EXPECT_GT(reached, 0u);
  EXPECT_GT(abandoned, 0u);
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

// Both lazy counters of a lone sweep, read mid-park at instants on the TX
// slot grid, on the second ID's half-slot and off the lattice. Every reader
// is scheduled before the sweep starts, so at a shared instant it runs
// before that instant's slot or second ID, in both modes.
struct CounterReads {
  std::vector<std::uint64_t> ids, switches;
  std::uint64_t skipped = 0;
};
// TX slots read at (8j + 7 ends a train of one repetition).
constexpr std::uint64_t kReadSlots[] = {0, 1, 7, 8, 15, 16, 23, 400, 807};

CounterReads lone_sweep_reads(bool exact) {
  ChannelConfig ch;
  ch.exact_slots = exact;
  sim::Simulator sim;
  Rng rng(3);
  RadioChannel radio(sim, rng, ch);
  Device master(sim, radio, BdAddr(0xA1), rng.fork());
  // One repetition per train: a train is 8 TX slots, 10 ms.
  TrainSweep sweep(master, /*train_repetitions=*/1, /*switch_trains=*/true,
                   [](const Packet&, RfChannel, SimTime) {});
  Packet id;
  id.type = PacketType::kId;
  id.sender = master.addr();
  const SimTime t0 = master.clock().next_even_slot(SimTime(0));
  CounterReads r;
  for (const std::uint64_t k : kReadSlots) {
    for (const Duration off :
         {Duration(0), kHalfSlot, Duration::micros(100),
          Duration::micros(700)}) {
      sim.schedule_at(t0 + k * (2 * kSlot) + off, [&] {
        r.ids.push_back(sweep.ids_sent());
        r.switches.push_back(sweep.train_switches());
      });
    }
  }
  sweep.start(0, 0, id, t0);
  sim.run_until(t0 + 900 * (2 * kSlot));
  sweep.stop();
  r.skipped = sim.obs().metrics.counter_value("kernel.skipped_slots");
  return r;
}

TEST(FastForward, MidParkCountersMatchTheExactSweepOnAndOffTheSlotGrid) {
  const CounterReads ex = lone_sweep_reads(/*exact=*/true);
  const CounterReads ff = lone_sweep_reads(/*exact=*/false);
  EXPECT_EQ(ex.ids, ff.ids);
  EXPECT_EQ(ex.switches, ff.switches);
  EXPECT_EQ(ex.skipped, 0u);
  EXPECT_GT(ff.skipped, 800u);  // parked from the first slot on
  // The exact sweep's counts by construction: a read at TX slot k's
  // instant precedes it, and one on its half-slot or at +100 us precedes
  // its second ID.
  std::size_t i = 0;
  for (const std::uint64_t k : kReadSlots) {
    for (const int off : {0, 1, 2, 3}) {  // on grid, half-slot, 100, 700 us
      const std::uint64_t slots_run = off == 0 ? k : k + 1;
      const std::uint64_t second_pending = off == 1 || off == 2 ? 1 : 0;
      ASSERT_LT(i, ex.ids.size());
      EXPECT_EQ(ex.ids[i], 2 * slots_run - second_pending) << k << " " << off;
      EXPECT_EQ(ex.switches[i], slots_run / 8) << k << " " << off;
      ++i;
    }
  }
}

TEST(FastForward, LoneInquirerCountsTrainSwitchesAlikeInBothModes) {
  // A 256-repetition train lasts 2.56 s, so by 6 s the sweep has switched
  // trains twice; fast-forward counts them while still parked.
  std::uint64_t switches[2] = {}, ids[2] = {};
  for (const bool exact : {true, false}) {
    ChannelConfig ch;
    ch.exact_slots = exact;
    sim::Simulator sim;
    Rng rng(7);
    RadioChannel radio(sim, rng, ch);
    Device master(sim, radio, BdAddr(0xA1), rng.fork());
    Inquirer inq(master, InquiryConfig{}, nullptr);
    sim.schedule_at(SimTime(Duration::seconds(6).ns()), [&, exact] {
      switches[exact] = inq.stats().train_switches;
      ids[exact] = inq.stats().ids_sent;
    });
    inq.start();
    sim.run_until(SimTime(Duration::seconds(7).ns()));
  }
  EXPECT_EQ(switches[1], 2u);
  EXPECT_EQ(switches[0], switches[1]);
  EXPECT_EQ(ids[0], ids[1]);
}

// ---- TrainSweep wake reconstruction, probed directly -------------------

struct SweepProbeResult {
  // (end ns, channel index) of every ID the probe heard, and of every
  // packet the sweep's response windows received.
  std::vector<std::pair<std::int64_t, std::uint32_t>> heard;
  std::vector<std::pair<std::int64_t, std::uint32_t>> responses;
  std::uint64_t ids_sent = 0;
  std::int64_t tx_ns = 0;
  std::int64_t listen_ns = 0;
  std::uint64_t skipped = 0;
};

// A bare TrainSweep (one repetition per train, so parks straddle train
// switches) and a probe 3 m away. In each round the probe sends an ID on all
// 32 channels of the sweep's namespace, then opens listens on all 32 for
// 3 ms, which wakes a parked sweep; the rounds are 37 TX slots apart, so the
// sweep re-parks in between. Relative to the TX slot L at or before the
// wake, the four kinds of round cover each part of a wake:
//   window L+130 us, IDs at L+100 us: replayed second ID; the in-flight IDs
//     land in the rebuilt pair of slot L.
//   window L+20 us, IDs at L-30 us: replayed second ID; both pairs rebuilt,
//     the IDs land in the older one (slot L-1250 us, open until L+60 us).
//   window L+625 us, IDs at L+600 us: no replay; rebuilt pair of slot L.
//   window L (on the lattice), IDs at L-30 us: the slot at L runs in both
//     modes; the IDs land in the rebuilt pair of slot L-1250 us.
// No in-flight ID overlaps an ID the sweep sent before the wake, which only
// the exact path transmits.
SweepProbeResult sweep_probe_trial(bool exact) {
  ChannelConfig ch;
  ch.exact_slots = exact;
  sim::Simulator sim;
  Rng rng(9);
  RadioChannel radio(sim, rng, ch);
  Device master(sim, radio, BdAddr(0xA1), rng.fork());
  Device probe(sim, radio, BdAddr(0xB1), rng.fork(), {3, 0});
  constexpr std::uint32_t kNs = 7;

  SweepProbeResult r;
  TrainSweep sweep(master, /*train_repetitions=*/1, /*switch_trains=*/true,
                   [&r](const Packet&, RfChannel c, SimTime end) {
                     r.responses.emplace_back(end.ns(), c.index);
                   });
  Packet id;
  id.type = PacketType::kId;
  id.sender = master.addr();
  id.access_code = probe.addr();
  const SimTime t0 = master.clock().next_even_slot(SimTime(0));
  sweep.start(kNs, 3, id, t0);

  struct Round {
    Duration window;
    Duration ids;
  };
  const Round kinds[] = {
      {Duration::micros(130), Duration::micros(100)},
      {Duration::micros(20), Duration::micros(-30)},
      {Duration::micros(625), Duration::micros(600)},
      {Duration(0), Duration::micros(-30)},
  };
  Packet probe_id = id;
  probe_id.sender = probe.addr();
  std::vector<baseband::ListenId> listens;
  constexpr int kRounds = 32;
  for (int i = 0; i < kRounds; ++i) {
    const SimTime slot = t0 + (20 + 37 * i) * (2 * kSlot);
    const Round& k = kinds[i % 4];
    sim.schedule_at(slot + k.ids, [&radio, &probe, probe_id] {
      for (std::uint32_t c = 0; c < baseband::kChannelsPerSet; ++c) {
        radio.transmit(&probe, RfChannel{kNs, c}, probe_id);
      }
    });
    sim.schedule_at(slot + k.window, [&] {
      for (std::uint32_t c = 0; c < baseband::kChannelsPerSet; ++c) {
        listens.push_back(radio.start_listen(
            &probe, RfChannel{kNs, c},
            [&r](const Packet&, RfChannel hc, SimTime end) {
              r.heard.emplace_back(end.ns(), hc.index);
            }));
      }
    });
    sim.schedule_at(slot + k.window + Duration::millis(3), [&] {
      for (const baseband::ListenId l : listens) radio.stop_listen(l);
      listens.clear();
    });
  }
  // Off the 312.5 us lattice, like range_transition_trial's probe.
  sim.run_until(t0 + (20 + 37 * kRounds) * (2 * kSlot) + Duration::micros(100));
  r.ids_sent = sweep.ids_sent();
  r.tx_ns = master.energy().tx_time.ns();
  r.listen_ns = master.energy().listen_time.ns();
  sweep.stop();
  r.skipped = sim.obs().metrics.counter_value("kernel.skipped_slots");
  return r;
}

TEST(FastForward, TrainSweepWakeRebuildsTheExactSlotState) {
  const SweepProbeResult ex = sweep_probe_trial(/*exact=*/true);
  const SweepProbeResult ff = sweep_probe_trial(/*exact=*/false);
  // Every round's in-flight IDs land in exactly one response pair.
  EXPECT_EQ(ex.responses.size(), 64u);
  EXPECT_EQ(ex.responses, ff.responses);
  EXPECT_FALSE(ex.heard.empty());
  EXPECT_EQ(ex.heard, ff.heard);
  EXPECT_EQ(ex.ids_sent, ff.ids_sent);
  EXPECT_EQ(ex.tx_ns, ff.tx_ns);
  EXPECT_EQ(ex.listen_ns, ff.listen_ns);
  EXPECT_EQ(ex.skipped, 0u);
  EXPECT_GT(ff.skipped, 1000u);
}

// ---- what a parked inquiry sweep's skipped IDs could reach --------------

// Inquirers (optional second one) against one inquiry scanner held on a
// fixed channel, run exact and fast-forward. The second master B sits 9 m
// from the master under test A, and A's sweep runs exactly 625 us behind
// B's: A then sends each hop exactly when an FHS answering B's ID on that
// hop starts, so while A drums, an FHS from a scanner in B's range dies at
// B under A's ID (B lies in A's range) -- the interference chain a hold
// covers.
struct ParkWorld {
  Vec2 scanner_pos{5, 0};
  std::uint32_t scan_channel = 3;  // train A
  int train_repetitions = kNInquiry;
  bool switch_trains = true;
  bool second_master = false;
  Duration run = Duration::seconds(10);
};

struct ParkResult {
  // Every first FHS of a session, as (master, instant); a session is
  // restarted every 2 s so one run reaches the scanner several times.
  std::vector<std::pair<int, std::int64_t>> reached;
  std::vector<std::uint64_t> ids_sent, fhs_received;  // per master
  std::vector<std::int64_t> tx_ns, listen_ns;         // per master
  std::uint64_t ids_heard = 0, fhs_sent = 0;          // the scanner
  std::uint64_t skipped = 0, wakeups = 0;
};

ParkResult park_trial(const ParkWorld& w, std::uint64_t seed, bool exact) {
  ChannelConfig ch;
  ch.exact_slots = exact;
  sim::Simulator sim;
  Rng rng(seed);
  RadioChannel radio(sim, rng, ch);
  std::vector<std::unique_ptr<Device>> masters;
  masters.push_back(
      std::make_unique<Device>(sim, radio, BdAddr(0xA1), rng.fork()));
  if (w.second_master) {
    // B's clock must run 2 ticks (625 us) ahead of A's on the slot grid, so
    // that A's TX slots start 625 us into B's; draw B's stream until it is.
    const std::uint32_t a_phase = masters[0]->clock().phase_ticks();
    for (;;) {
      auto b = std::make_unique<Device>(sim, radio, BdAddr(0xA2), rng.fork(),
                                        Vec2{9, 0});
      if (((b->clock().phase_ticks() - a_phase) & 3u) == 2u) {
        masters.push_back(std::move(b));
        break;
      }
    }
  }
  Device slave(sim, radio, BdAddr(0xB1), rng.fork(), w.scanner_pos);

  ParkResult r;
  InquiryConfig icfg;
  icfg.train_repetitions = w.train_repetitions;
  icfg.switch_trains = w.switch_trains;
  std::vector<std::unique_ptr<Inquirer>> inqs;
  for (std::size_t m = 0; m < masters.size(); ++m) {
    inqs.push_back(std::make_unique<Inquirer>(
        *masters[m], icfg, [&r, &sim, m](const InquiryResponse&) {
          r.reached.emplace_back(static_cast<int>(m), sim.now().ns());
        }));
  }
  ScanConfig scfg;
  scfg.window = Duration::millis(320);
  scfg.interval = Duration::millis(640);
  scfg.channel_mode = ScanChannelMode::kFixed;
  InquiryScanner scan(slave, scfg, BackoffConfig{});
  scan.set_initial_channel(w.scan_channel);
  scan.start_with_phase(Duration(0));

  // B starts at its first even slot and A 625 us later, on an even slot of
  // A's clock. Sessions restart every 2 s.
  const SimTime b_start = masters.back()->clock().next_even_slot(SimTime(0));
  const SimTime a_start =
      w.second_master ? b_start + 2 * kHalfSlot : b_start;
  for (SimTime t = SimTime(0); t < SimTime(w.run.ns());
       t = t + Duration::seconds(2)) {
    sim.schedule_at(t + (a_start - SimTime(0)), [&inqs] {
      inqs[0]->stop();
      inqs[0]->start();
    });
    if (w.second_master) {
      sim.schedule_at(t + (b_start - SimTime(0)), [&inqs] {
        inqs[1]->stop();
        inqs[1]->start();
      });
    }
  }
  // Off the 312.5 us lattice (see range_transition_trial).
  sim.run_until(SimTime(w.run.ns()) + Duration::micros(100));
  for (std::size_t m = 0; m < masters.size(); ++m) {
    r.ids_sent.push_back(inqs[m]->stats().ids_sent);
    r.fhs_received.push_back(inqs[m]->stats().fhs_received);
    r.tx_ns.push_back(masters[m]->energy().tx_time.ns());
    r.listen_ns.push_back(masters[m]->energy().listen_time.ns());
  }
  r.ids_heard = scan.stats().ids_heard;
  r.fhs_sent = scan.stats().fhs_sent;
  for (auto& inq : inqs) inq->stop();
  scan.stop();
  r.skipped = sim.obs().metrics.counter_value("kernel.skipped_slots");
  r.wakeups = sim.obs().metrics.counter_value("radio.occ_wakeups");
  return r;
}

void expect_parks_agree(const ParkResult& ex, const ParkResult& ff,
                        const std::string& label) {
  EXPECT_EQ(ex.reached, ff.reached) << label;
  EXPECT_EQ(ex.ids_sent, ff.ids_sent) << label;
  EXPECT_EQ(ex.fhs_received, ff.fhs_received) << label;
  EXPECT_EQ(ex.tx_ns, ff.tx_ns) << label;
  EXPECT_EQ(ex.listen_ns, ff.listen_ns) << label;
  EXPECT_EQ(ex.ids_heard, ff.ids_heard) << label;
  EXPECT_EQ(ex.fhs_sent, ff.fhs_sent) << label;
  EXPECT_EQ(ex.skipped, 0u) << label;
}

TEST(FastForward, ScannerOnTheOtherTrainKeepsNoMasterAwake) {
  // The master sweeps train A only; the scanner, in range, listens on a
  // train B hop. No ID of the train can reach it, so the master parks for
  // the whole run and no listen wakes it.
  ParkWorld w;
  w.scan_channel = 20;
  w.switch_trains = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    const ParkResult ex = park_trial(w, seed, /*exact=*/true);
    const ParkResult ff = park_trial(w, seed, /*exact=*/false);
    expect_parks_agree(ex, ff, label);
    EXPECT_EQ(ex.ids_heard, 0u) << label;
    EXPECT_EQ(ff.wakeups, 0u) << label;
    EXPECT_GT(ff.skipped, 7900u) << label;  // 8000 TX slots in 10 s
  }
}

TEST(FastForward, ScannerBetweenTheListenReachAndFfRadiusKeepsNoMasterAwake) {
  // 15 m: beyond listen_reach() (12 m), within ff_radius() (22 m). The
  // scanner's listens are on the master's train but out of its range.
  ParkWorld w;
  w.scanner_pos = {15, 0};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    const ParkResult ex = park_trial(w, seed, /*exact=*/true);
    const ParkResult ff = park_trial(w, seed, /*exact=*/false);
    expect_parks_agree(ex, ff, label);
    EXPECT_EQ(ex.ids_heard, 0u) << label;
    EXPECT_EQ(ff.wakeups, 0u) << label;
    EXPECT_GT(ff.skipped, 7900u) << label;
  }
}

TEST(FastForward, HoldWakesAMasterWhoseIdWouldDestroyAnFhsAtAnotherMaster) {
  // The scanner, 17 m from A and 8 m from B, answers B. Its listens are
  // beyond A's listen_reach(), but each committed FHS registers a hold
  // within ff_radius() of A: A wakes and drums, and its ID on the FHS's
  // hop destroys the FHS at B, exactly as the exact drum does.
  ParkWorld w;
  w.scanner_pos = {17, 0};
  w.scan_channel = 4;
  w.second_master = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    const ParkResult ex = park_trial(w, seed, /*exact=*/true);
    const ParkResult ff = park_trial(w, seed, /*exact=*/false);
    expect_parks_agree(ex, ff, label);
    EXPECT_GT(ex.fhs_sent, 5u) << label;
    EXPECT_EQ(ex.fhs_received[1], 0u) << label;  // every one died at B
    EXPECT_GT(ff.wakeups, 5u) << label;
    EXPECT_GT(ff.skipped, 4000u) << label;
  }
}

TEST(FastForward, ParkAcrossATrainSwitchWakesForTheNextTrain) {
  // Two repetitions per train (20 ms): the scanner's train B hop is dark to
  // every park on train A, which must wake at the switch to train B.
  ParkWorld w;
  w.scan_channel = 20;
  w.train_repetitions = 2;
  std::size_t reached = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    const ParkResult ex = park_trial(w, seed, /*exact=*/true);
    const ParkResult ff = park_trial(w, seed, /*exact=*/false);
    expect_parks_agree(ex, ff, label);
    reached += ex.reached.size();
    EXPECT_GT(ff.skipped, 1000u) << label;
  }
  EXPECT_GT(reached, 3u);
}

TEST(FastForward, CrossSetInterferenceKeepsSweepsExact) {
  // With cross-set interference a transmission destroys packets of other
  // namespaces: the inquirer's IDs kill the pager's at the page scanner,
  // which no occupancy index of the (scanner-free) inquiry namespace sees.
  // Both sweeps must drum every slot, as in exact mode.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<std::int64_t> connected[2];
    std::uint64_t failed[2] = {}, inq_ids[2] = {}, page_ids[2] = {};
    std::int64_t energy[2] = {};
    for (const bool exact : {true, false}) {
      ChannelConfig ch;
      ch.exact_slots = exact;
      ch.cross_set_interference = 1.0;
      sim::Simulator sim;
      Rng rng(seed);
      RadioChannel radio(sim, rng, ch);
      Device inq_dev(sim, radio, BdAddr(0xA1), rng.fork());
      Device pager_dev(sim, radio, BdAddr(0xA2), rng.fork(), {3, 0});
      Device slave(sim, radio, BdAddr(0xB1), rng.fork(), {5, 0});
      Inquirer inq(inq_dev, InquiryConfig{}, nullptr);
      Pager pager(pager_dev, PageConfig{});
      ScanConfig scfg;
      scfg.window = Duration::millis(320);
      scfg.interval = Duration::millis(640);
      PageScanner pscan(slave, scfg);
      const auto page = [&] {
        pager.page(slave.addr(), slave.clock().clkn(sim.now()), sim.now());
      };
      pager.set_on_success([&](BdAddr, SimTime when) {
        connected[exact].push_back(when.ns());
        page();
      });
      pager.set_on_failure([&](BdAddr) { page(); });
      pscan.set_on_connected([&](BdAddr, std::uint32_t, SimTime now) {
        pscan.start_with_phase(scfg.interval -
                               Duration(now.ns() % scfg.interval.ns()));
      });
      pscan.start_with_phase(Duration(0));
      inq.start();
      page();
      sim.run_until(SimTime(Duration::micros(20'000'100).ns()));
      failed[exact] = pager.stats().pages_failed;
      inq_ids[exact] = inq.stats().ids_sent;
      page_ids[exact] = pager.stats().ids_sent;
      energy[exact] = inq_dev.energy().radio_on().ns() +
                      pager_dev.energy().radio_on().ns();
      pager.cancel();
      inq.stop();
      pscan.stop();
    }
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_EQ(connected[1], connected[0]) << label;
    EXPECT_EQ(failed[1], failed[0]) << label;
    EXPECT_GT(failed[1], 0u) << label;
    EXPECT_EQ(inq_ids[1], inq_ids[0]) << label;
    EXPECT_EQ(page_ids[1], page_ids[0]) << label;
    EXPECT_EQ(energy[1], energy[0]) << label;
  }
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
