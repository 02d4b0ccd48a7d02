// Sharded parallel kernel (DESIGN.md section 9): the conservative-lookahead
// horizon, ShardGroup mailbox determinism, and the end-to-end contract of
// the sharded full-stack harness -- thread count must not change one byte
// of the discovery history, the tracking grades, or the energy ledgers.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/baseband/radio.hpp"
#include "src/core/parallel.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/plan.hpp"
#include "src/mobility/building.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/shard.hpp"
#include "src/util/geom.hpp"

namespace bips {
namespace {

using core::ShardedBipsSimulation;
using core::ShardedConfig;
using sim::LookaheadInputs;
using sim::ShardGroup;
using sim::conservative_lookahead;
using sim::kUnboundedLookahead;

// ---- conservative-lookahead horizon -------------------------------------

TEST(Lookahead, SingleShardDegeneratesToUnbounded) {
  LookaheadInputs in;
  in.shard_count = 1;
  // Even hostile inputs are fine: with nothing to synchronise against there
  // is no constraint to violate.
  in.lan_latency = Duration(0);
  in.max_speed_mps = 0.0;
  in.seam_margin_m = 0.0;
  const auto w = conservative_lookahead(in, nullptr);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, kUnboundedLookahead);
}

TEST(Lookahead, ZeroLatencyLanIsRejectedWithAClearError) {
  LookaheadInputs in;
  in.shard_count = 2;
  in.lan_latency = Duration(0);
  in.seam_margin_m = 20.0;
  in.max_speed_mps = 2.0;
  std::string err;
  const auto w = conservative_lookahead(in, &err);
  EXPECT_FALSE(w.has_value());
  // The error must say what is wrong and why it is fatal, not just "bad
  // config": a zero-latency LAN admits no conservative window at all.
  EXPECT_NE(err.find("zero-latency"), std::string::npos) << err;
}

TEST(Lookahead, ZeroShardsAndNonPositiveBoundsAreRejected) {
  LookaheadInputs in;
  in.shard_count = 0;
  std::string err;
  EXPECT_FALSE(conservative_lookahead(in, &err).has_value());

  in.shard_count = 2;
  in.lan_latency = Duration::millis(5);
  in.seam_margin_m = 20.0;
  in.max_speed_mps = 0.0;
  EXPECT_FALSE(conservative_lookahead(in, &err).has_value());

  in.max_speed_mps = 2.0;
  in.seam_margin_m = 0.0;
  EXPECT_FALSE(conservative_lookahead(in, &err).has_value());
}

TEST(Lookahead, HorizonShrinksAsTheSpeedBoundGrows) {
  LookaheadInputs in;
  in.shard_count = 4;
  in.lan_latency = Duration::seconds(1000);  // LAN leg never binds here
  in.seam_margin_m = 21.0;
  Duration prev = Duration(INT64_MAX);
  for (const double v : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    in.max_speed_mps = v;
    const auto w = conservative_lookahead(in, nullptr);
    ASSERT_TRUE(w.has_value());
    // Faster walkers close the seam margin sooner: strictly less lookahead.
    EXPECT_LT(*w, prev) << "speed " << v;
    EXPECT_EQ(*w, Duration::from_seconds(in.seam_margin_m / v));
    prev = *w;
  }
}

TEST(Lookahead, MinOfLanAndWalkLegsBinds) {
  LookaheadInputs in;
  in.shard_count = 2;
  in.lan_latency = Duration::millis(5);
  in.seam_margin_m = 20.0;
  in.max_speed_mps = 2.0;  // walk leg: 10 s >> LAN leg: 5 ms
  auto w = conservative_lookahead(in, nullptr);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, Duration::millis(5));

  in.lan_latency = Duration::seconds(60);  // now the walk leg binds
  w = conservative_lookahead(in, nullptr);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, Duration::from_seconds(10.0));
}

TEST(Lookahead, SeamMarginFollowsTheRadioOccupancyConvention) {
  // One invariant, two call sites: the seam margin a shard trusts must be
  // the same 2 * range + slack radius the radio's fast-forward occupancy
  // wakeups use. ff_radius_for is the shared definition.
  EXPECT_DOUBLE_EQ(baseband::RadioChannel::ff_radius_for(10.0, 1.0), 21.0);
  ShardedConfig cfg;
  cfg.base.coverage_radius_m = 10.0;
  cfg.base.channel.ff_slack_m = 1.0;
  cfg.base.lan.base_latency = Duration::seconds(60);  // LAN leg never binds
  cfg.uplink_extra = Duration(0);
  cfg.shards = 2;
  const double v = cfg.base.workstation.scheduler.piconet.ff_max_speed_mps;
  const auto w = ShardedBipsSimulation::derive_window(cfg, nullptr);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, Duration::from_seconds(
                    baseband::RadioChannel::ff_radius_for(10.0, 1.0) / v));
}

TEST(Lookahead, DeriveWindowSurfacesTheZeroLatencyLanError) {
  ShardedConfig cfg;
  cfg.base.lan.base_latency = Duration(0);
  cfg.base.lan.jitter = Duration(0);
  cfg.uplink_extra = Duration(0);
  cfg.shards = 4;  // one shard needs no window at all
  std::string err;
  EXPECT_FALSE(ShardedBipsSimulation::derive_window(cfg, &err).has_value());
  EXPECT_NE(err.find("zero-latency"), std::string::npos) << err;
}

// ---- ShardGroup mailbox determinism -------------------------------------

// A synthetic cross-shard workload: every shard runs a periodic event that
// appends to its own log and mails an append to the next shard one window
// ahead. The final logs must not depend on the worker count.
std::vector<std::string> run_ring(unsigned threads) {
  constexpr std::size_t kShards = 4;
  const Duration window = Duration::millis(10);
  ShardGroup group(kShards);
  std::vector<std::string> log(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    for (int i = 0; i < 50; ++i) {
      group.shard(k).schedule_at(
          SimTime::zero() + Duration::millis(3 * i + 1),
          [&group, &log, window, k, i] {
            log[k] += "tick:" + std::to_string(i) + ";";
            const std::size_t dst = (k + 1) % kShards;
            group.post(k, dst, group.shard(k).now() + window,
                       [&log, dst, k, i] {
                         log[dst] += "mail-from:" + std::to_string(k) + ":" +
                                     std::to_string(i) + ";";
                       });
          });
    }
  }
  group.run_until(SimTime::zero() + Duration::millis(500), window, threads);
  EXPECT_GT(group.mail_delivered(), 0u);
  EXPECT_GT(group.windows_run(), 0u);
  return log;
}

TEST(ShardGroupDeterminism, MailboxDrainOrderIsThreadCountInvariant) {
  const auto one = run_ring(1);
  const auto two = run_ring(2);
  const auto four = run_ring(4);
  const auto eight = run_ring(8);  // more workers than shards: clamped
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

// ---- ShardGroup observation points --------------------------------------

// Shard k runs one event every millisecond, offset by k * 0.25 ms. Each
// observer checks every shard against that schedule: exactly the events at
// or before its instant have run.
void check_observers_see_the_cut(unsigned threads) {
  constexpr std::size_t kShards = 4;
  constexpr int kEvents = 100;
  const auto event_at = [](std::size_t k, int i) {
    return SimTime::zero() +
           Duration::micros(1000 * i + 250 * static_cast<std::int64_t>(k));
  };
  ShardGroup group(kShards);
  std::vector<int> ran(kShards, 0);
  for (std::size_t k = 0; k < kShards; ++k) {
    for (int i = 0; i < kEvents; ++i) {
      group.shard(k).schedule_at(event_at(k, i), [&ran, k] { ++ran[k]; });
    }
  }
  // Inside 10 ms windows, two of them on an event's own instant.
  const std::vector<SimTime> points = {
      event_at(1, 13), SimTime::zero() + Duration::micros(37'600),
      event_at(3, 71), SimTime::zero() + Duration::micros(71'900)};
  std::size_t observed = 0;
  for (const SimTime t : points) {
    group.observe_at(t, [&group, &ran, &observed, event_at, t] {
      ++observed;
      EXPECT_EQ(group.now(), t);
      for (std::size_t k = 0; k < kShards; ++k) {
        int want = 0;
        for (int i = 0; i < kEvents; ++i) want += event_at(k, i) <= t ? 1 : 0;
        EXPECT_EQ(ran[k], want) << "shard " << k << " at " << t.to_seconds();
        EXPECT_EQ(group.shard(k).now(), t);
      }
    });
  }
  group.run_until(SimTime::zero() + Duration::millis(120),
                  Duration::millis(10), threads);
  EXPECT_EQ(observed, points.size());
  EXPECT_EQ(group.windows_run(), 12u);  // observing splits no window
}

TEST(ObservationPoints, MidWindowObserverSeesExactlyTheEventsAtOrBeforeIt) {
  check_observers_see_the_cut(1);
  check_observers_see_the_cut(4);
}

TEST(ObservationPoints, WindowEdgeIsObservedAfterThatBarriersHook) {
  ShardGroup group(2);
  const Duration window = Duration::millis(10);
  // Mail posted in the second window is drained at its edge (20 ms), and
  // the hook has run there, before the edge's observer.
  group.shard(0).schedule_at(SimTime::zero() + Duration::millis(15), [&] {
    group.post(0, 1, SimTime::zero() + Duration::millis(25), [] {});
  });
  SimTime last_hook = SimTime::zero();
  group.set_window_hook([&last_hook](SimTime edge) { last_hook = edge; });
  const SimTime edge = SimTime::zero() + Duration::millis(20);
  bool observed = false;
  group.observe_at(edge, [&] {
    observed = true;
    EXPECT_EQ(last_hook, edge);
    EXPECT_EQ(group.now(), edge);
    EXPECT_EQ(group.windows_run(), 2u);
    EXPECT_EQ(group.mail_delivered(), 1u);
  });
  group.run_until(SimTime::zero() + Duration::millis(40), window, 2);
  EXPECT_TRUE(observed);
}

TEST(ObservationPoints, ObserverCanRegisterALaterObserver) {
  ShardGroup group(2);
  std::vector<std::string> log;
  const auto at = [](int ms) { return SimTime::zero() + Duration::millis(ms); };
  const auto note = [&](const char* what) {
    log.push_back(std::string(what) + "@" +
                  std::to_string(group.now().ns() / 1'000'000));
  };
  group.observe_at(at(5), [&] {
    note("a");
    group.observe_at(at(33), [&] {
      note("c");
      group.observe_at(at(70), [&] { note("d"); });  // past this run
    });
    group.observe_at(at(5), [&] { note("b"); });  // same instant: runs next
  });
  group.run_until(at(50), Duration::millis(10), 2);
  EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@5", "c@33"}));
  group.run_until(at(100), Duration::millis(10), 2);
  EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@5", "c@33", "d@70"}));
}

// ---- sharded full-stack equivalence -------------------------------------

struct ShardedRun {
  std::string history;
  std::string queries;  // canonical dump of every query kind's answers
  core::TrackingMetrics tracking;
  std::int64_t energy_tx_ns = 0;
  std::int64_t energy_listen_ns = 0;
  std::uint64_t mail = 0;
  std::size_t handoffs_seen = 0;
  std::size_t shard_count = 0;
};

/// Serialises a QueryResult canonically so answers can be diffed across
/// thread counts and service shard counts.
void dump_result(std::ostringstream& os, const proto::QueryResult& r) {
  os << static_cast<int>(r.status) << '|' << r.room << '|';
  for (const auto& u : r.users) os << u << ',';
  os << '|';
  for (const auto& room : r.rooms) os << room << ',';
  os << '|' << r.distance << '|' << r.was_present << '|' << r.since.ns()
     << '|';
  for (const auto& v : r.visits) {
    os << v.room << (v.entered ? '+' : '-') << v.at.ns() << ',';
  }
  os << '\n';
}

/// The end-of-run query battery: where-is and history-since for every
/// user, who-is-in for every room, where-was at a spread of instants.
std::string dump_queries(ShardedBipsSimulation& sim, double sim_seconds) {
  using Query = core::BipsServer::Query;
  core::BipsServer& server = sim.server();
  std::ostringstream os;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "User " + std::to_string(i);
    dump_result(os, server.query(Query::where_is("", name)));
    dump_result(os, server.query(Query::history_since("", name,
                                                      SimTime::zero())));
    for (double frac : {0.25, 0.5, 0.75}) {
      dump_result(os, server.query(Query::where_was(
                          "", name,
                          SimTime(Duration::from_seconds(sim_seconds * frac)
                                      .ns()))));
    }
  }
  for (const mobility::Room& room : sim.building().rooms()) {
    dump_result(os, server.query(Query::who_is_in("", room.name)));
  }
  return os.str();
}

ShardedRun run_sharded(unsigned threads, std::size_t shards,
                       double sim_seconds,
                       Duration pause_min = Duration::seconds(1),
                       Duration pause_max = Duration::seconds(4),
                       std::size_t zones = 0) {
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'0001ull;
  cfg.base.stagger_inquiry = true;
  // Default: a restless population, so walks (and seam crossings) happen
  // within a short simulated horizon.
  cfg.base.mobility.pause_min = pause_min;
  cfg.base.mobility.pause_max = pause_max;
  cfg.shards = shards;
  cfg.base.server.zones = zones;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 12; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i % 8));
  }
  sim.enable_tracking_metrics(Duration::seconds(2));
  sim.run_for(Duration::from_seconds(sim_seconds), threads);

  ShardedRun out;
  out.shard_count = sim.shard_count();
  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.queries = dump_queries(sim, sim_seconds);
  out.tracking = sim.tracking();
  for (std::size_t s = 0; s < sim.workstation_count(); ++s) {
    auto& ws = sim.workstation(static_cast<core::StationId>(s));
    ws.scheduler().inquirer().stats();
    ws.scheduler().pager().stats();
    ws.scheduler().piconet().stats();
    out.energy_tx_ns += ws.device().energy().tx_time.ns();
    out.energy_listen_ns += ws.device().energy().listen_time.ns();
  }
  out.mail = sim.group().mail_delivered();
  for (int i = 0; i < 12; ++i) {
    const std::size_t start = sim.shard_of_station(
        static_cast<core::StationId>(i % 8));
    if (sim.owner_shard("u" + std::to_string(i)) != start) {
      ++out.handoffs_seen;
    }
  }
  return out;
}

TEST(ShardedSimulation, ByteIdenticalAcrossThreadCounts) {
  const ShardedRun one = run_sharded(1, 4, 120.0);
  const ShardedRun four = run_sharded(4, 4, 120.0);

  // The workload must actually exercise the parallel machinery, or the
  // equivalence below is vacuous: cross-shard LAN mail flows and at least
  // one user ends the run owned by a different zone than it started in.
  EXPECT_GT(one.shard_count, 1u);
  EXPECT_GT(one.mail, 0u);
  EXPECT_GT(one.handoffs_seen, 0u);
  EXPECT_FALSE(one.history.empty());
  EXPECT_NE(one.history.find("enter"), std::string::npos);

  EXPECT_EQ(one.history, four.history);
  // The unified Query API answers byte-identically at every thread count
  // (same partitioned service, same ingest order)...
  EXPECT_FALSE(one.queries.empty());
  EXPECT_EQ(one.queries, four.queries);
  // ... and with the location service collapsed to a single database under
  // the same sharded simulator: the partitioning is invisible to queries.
  const ShardedRun single_db =
      run_sharded(4, 4, 120.0, Duration::seconds(1), Duration::seconds(4),
                  /*zones=*/1);
  EXPECT_EQ(one.queries, single_db.queries);
  EXPECT_EQ(one.history, single_db.history);
  EXPECT_EQ(one.tracking.samples, four.tracking.samples);
  EXPECT_EQ(one.tracking.correct_room, four.tracking.correct_room);
  EXPECT_EQ(one.tracking.wrong_room, four.tracking.wrong_room);
  EXPECT_EQ(one.tracking.false_absent, four.tracking.false_absent);
  EXPECT_EQ(one.tracking.false_present, four.tracking.false_present);
  EXPECT_EQ(one.energy_tx_ns, four.energy_tx_ns);
  EXPECT_EQ(one.energy_listen_ns, four.energy_listen_ns);
  EXPECT_EQ(one.mail, four.mail);
  EXPECT_EQ(one.handoffs_seen, four.handoffs_seen);
}

TEST(ShardedSimulation, TracksUsersAcrossSeams) {
  // Handoffs must not break the service: after three minutes of office-pace
  // walking across four zones, the location database still grades well.
  // (The byte-identity test above uses near-constant walkers, where the
  // discovery lag rightly dominates; here the dwells are long enough for
  // the inquiry cycle to keep up, as in the monolithic accuracy tests.)
  // The exact numbers are deterministic; the floor just leaves room for
  // the usual discovery/absence hysteresis lag.
  const ShardedRun r = run_sharded(1, 4, 180.0, Duration::seconds(20),
                                   Duration::seconds(60));
  ASSERT_GT(r.tracking.samples, 0u);
  EXPECT_GT(r.tracking.accuracy(), 0.5)
      << "accuracy " << r.tracking.accuracy();
}

TEST(ShardedSimulation, SingleColumnBuildingClampsToOneShard) {
  // A 4x1 grid has one distinct room-centre x: nothing to slice. The
  // requested 4 shards clamp to 1 and the window degenerates to unbounded
  // (one run_until per run_for; no barriers, no mail).
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(4, 1), cfg);
  EXPECT_EQ(sim.shard_count(), 1u);
  EXPECT_EQ(sim.window(), kUnboundedLookahead);
  sim.add_user("Ada", "ada", "pw", 0);
  sim.run_for(Duration::seconds(30), 4);
  EXPECT_EQ(sim.group().mail_delivered(), 0u);
  EXPECT_GT(sim.group().events_executed(), 0u);
}

TEST(ShardedSimulation, LocationShardsFollowTheZonesByDefault) {
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  EXPECT_EQ(sim.shard_count(), 4u);
  EXPECT_EQ(sim.server().locations().shard_count(), 4u);
}

// ---- observation points on the full stack --------------------------------

struct Fingerprint {
  std::string history;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t mail = 0;
  std::uint64_t observations = 0;
};

/// 60 s of the restless 2x4 world on 4 workers, optionally read in full
/// (ground truth, database, session, where-is) every 3.701 ms.
Fingerprint run_observed(std::size_t shards, bool observe) {
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'0005ull;
  cfg.base.stagger_inquiry = true;
  cfg.base.mobility.pause_min = Duration::seconds(1);
  cfg.base.mobility.pause_max = Duration::seconds(4);
  cfg.shards = shards;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 12; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i % 8));
  }
  Fingerprint out;
  const Duration every = Duration::micros(3701);
  std::function<void()> look = [&] {
    ++out.observations;
    for (int i = 0; i < 12; ++i) {
      const std::string uid = "u" + std::to_string(i);
      (void)sim.true_room(uid);
      (void)sim.db_room(uid);
      (void)sim.active_client(uid).logged_in();
      (void)sim.server().query(core::BipsServer::Query::where_is(
          "", "User " + std::to_string(i)));
    }
    sim.group().observe_at(sim.group().now() + every, look);
  };
  if (observe) sim.group().observe_at(SimTime::zero() + every, look);
  sim.run_for(Duration::seconds(60), 4);

  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.events = sim.group().events_executed();
  out.windows = sim.group().windows_run();
  out.mail = sim.group().mail_delivered();
  return out;
}

TEST(ObservationPoints, ObserversNeverPerturbARun) {
  for (const std::size_t shards : {1u, 4u}) {
    const Fingerprint plain = run_observed(shards, false);
    const Fingerprint seen = run_observed(shards, true);
    EXPECT_GT(seen.observations, 16'000u) << shards << " shards";
    EXPECT_FALSE(plain.history.empty());
    EXPECT_EQ(plain.history, seen.history) << shards << " shards";
    EXPECT_EQ(plain.events, seen.events) << shards << " shards";
    EXPECT_EQ(plain.windows, seen.windows) << shards << " shards";
    EXPECT_EQ(plain.mail, seen.mail) << shards << " shards";
  }
}

// ---- thread-owned presence ingest ---------------------------------------

TEST(ShardedSimulation, PresenceIngestIsThreadOwned) {
  // The PR 9 contract: in a multi-shard world every presence datagram is
  // decoded, deduplicated and acked by the owning zone's ZoneIngest agent
  // on that zone's worker thread; the shard-0 server only replays the
  // merged window logs. The server-side presence counters therefore stay
  // at zero while the per-shard ingest counters carry the whole stream.
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'0002ull;
  cfg.base.stagger_inquiry = true;
  cfg.base.mobility.pause_min = Duration::seconds(1);
  cfg.base.mobility.pause_max = Duration::seconds(4);
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 8; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i));
  }
  ASSERT_EQ(sim.shard_count(), 4u);
  sim.run_for(Duration::seconds(120), 2);

  // Not one presence datagram reached the server's LAN handler...
  EXPECT_EQ(sim.metric_sum("server.presence_received"), 0u);
  EXPECT_EQ(sim.metric_sum("server.batches_received"), 0u);
  // ... the zone agents ingested the lot, and more than one zone did work
  // (the split is real, not one agent doing everything).
  EXPECT_GT(sim.metric_sum("svc.ingest_ops"), 0u);
  std::size_t zones_with_ops = 0;
  std::uint64_t agent_ops = 0;
  for (std::size_t k = 0; k < sim.shard_count(); ++k) {
    ASSERT_NE(sim.zone_ingest(k), nullptr);
    const std::uint64_t ops =
        sim.group().shard(k).obs().metrics.counter_value("svc.ingest_ops");
    EXPECT_EQ(ops, sim.zone_ingest(k)->ops());
    agent_ops += ops;
    zones_with_ops += ops > 0 ? 1 : 0;
  }
  EXPECT_EQ(agent_ops, sim.metric_sum("svc.ingest_ops"));
  EXPECT_GE(zones_with_ops, 2u);
  // The merged deltas did land in the database.
  EXPECT_GT(sim.metric_sum("db.presence_updates"), 0u);
}

// ---- fault schedules on the sharded harness -----------------------------

ShardedRun run_sharded_faulted(unsigned threads) {
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'0003ull;
  cfg.base.stagger_inquiry = true;
  cfg.base.mobility.pause_min = Duration::seconds(2);
  cfg.base.mobility.pause_max = Duration::seconds(8);
  cfg.base.server.station_timeout = Duration::seconds(10);
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 8; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i));
  }
  sim.enable_tracking_metrics(Duration::seconds(2));

  // One of everything the taxonomy splits: a station fault (shard-local on
  // the owning worker), LAN-wide faults (mirrored per zone), a link fault
  // (owning zone + server zone), and the shard-0 barrier-class faults
  // (server crash/restart, location-shard crash/restart).
  fault::FaultPlan plan;
  plan.crash_station(Duration::seconds(20), 2)
      .restart_station(Duration::seconds(35), 2)
      .crash_server(Duration::seconds(45))
      .restart_server(Duration::seconds(55))
      .partition_stations(Duration::seconds(65), Duration::seconds(10),
                          {0, 4})
      .loss_burst(Duration::seconds(80), Duration::seconds(8), 0.4)
      .flaky_link(Duration::seconds(92), Duration::seconds(8), 6, 0.5)
      .crash_shard(Duration::seconds(100), 1)
      .restart_shard(Duration::seconds(108), 1);
  plan.apply_sharded(sim);
  sim.run_for(Duration::from_seconds(130.0), threads);

  ShardedRun out;
  out.shard_count = sim.shard_count();
  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.queries = dump_queries(sim, 130.0);
  out.tracking = sim.tracking();
  out.mail = sim.group().mail_delivered();
  return out;
}

TEST(ShardedSimulation, FaultScheduleReplaysByteIdentically) {
  const ShardedRun one = run_sharded_faulted(1);
  const ShardedRun two = run_sharded_faulted(2);
  const ShardedRun four = run_sharded_faulted(4);

  // The faults must have left visible scars, or the equivalence is vacuous.
  EXPECT_FALSE(one.history.empty());
  EXPECT_GT(one.mail, 0u);

  EXPECT_EQ(one.history, two.history);
  EXPECT_EQ(one.history, four.history);
  EXPECT_EQ(one.queries, two.queries);
  EXPECT_EQ(one.queries, four.queries);
  EXPECT_EQ(one.tracking.samples, four.tracking.samples);
  EXPECT_EQ(one.tracking.correct_room, four.tracking.correct_room);
  EXPECT_EQ(one.tracking.wrong_room, four.tracking.wrong_room);
  EXPECT_EQ(one.tracking.false_absent, four.tracking.false_absent);
  EXPECT_EQ(one.mail, four.mail);
}

ShardedRun run_sharded_powercycle(unsigned threads) {
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'0004ull;
  cfg.base.stagger_inquiry = true;
  cfg.base.mobility.pause_min = Duration::seconds(2);
  cfg.base.mobility.pause_max = Duration::seconds(8);
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 8; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i));
  }
  sim.enable_tracking_metrics(Duration::seconds(2));
  // Two cycles, one of them long enough to straddle several conservative
  // windows; u3 may be mid-walk when its handheld dies, so the powered_off
  // flag must survive a seam handoff.
  sim.schedule_power_cycle(SimTime::zero() + Duration::seconds(30), "u3",
                           Duration::seconds(25));
  sim.schedule_power_cycle(SimTime::zero() + Duration::seconds(70), "u6",
                           Duration::seconds(12));
  sim.run_for(Duration::from_seconds(120.0), threads);

  ShardedRun out;
  out.shard_count = sim.shard_count();
  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.queries = dump_queries(sim, 120.0);
  out.tracking = sim.tracking();
  out.mail = sim.group().mail_delivered();
  return out;
}

TEST(ShardedSimulation, PowerCycleReplaysByteIdentically) {
  const ShardedRun one = run_sharded_powercycle(1);
  const ShardedRun four = run_sharded_powercycle(4);
  EXPECT_FALSE(one.history.empty());
  EXPECT_EQ(one.history, four.history);
  EXPECT_EQ(one.queries, four.queries);
  EXPECT_EQ(one.tracking.samples, four.tracking.samples);
  EXPECT_EQ(one.tracking.correct_room, four.tracking.correct_room);
  EXPECT_EQ(one.mail, four.mail);
}

TEST(ShardedSimulation, ScriptedActsAndShadowFollowTheOwner) {
  ShardedConfig cfg;
  cfg.base.seed = 7;
  // Pin everyone in place: only the scripted walk below moves anyone, so
  // the final ownership and database assertions are exact.
  cfg.base.mobility.pause_min = Duration::seconds(100000);
  cfg.base.mobility.pause_max = Duration::seconds(100000);
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  sim.add_user("Ada", "ada", "pw", 0);      // zone 0
  sim.add_user("Grace", "grace", "pw", 7);  // zone 3 (2x4 grid, 4 shards)
  ASSERT_EQ(sim.shard_count(), 4u);

  // Walk Ada to the far corner: the act fires on her owning replica, and
  // the trip hands her across every seam on the way.
  sim.schedule_user_act(
      SimTime::zero() + Duration::seconds(5), "ada",
      [](core::BipsClient&, mobility::RandomWaypointAgent& agent) {
        agent.walk_to(7);
      });
  sim.schedule_radio_shadow(SimTime::zero() + Duration::seconds(10), "grace",
                            true);
  // Worst case the walk covers ~50 m at the 0.5 m/s floor: 180 s is ample.
  sim.run_for(Duration::seconds(180), 2);

  EXPECT_EQ(sim.owner_shard("ada"), 3u);
  EXPECT_EQ(sim.true_room("ada"), 7u);
  // Grace's handheld has been in an RF shadow since t=10: the serving
  // master dropped it via supervision timeout and the database shows no
  // current fix for it.
  EXPECT_FALSE(sim.db_room("grace").has_value());
}

// ---- replicas built on first entry ---------------------------------------

/// True once shard k has built any client: BipsClient registers
/// client.relogin in its shard's registry on construction.
bool shard_has_client_rows(ShardedBipsSimulation& sim, std::size_t k) {
  for (const obs::SnapshotRow& row :
       sim.group().shard(k).obs().metrics.snapshot()) {
    if (row.name.rfind("client.", 0) == 0) return true;
  }
  return false;
}

/// A 2x4 grid on four zones (zone = column = room % 4) where nobody moves
/// unless a scripted act sends them.
ShardedConfig pinned_four_zones(std::uint64_t seed) {
  ShardedConfig cfg;
  cfg.base.seed = seed;
  cfg.base.stagger_inquiry = true;
  cfg.base.mobility.pause_min = Duration::seconds(100000);
  cfg.base.mobility.pause_max = Duration::seconds(100000);
  cfg.shards = 4;
  return cfg;
}

TEST(ReplicasOnFirstEntry, ZoneNoUserEntersBuildsNoClient) {
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4),
                            pinned_four_zones(0xB1B5'000Bull));
  ASSERT_EQ(sim.shard_count(), 4u);
  for (int i = 0; i < 6; ++i) {
    // Rooms 0 and 4: both in zone 0.
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(4 * (i % 2)));
  }
  sim.run_for(Duration::seconds(60), 4);

  EXPECT_TRUE(shard_has_client_rows(sim, 0));
  EXPECT_FALSE(shard_has_client_rows(sim, 3));
  std::size_t logged_in = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string uid = "u" + std::to_string(i);
    EXPECT_EQ(sim.owner_shard(uid), 0u) << uid;
    logged_in += sim.active_client(uid).logged_in() ? 1 : 0;
  }
  EXPECT_GT(logged_in, 0u);  // the zone-0 replicas are really live
}

struct ActsRun {
  std::string history;
  std::vector<int> act_fires;  // per user
  bool u3_logged_in_while_off = true;
  bool u3_logged_in_at_end = false;
  bool u1_located_at_end = true;
  mobility::RoomId u0_room = mobility::kNoRoom;
  mobility::RoomId u2_room = mobility::kNoRoom;
  bool zone1_or_2_built = true;
};

/// Users only in zones 0 and 3, so every act, RF shadow and power cycle is
/// also scheduled into zones 1 and 2, where none of their replicas was ever
/// built.
ActsRun run_acts_on_unbuilt_replicas(unsigned threads) {
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4),
                            pinned_four_zones(0xB1B5'000Cull));
  const mobility::RoomId start[] = {0, 4, 3, 7};  // zones 0, 0, 3, 3
  for (int i = 0; i < 4; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 start[i]);
  }
  ActsRun out;
  out.act_fires.assign(4, 0);
  // Each act writes only its own user's counter, so even a double fire on
  // two workers would show up as a count (and as a race under TSan).
  auto walk = [&out](int user, mobility::RoomId to) {
    return [&out, user, to](core::BipsClient&,
                            mobility::RandomWaypointAgent& agent) {
      ++out.act_fires[static_cast<std::size_t>(user)];
      agent.walk_to(to);  // within the user's own zone: no seam crossing
    };
  };
  sim.schedule_user_act(SimTime::zero() + Duration::seconds(20), "u0",
                        walk(0, 4));
  sim.schedule_user_act(SimTime::zero() + Duration::seconds(20), "u2",
                        walk(2, 7));
  sim.schedule_radio_shadow(SimTime::zero() + Duration::seconds(10), "u1",
                            true);
  sim.schedule_power_cycle(SimTime::zero() + Duration::seconds(15), "u3",
                           Duration::seconds(20));
  sim.group().observe_at(SimTime::zero() + Duration::seconds(25), [&] {
    out.u3_logged_in_while_off = sim.active_client("u3").logged_in();
  });
  sim.run_for(Duration::seconds(120), threads);

  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.u3_logged_in_at_end = sim.active_client("u3").logged_in();
  out.u1_located_at_end = sim.db_room("u1").has_value();
  out.u0_room = sim.true_room("u0");
  out.u2_room = sim.true_room("u2");
  out.zone1_or_2_built =
      shard_has_client_rows(sim, 1) || shard_has_client_rows(sim, 2);
  return out;
}

TEST(ReplicasOnFirstEntry, ActsAimedAtUnbuiltReplicasFireOnceOnTheOwner) {
  const ActsRun one = run_acts_on_unbuilt_replicas(1);
  const ActsRun four = run_acts_on_unbuilt_replicas(4);
  for (const ActsRun* r : {&one, &four}) {
    EXPECT_FALSE(r->zone1_or_2_built);
    EXPECT_EQ(r->act_fires, (std::vector<int>{1, 0, 1, 0}));
    EXPECT_EQ(r->u0_room, 4u);
    EXPECT_EQ(r->u2_room, 7u);
    EXPECT_FALSE(r->u1_located_at_end);  // shadowed since t = 10 s
    EXPECT_FALSE(r->u3_logged_in_while_off);
    EXPECT_TRUE(r->u3_logged_in_at_end);  // powered back on at t = 35 s
  }
  EXPECT_FALSE(one.history.empty());
  EXPECT_EQ(one.history, four.history);
}

TEST(ReplicasOnFirstEntry, FirstSeamCrossingResumesMidWalk) {
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4),
                            pinned_four_zones(0xB1B5'000Dull));
  sim.add_user("Ada", "ada", "pw", 0);
  // Along the first row from zone 0 to zone 3: three first entries.
  sim.schedule_user_act(
      SimTime::zero() + Duration::seconds(5), "ada",
      [](core::BipsClient&, mobility::RandomWaypointAgent& agent) {
        agent.walk_to(3);
      });

  // Sample the walk every 20 ms. At the first sample owned by zone k the
  // replica there is built and already walking, a few centimetres from the
  // previous sample: it resumed mid-stride, not at the start room.
  std::vector<std::size_t> first_entries;
  std::size_t prev_owner = 0;
  Vec2 prev_pos = sim.active_agent("ada").position();
  bool built_before_entry = false;
  const Duration every = Duration::millis(20);
  std::function<void()> look = [&] {
    const std::size_t owner = sim.owner_shard("ada");
    mobility::RandomWaypointAgent& agent = sim.active_agent("ada");
    if (owner != prev_owner) {
      first_entries.push_back(owner);
      EXPECT_TRUE(shard_has_client_rows(sim, owner)) << "zone " << owner;
      EXPECT_TRUE(agent.walking()) << "zone " << owner;
      EXPECT_LT(distance(agent.position(), prev_pos), 0.5) << "zone " << owner;
    } else if (owner + 1 < sim.shard_count() &&
               shard_has_client_rows(sim, owner + 1)) {
      built_before_entry = true;
    }
    prev_owner = owner;
    prev_pos = agent.position();
    sim.group().observe_at(sim.group().now() + every, look);
  };
  sim.group().observe_at(SimTime::zero() + every, look);
  sim.run_for(Duration::seconds(150), 4);

  EXPECT_EQ(first_entries, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_FALSE(built_before_entry);
  EXPECT_EQ(sim.true_room("ada"), 3u);
}

// ---- server amnesia with a mid-walk user --------------------------------

struct AmnesiaRun {
  std::string history;
  std::uint64_t client_relogins = 0;
  std::uint64_t svc_relogins = 0;
};

/// A walker is between piconets (crossing zone seams, no attesting
/// station) for the whole server outage, so no resync snapshot can carry
/// her session: recovery must flow through the epoch relay -- restart
/// broadcast -> workstation EpochNotice -> client re-login -- and the
/// whole exchange must land identically at every thread count.
AmnesiaRun run_sharded_amnesia(unsigned threads) {
  ShardedConfig cfg;
  cfg.base.seed = 0xB1B5'000Aull;
  cfg.base.stagger_inquiry = true;
  // Pin everyone: only the scripted walk below moves anyone.
  cfg.base.mobility.pause_min = Duration::seconds(100000);
  cfg.base.mobility.pause_max = Duration::seconds(100000);
  cfg.base.server.station_timeout = Duration::seconds(10);
  cfg.shards = 4;
  ShardedBipsSimulation sim(mobility::Building::grid(2, 4), cfg);
  for (int i = 0; i < 4; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i));
  }
  sim.enable_tracking_metrics(Duration::seconds(2));

  // u0 departs room 0 for the far corner at t=40 and is mid-walk across
  // the whole 45..55 s outage window; the others sit still as controls.
  sim.schedule_user_act(
      SimTime::zero() + Duration::seconds(40), "u0",
      [](core::BipsClient&, mobility::RandomWaypointAgent& agent) {
        agent.walk_to(7);
      });
  fault::FaultPlan plan;
  plan.crash_server(Duration::seconds(45))
      .restart_server(Duration::seconds(55));
  plan.apply_sharded(sim);
  sim.run_for(Duration::from_seconds(220.0), threads);

  AmnesiaRun out;
  std::ostringstream hist;
  sim.write_history_csv(hist);
  out.history = hist.str();
  out.client_relogins = sim.metric_sum("client.relogin");
  out.svc_relogins = sim.metric_sum("svc.relogin");
  return out;
}

TEST(ShardedSimulation, AmnesiaReloginReplaysByteIdentically) {
  const AmnesiaRun one = run_sharded_amnesia(1);
  const AmnesiaRun two = run_sharded_amnesia(2);
  const AmnesiaRun four = run_sharded_amnesia(4);

  // The outage must actually have forced the re-login path, or the
  // equivalence below is vacuous.
  EXPECT_GE(one.client_relogins, 1u);
  EXPECT_GE(one.svc_relogins, 1u);

  EXPECT_EQ(one.history, two.history);
  EXPECT_EQ(one.history, four.history);
  EXPECT_EQ(one.client_relogins, two.client_relogins);
  EXPECT_EQ(one.client_relogins, four.client_relogins);
  EXPECT_EQ(one.svc_relogins, two.svc_relogins);
  EXPECT_EQ(one.svc_relogins, four.svc_relogins);
}

}  // namespace
}  // namespace bips
