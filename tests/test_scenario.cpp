// Tests for the text scenario parser and self-checking runner.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/scenario/scenario.hpp"

namespace bips::core {
namespace {

constexpr const char* kValid = R"(
# a comment line
seed 9
radius 12.5
stagger on
inquiry 2.56
cycle 5.12
lan-loss 0.1
speed 0.8 1.2
pause 5 10
room a 0 0      # trailing comment
room b 14 0
edge a b
user Alice alice pw a
user Bob bob pw2 b
run 120
sample 2
)";

TEST(ScenarioParser, ParsesAValidScenario) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(kValid), &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  EXPECT_EQ(spec->config.seed, 9u);
  EXPECT_DOUBLE_EQ(spec->config.coverage_radius_m, 12.5);
  EXPECT_TRUE(spec->config.stagger_inquiry);
  EXPECT_EQ(spec->config.workstation.scheduler.inquiry_length,
            Duration::from_seconds(2.56));
  EXPECT_EQ(spec->config.workstation.scheduler.cycle_length,
            Duration::from_seconds(5.12));
  EXPECT_DOUBLE_EQ(spec->config.lan.loss, 0.1);
  EXPECT_DOUBLE_EQ(spec->config.mobility.speed_min_mps, 0.8);
  EXPECT_DOUBLE_EQ(spec->config.mobility.speed_max_mps, 1.2);
  EXPECT_EQ(spec->building.room_count(), 2u);
  ASSERT_EQ(spec->users.size(), 2u);
  EXPECT_EQ(spec->users[0].name, "Alice");
  EXPECT_EQ(spec->users[1].room, *spec->building.find("b"));
  EXPECT_EQ(spec->run_time, Duration::seconds(120));
  EXPECT_EQ(spec->sample_period, Duration::seconds(2));
}

TEST(ScenarioParser, DefaultsApplyWhenOmitted) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string("room only 0 0\n"), &err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->config.seed, SimulationConfig{}.seed);
  EXPECT_TRUE(spec->users.empty());
  EXPECT_EQ(spec->run_time, Duration::seconds(300));
  EXPECT_EQ(spec->config.server.zones, 0u);  // one per simulator zone
}

TEST(ScenarioParser, ZonesDirectiveSetsServiceShards) {
  ScenarioError err;
  const auto spec =
      parse_scenario(std::string("zones 3\nroom only 0 0\n"), &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  EXPECT_EQ(spec->config.server.zones, 3u);

  EXPECT_FALSE(parse_scenario(std::string("zones 0\n"), &err).has_value());
  EXPECT_FALSE(parse_scenario(std::string("zones 2.5\n"), &err).has_value());
  EXPECT_FALSE(parse_scenario(std::string("zones x\n"), &err).has_value());
}

struct BadCase {
  const char* text;
  int line;
  const char* fragment;
};

// Prints a case as the line the parser must reject (or the fragment, for a
// whole-file error). The registered test names carry this text; gtest's
// default would print the struct's raw bytes, pointers included, which
// change from one run to the next.
void PrintTo(const BadCase& c, std::ostream* os) {
  if (c.line == 0) {
    *os << "whole file: " << c.fragment;
    return;
  }
  std::istringstream lines(c.text);
  std::string line;
  for (int i = 0; i < c.line; ++i) std::getline(lines, line);
  *os << "line " << c.line << ": " << line;
}

class ScenarioErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioErrors, ReportsLineAndMessage) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(GetParam().text), &err);
  EXPECT_FALSE(spec.has_value());
  EXPECT_EQ(err.line, GetParam().line);
  EXPECT_NE(err.message.find(GetParam().fragment), std::string::npos)
      << "got: " << err.message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioErrors,
    ::testing::Values(
        BadCase{"frobnicate 1\n", 1, "unknown directive"},
        BadCase{"seed\n", 1, "arguments"},
        BadCase{"seed banana\n", 1, "seed"},
        BadCase{"radius -3\nroom a 0 0\n", 1, "radius"},
        BadCase{"stagger maybe\nroom a 0 0\n", 1, "on"},
        BadCase{"room a 0 0\nroom a 1 1\n", 2, "duplicate room"},
        BadCase{"room a 0 0\nedge a b\n", 2, "unknown room"},
        BadCase{"room a 0 0\nedge a a\n", 2, "itself"},
        BadCase{"room a 0 0\nroom b 9 0\nedge a b -2\n", 3, "positive"},
        BadCase{"room a 0 0\nuser X x pw nowhere\n", 2, "unknown start room"},
        BadCase{"room a 0 0\nuser X x pw a\nuser X y pw a\n", 3,
                "duplicate name"},
        BadCase{"room a 0 0\nuser X x pw a\nuser Y x pw a\n", 3,
                "duplicate userid"},
        BadCase{"lan-loss 1.5\nroom a 0 0\n", 1, "probability"},
        BadCase{"speed 2 1\nroom a 0 0\n", 1, "min <= max"},
        BadCase{"pause 10 5\nroom a 0 0\n", 1, "min <= max"},
        BadCase{"run 0\nroom a 0 0\n", 1, "positive"},
        BadCase{"", 0, "no rooms"},
        BadCase{"room a 0 0\nroom b 50 0\n", 0, "not connected"},
        BadCase{"inquiry 20\ncycle 15\nroom a 0 0\n", 0, "shorter"},
        // --- acts ---
        BadCase{"room a 0 0\nuser X x pw a\nact X walk-to a\n", 3,
                "arguments"},
        BadCase{"room a 0 0\nuser X x pw a\nact X teleport a 10\n", 3,
                "unknown verb"},
        BadCase{"room a 0 0\nact Ghost walk-to a 10\n", 2, "unknown user"},
        BadCase{"room a 0 0\nuser X x pw a\nact X walk-to nowhere 10\n", 3,
                "unknown room"},
        BadCase{"room a 0 0\nuser X x pw a\nact X walk-to a -5\n", 3,
                "positive"},
        BadCase{"room a 0 0\nuser X x pw a\nact X power-cycle 10 0\n", 3,
                "positive"},
        BadCase{"room a 0 0\nuser X x pw a\nact X login-flood 10 2.5\n", 3,
                "integer"},
        BadCase{"room a 0 0\nuser X x pw a\nrun 60\nact X walk-to a 100\n", 4,
                "beyond the end"},
        // --- assertions ---
        BadCase{"room a 0 0\nassert-at 10 whereis Ghost a\n", 2,
                "unknown user"},
        BadCase{"room a 0 0\nuser X x pw a\nassert-at 10 whereis X b\n", 3,
                "unknown room"},
        BadCase{"room a 0 0\nuser X x pw a\nassert-at 10 isnear X a\n", 3,
                "whereis"},
        BadCase{"room a 0 0\nuser X x pw a\nrun 60\n"
                "assert-at 90 whereis X a\n",
                4, "beyond the end"},
        BadCase{"room a 0 0\nassert-window 50 20 max-staleness 5\n", 2,
                "t0 < t1"},
        BadCase{"room a 0 0\nrun 60\nassert-window 10 90 max-staleness 5\n",
                3, "beyond the end"},
        BadCase{"room a 0 0\nassert-final everything-is-fine\n", 2,
                "no-invariant-violations"},
        BadCase{"room a 0 0\nassert-final min-counter svc.relogin -1\n", 2,
                "non-negative"},
        BadCase{"room a 0 0\nassert-final min-counter svc.relogin 1.5\n", 2,
                "integer"},
        // --- fault directives ---
        BadCase{"room a 0 0\nrestart a 60\n", 2, "no preceding crash"},
        BadCase{"room a 0 0\ncrash a 60\ncrash a 80\nrestart a 100\n", 3,
                "overlapping"},
        BadCase{"room a 0 0\ncrash a 60\nrestart a 60\n", 3,
                "strictly after"},
        BadCase{"room a 0 0\nserver-restart 60\n", 2, "no preceding crash"},
        BadCase{"room a 0 0\npartition 60 30 a a\n", 2, "duplicate room"},
        BadCase{"room a 0 0\npartition 60 30 b\n", 2, "unknown room"},
        BadCase{"room a 0 0\nloss-burst 60 30 1.5\n", 2, "probability"},
        BadCase{"room a 0 0\nlink-loss b 60 30 0.5\n", 2, "unknown room"},
        BadCase{"room a 0 0\nchaos 5 window\n", 2, "pairs"},
        BadCase{"room a 0 0\nchaos 5 blast-radius 3\n", 2,
                "unknown parameter"},
        BadCase{"room a 0 0\nchaos 5 burst-loss 2\n", 2, "burst-loss"},
        BadCase{"room a 0 0\nchaos 5 min-outage 30 max-outage 10\n", 2,
                "min-outage"}));

TEST(ScenarioRunner, RunsEndToEnd) {
  ScenarioError err;
  auto spec = parse_scenario(std::string(R"(
seed 4
inquiry 2.56
cycle 5.12
pause 1000 2000
room a 0 0
room b 14 0
edge a b
user Alice alice pw a
run 60
sample 1
)"),
                             &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  auto sim = run_scenario(*spec);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->shard_simulator(0).now(),
            SimTime(Duration::seconds(60).ns()));
  EXPECT_TRUE(sim->active_client("alice").logged_in());
  EXPECT_EQ(sim->db_room("alice"), *spec->building.find("a"));
  EXPECT_GT(sim->tracking().samples, 0u);
}

TEST(ScenarioRunner, DeterministicAcrossRuns) {
  ScenarioError err;
  const std::string text = R"(
seed 31
inquiry 1.28
cycle 5.12
pause 5 20
room a 0 0
room b 14 0
edge a b
user Alice alice pw a
user Bob bob pw b
run 90
sample 1
)";
  auto s1 = run_scenario(*parse_scenario(text, &err));
  auto s2 = run_scenario(*parse_scenario(text, &err));
  EXPECT_EQ(s1->shard_simulator(0).events_executed(),
            s2->shard_simulator(0).events_executed());
  EXPECT_EQ(s1->tracking().correct_room, s2->tracking().correct_room);
}

}  // namespace
}  // namespace bips::core

// ---- newer directives -------------------------------------------------------

namespace bips::core {
namespace {

TEST(ScenarioParser, InterlacedDirective) {
  ScenarioError err;
  auto spec = parse_scenario(
      std::string("interlaced on\nroom a 0 0\n"), &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  EXPECT_TRUE(spec->config.slave.inquiry_scan.interlaced);
  spec = parse_scenario(std::string("interlaced off\nroom a 0 0\n"), &err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->config.slave.inquiry_scan.interlaced);
  EXPECT_FALSE(
      parse_scenario(std::string("interlaced sideways\nroom a 0 0\n"), &err)
          .has_value());
}

}  // namespace
}  // namespace bips::core

// ---- fault-injection directives ---------------------------------------------

namespace bips::core {
namespace {

TEST(ScenarioParser, CrashAndRestartCompileIntoTheFaultPlan) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
room a 0 0
station-timeout 8
crash a 60
restart a 120
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  EXPECT_EQ(spec->config.server.station_timeout, Duration::seconds(8));
  const auto& events = spec->fault_plan.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, fault::FaultEvent::Kind::kStationCrash);
  EXPECT_EQ(events[0].at, Duration::seconds(60));
  EXPECT_EQ(events[0].station, 0u);
  EXPECT_EQ(events[1].kind, fault::FaultEvent::Kind::kStationRestart);
  EXPECT_EQ(spec->fault_plan.heal_time(), Duration::seconds(120));
}

TEST(ScenarioParser, AllFaultDirectivesShareOnePlan) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
room a 0 0
room b 12 0
edge a b
crash a 60
restart a 90
server-crash 100
server-restart 130
partition 140 20 b
loss-burst 170 10 0.4
link-loss a 190 15 0.6
chaos 5 start 60 window 60 min-outage 5 max-outage 10 station-faults 1 server-faults 0 partitions 0 loss-bursts 0
run 400
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  using K = fault::FaultEvent::Kind;
  std::size_t n_partition = 0, n_burst = 0, n_link = 0, n_server = 0,
              n_station = 0, n_shard = 0;
  for (const auto& e : spec->fault_plan.events()) {
    switch (e.kind) {
      case K::kPartition: ++n_partition; break;
      case K::kLossBurst: ++n_burst; break;
      case K::kLinkLoss: ++n_link; break;
      case K::kServerCrash:
      case K::kServerRestart: ++n_server; break;
      case K::kStationCrash:
      case K::kStationRestart: ++n_station; break;
      case K::kShardCrash:
      case K::kShardRestart: ++n_shard; break;
    }
  }
  EXPECT_EQ(n_partition, 1u);
  EXPECT_EQ(n_burst, 1u);
  EXPECT_EQ(n_link, 1u);
  EXPECT_EQ(n_server, 2u);
  EXPECT_EQ(n_station, 4u);  // scripted pair + chaos block's pair
  EXPECT_EQ(n_shard, 0u);
}

TEST(ScenarioParser, ChaosBlockMatchesDirectChaosCall) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
room a 0 0
room b 12 0
edge a b
chaos 77 start 50 window 80 min-outage 4 max-outage 12
run 400
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  fault::ChaosParams p;
  p.start = Duration::seconds(50);
  p.window = Duration::seconds(80);
  p.min_outage = Duration::seconds(4);
  p.max_outage = Duration::seconds(12);
  const auto direct = fault::FaultPlan::chaos(77, 2, p);
  const auto& got = spec->fault_plan.events();
  ASSERT_EQ(got.size(), direct.events().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, direct.events()[i].kind) << i;
    EXPECT_EQ(got[i].at, direct.events()[i].at) << i;
    EXPECT_EQ(got[i].station, direct.events()[i].station) << i;
  }
}

TEST(ScenarioParser, ActsAndAssertionsCarrySourceLines) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
room a 0 0
room b 12 0
edge a b
user X x pw a
act X walk-to b 30
act X power-cycle 60 10
act X unreachable 80 5
act X login-flood 100 40
assert-at 110 whereis X b
assert-at 115 whereis X absent
assert-window 10 110 max-staleness 50
assert-final no-invariant-violations
run 120
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ASSERT_EQ(spec->acts.size(), 4u);
  EXPECT_EQ(spec->acts[0].kind, ScenarioAct::Kind::kWalkTo);
  EXPECT_EQ(spec->acts[0].room, *spec->building.find("b"));
  EXPECT_EQ(spec->acts[0].line, 6);
  EXPECT_EQ(spec->acts[1].kind, ScenarioAct::Kind::kPowerCycle);
  EXPECT_EQ(spec->acts[1].duration, Duration::seconds(10));
  EXPECT_EQ(spec->acts[2].kind, ScenarioAct::Kind::kUnreachable);
  EXPECT_EQ(spec->acts[3].kind, ScenarioAct::Kind::kLoginFlood);
  EXPECT_EQ(spec->acts[3].count, 40);
  ASSERT_EQ(spec->assertions.size(), 4u);
  EXPECT_EQ(spec->assertions[0].kind, ScenarioAssertion::Kind::kWhereIsAt);
  EXPECT_EQ(spec->assertions[0].line, 10);
  EXPECT_EQ(spec->assertions[1].room, mobility::kNoRoom);
  EXPECT_EQ(spec->assertions[2].kind,
            ScenarioAssertion::Kind::kMaxStalenessWindow);
  EXPECT_EQ(spec->assertions[2].staleness, Duration::seconds(50));
  EXPECT_EQ(spec->assertions[3].kind,
            ScenarioAssertion::Kind::kNoInvariantViolations);
}

TEST(ScenarioParser, CrashDirectiveErrors) {
  ScenarioError err;
  EXPECT_FALSE(parse_scenario(std::string("room a 0 0\ncrash b 60\n"), &err)
                   .has_value());
  EXPECT_NE(err.message.find("unknown room"), std::string::npos);
  EXPECT_FALSE(parse_scenario(std::string("room a 0 0\ncrash a -5\n"), &err)
                   .has_value());
  EXPECT_FALSE(
      parse_scenario(std::string("room a 0 0\nstation-timeout x\n"), &err)
          .has_value());
}

TEST(ScenarioRunner, WalkToActMovesTheUserAndWhereIsAssertSeesIt) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 11
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
room b 14 0
edge a b
user Alice alice pw a
act Alice walk-to b 60
assert-at 50 whereis Alice a
assert-at 150 whereis Alice b
assert-final no-invariant-violations
run 180
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, 1, {}, &report);
  ASSERT_EQ(report.checks.size(), 3u);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << ": " << c.detail;
  }
  EXPECT_TRUE(report.passed());
  EXPECT_FALSE(report.invariants_violated());
  EXPECT_EQ(sim->db_room("alice"), *spec->building.find("b"));
}

TEST(ScenarioRunner, MinCounterAssertGradesAgainstTheRegistry) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 12
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
user Alice alice pw a
assert-final min-counter server.logins_ok 1
assert-final min-counter server.logins_ok 1000000
run 60
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ASSERT_EQ(spec->assertions.size(), 2u);
  EXPECT_EQ(spec->assertions[0].kind, ScenarioAssertion::Kind::kMinCounter);
  EXPECT_EQ(spec->assertions[0].counter, "server.logins_ok");
  EXPECT_EQ(spec->assertions[0].min_count, 1u);

  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, 1, {}, &report);
  ASSERT_EQ(report.checks.size(), 2u);
  EXPECT_TRUE(report.checks[0].passed) << report.checks[0].detail;
  EXPECT_FALSE(report.checks[1].passed);  // an absurd floor must fail loudly
  EXPECT_NE(report.checks[1].detail.find("need >= 1000000"),
            std::string::npos);

  // The same file grades identically on two shards (the counter floor sums
  // the cell across shards).
  ScenarioReport sharded;
  run_scenario(*spec, 2, 2, {}, &sharded);
  ASSERT_EQ(sharded.checks.size(), 2u);
  EXPECT_TRUE(sharded.checks[0].passed) << sharded.checks[0].detail;
  EXPECT_FALSE(sharded.checks[1].passed);
}

TEST(ScenarioRunner, FailedWhereIsAssertReportsLineAndDetail) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 11
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
room b 14 0
edge a b
user Alice alice pw a
assert-at 50 whereis Alice b
run 60
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  run_scenario(*spec, 1, 1, {}, &report);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_FALSE(report.checks[0].passed);
  EXPECT_EQ(report.checks[0].line, 10);
  EXPECT_NE(report.checks[0].detail.find("expected b"), std::string::npos)
      << report.checks[0].detail;
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_FALSE(report.invariants_violated());  // not the invariant check
}

TEST(ScenarioRunner, UnreachableActDropsThenRestoresTracking) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
station-timeout 10
room a 0 0
user Alice alice pw a
act Alice unreachable 60 30
assert-at 55 whereis Alice a
assert-at 85 whereis Alice absent
assert-at 160 whereis Alice a
run 170
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, 1, {}, &report);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << ": " << c.detail;
  }
  // The shadow ended: the handheld is back at its owner's position, and the
  // client is reachable and logged in again.
  EXPECT_EQ(sim->active_client("alice").device().position(),
            sim->active_agent("alice").position());
  EXPECT_TRUE(sim->active_client("alice").logged_in());
}

TEST(ScenarioRunner, PowerCycleActLogsOutAndBackIn) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
station-timeout 10
room a 0 0
user Alice alice pw a
act Alice power-cycle 60 30
assert-at 85 whereis Alice absent
assert-at 160 whereis Alice a
run 170
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, 1, {}, &report);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << ": " << c.detail;
  }
  EXPECT_TRUE(sim->active_client("alice").logged_in());
  // The power cycle tore the session down and built a fresh one.
  EXPECT_GE(sim->active_client("alice").stats().logins_sent, 2u);
}

TEST(ScenarioRunner, LoginFloodIsAbsorbedWithoutBreakingInvariants) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
user Alice alice pw a
act Alice login-flood 60 50
assert-at 100 whereis Alice a
assert-final no-invariant-violations
run 110
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, 1, {}, &report);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << ": " << c.detail;
  }
  EXPECT_GE(sim->active_client("alice").stats().logins_sent, 50u);
  EXPECT_TRUE(sim->active_client("alice").logged_in());
}

TEST(ScenarioRunner, StalenessWindowCatchesACrashThatNeverHeals) {
  // A crash with a restart only after the window closes: the location DB
  // keeps no record of Alice (the dead station cannot report, the sweeper
  // expires her), so truth != DB for longer than the bound.
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
station-timeout 10
room a 0 0
user Alice alice pw a
crash a 60
restart a 230
assert-window 20 220 max-staleness 60
run 240
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  run_scenario(*spec, 1, 1, {}, &report);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_FALSE(report.checks[0].passed);
  EXPECT_NE(report.checks[0].detail.find("stale"), std::string::npos)
      << report.checks[0].detail;
}

TEST(ScenarioRunner, StalenessWindowPassesOnAHealthyRun) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
user Alice alice pw a
assert-window 20 110 max-staleness 60
run 120
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  run_scenario(*spec, 1, 1, {}, &report);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.checks[0].passed) << report.checks[0].detail;
}

TEST(ScenarioRunner, NullReportSkipsAssertionMachinery) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 5
inquiry 2.56
cycle 5.12
pause 100000 200000
room a 0 0
user Alice alice pw a
assert-at 50 whereis Alice a
run 60
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  auto sim = run_scenario(*spec);  // no report: plain workload run
  EXPECT_TRUE(sim->active_client("alice").logged_in());
}

/// Runs par_006_amnesia.bips (`zones 2`) on `shards` simulator zones and
/// checks the location-shard count and the file's own assertions.
void expect_par006_builds_two_location_shards(std::size_t shards) {
  std::ifstream in(BIPS_SOURCE_DIR
                   "/examples/scenarios/corpus/par_006_amnesia.bips");
  ASSERT_TRUE(in) << "corpus file not found";
  ScenarioError err;
  const auto spec = parse_scenario(in, &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ASSERT_EQ(spec->config.server.zones, 2u);
  ScenarioReport report;
  auto sim = run_scenario(*spec, 1, shards, {}, &report);
  EXPECT_EQ(sim->shard_count(), shards);
  EXPECT_EQ(sim->server().locations().shard_count(), 2u);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << ": " << c.detail;
  }
  EXPECT_FALSE(report.checks.empty());
}

TEST(ScenarioRunner, ZonesDirectiveShardsTheServiceOfAPlainRun) {
  expect_par006_builds_two_location_shards(1);
}

TEST(ScenarioRunner, ZonesDirectiveMeansTheSameAtEveryShardCount) {
  expect_par006_builds_two_location_shards(4);
}

TEST(ScenarioRunner, ScriptedCrashAndRecovery) {
  ScenarioError err;
  const auto spec = parse_scenario(std::string(R"(
seed 3
inquiry 2.56
cycle 5.12
pause 100000 200000
station-timeout 10
room a 0 0
user Alice alice pw a
crash a 80
restart a 110
run 200
sample 1
)"),
                                   &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  auto sim = run_scenario(*spec);
  // The crash happened (station expired) and recovery completed (Alice is
  // tracked again by the end).
  EXPECT_GE(sim->metric_sum("server.stations_expired"), 1u);
  EXPECT_EQ(sim->db_room("alice"), 0u);
  EXPECT_TRUE(sim->active_client("alice").logged_in());
  EXPECT_FALSE(sim->workstation(0).crashed());
}

}  // namespace
}  // namespace bips::core
