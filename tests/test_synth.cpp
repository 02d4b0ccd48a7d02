// Tests for the generative scenario emitter (synth_scenario).
#include <gtest/gtest.h>

#include <sstream>

#include "src/scenario/scenario.hpp"
#include "src/scenario/synth.hpp"

namespace bips::core {
namespace {

TEST(SynthScenario, DeterministicTextPerSeed) {
  EXPECT_EQ(synth_scenario(1), synth_scenario(1));
  EXPECT_NE(synth_scenario(1), synth_scenario(2));
  SynthParams chaos;
  chaos.chaos_block = true;
  EXPECT_EQ(synth_scenario(1, chaos), synth_scenario(1, chaos));
  EXPECT_NE(synth_scenario(1), synth_scenario(1, chaos));
}

TEST(SynthScenario, EverySeedParsesWithActsAndAssertions) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SynthParams p;
    p.chaos_block = (seed % 3 == 0);
    ScenarioError err;
    const auto spec = parse_scenario(synth_scenario(seed, p), &err);
    ASSERT_TRUE(spec.has_value())
        << "seed " << seed << " line " << err.line << ": " << err.message;
    EXPECT_GE(spec->building.room_count(), 4u) << seed;
    EXPECT_FALSE(spec->users.empty()) << seed;
    EXPECT_FALSE(spec->acts.empty()) << seed;
    // At least one whereis witness and the two blanket assertions.
    EXPECT_GE(spec->assertions.size(), 3u) << seed;
    EXPECT_EQ(spec->assertions.back().kind,
              ScenarioAssertion::Kind::kNoInvariantViolations)
        << seed;
    EXPECT_FALSE(spec->fault_plan.empty()) << seed;
    // Every generated fault heals well before the end of the run.
    EXPECT_LT(spec->fault_plan.heal_time() + Duration::seconds(40),
              spec->run_time)
        << seed;
  }
}

TEST(SynthScenario, GeneratedScenarioPassesItsOwnAssertions) {
  ScenarioError err;
  const auto spec = parse_scenario(synth_scenario(42), &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  run_scenario(*spec, 1, 1, {}, &report);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << " (" << c.what
                          << "): " << c.detail;
  }
  EXPECT_TRUE(report.passed());
}

TEST(SynthScenario, ChaosVariantPassesItsOwnAssertions) {
  SynthParams p;
  p.chaos_block = true;
  ScenarioError err;
  const auto spec = parse_scenario(synth_scenario(13, p), &err);
  ASSERT_TRUE(spec.has_value()) << err.message;
  ScenarioReport report;
  run_scenario(*spec, 1, 1, {}, &report);
  for (const auto& c : report.checks) {
    EXPECT_TRUE(c.passed) << "line " << c.line << " (" << c.what
                          << "): " << c.detail;
  }
}

TEST(SynthScenario, ExactAndFastForwardHistoriesAreByteIdentical) {
  ScenarioError err;
  auto ff_spec = parse_scenario(synth_scenario(6), &err);
  ASSERT_TRUE(ff_spec.has_value()) << err.message;
  auto exact_spec = *ff_spec;
  exact_spec.config.channel.exact_slots = true;

  ScenarioReport ff_report, exact_report;
  auto ff = run_scenario(*ff_spec, 1, 1, {}, &ff_report);
  auto exact = run_scenario(exact_spec, 1, 1, {}, &exact_report);
  EXPECT_TRUE(ff_report.passed());
  EXPECT_TRUE(exact_report.passed());

  std::ostringstream ff_csv, exact_csv;
  ff->write_history_csv(ff_csv);
  exact->write_history_csv(exact_csv);
  EXPECT_EQ(ff_csv.str(), exact_csv.str());
  // Fast-forward elides idle slot work; it must not elide history.
  EXPECT_LT(ff->shard_simulator(0).events_executed(),
            exact->shard_simulator(0).events_executed());
}

}  // namespace
}  // namespace bips::core
