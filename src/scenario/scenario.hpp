// Text scenario descriptions: a self-checking integration-test harness.
//
// A deployment -- floor plan, policies, user population, run length -- can
// be written as a small line-based text file and executed without writing
// C++ (examples/scenario_runner is the CLI). A scenario is more than a
// workload: scripted per-device behaviour acts, a fault schedule compiled
// into the same fault::FaultPlan the C++ chaos tests use, and in-scenario
// assertions graded against the server's Query API and the fault layer's
// InvariantChecker make one .bips file a runnable, self-grading test.
//
// Grammar, one directive per line, '#' starts a comment:
//
//   # --- deployment ------------------------------------------------------
//   seed 42                 # RNG seed
//   radius 10               # piconet coverage radius (m)
//   stagger on              # stagger neighbouring inquiry slots
//   interlaced on           # handhelds use BT 1.2 interlaced inquiry scan
//   inquiry 3.84            # master inquiry slot (s)
//   cycle 15.4              # master operational cycle (s)
//   lan-loss 0.0            # LAN datagram loss probability
//   speed 0.5 1.5           # walking speed range (m/s)
//   pause 20 120            # dwell range between walks (s)
//   room lobby 0 0          # room name + workstation position (m)
//   room lab 14 0
//   edge lobby lab          # physical path; distance defaults to Euclidean
//   edge lobby lab 18       # ... or given explicitly (walking metres)
//   user Alice alice pw lobby
//   station-timeout 10      # server failure detector (0 = off)
//   zones 3                 # location-service shards, at any --shards
//                           # (1 = single database; omitted = one per
//                           # simulator zone; answers are identical at
//                           # every count)
//   run 300                 # simulated seconds
//   sample 1                # tracking-metric sample period (s)
//
//   # --- scripted behaviour acts (first-class sim events) ----------------
//   act Alice walk-to lab 120       # walk to the lab, departing at t=120
//   act Alice power-cycle 150 20    # handheld off at t=150, on again at 170
//   act Bob unreachable 200 30      # RF shadow: radio-silent for 30 s
//   act Bob login-flood 240 50      # burst of 50 duplicate LoginRequests
//
//   # --- fault schedule (compiles to fault::FaultPlan) -------------------
//   crash lab 120                   # lab's workstation dies...
//   restart lab 180                 # ...and comes back (pairing validated)
//   server-crash 200                # the central server dies...
//   server-restart 230              # ...and resyncs via SyncRequest
//   partition 250 30 lobby lab      # cut these rooms off the LAN for 30 s
//   loss-burst 300 20 0.4           # 40% uniform LAN loss for 20 s
//   link-loss lab 340 25 0.6        # lab<->server link 60% lossy for 25 s
//   chaos 7                         # seeded random fault schedule ...
//   chaos 9 station-faults 3 window 120   # ... with ChaosParams overrides
//
//   # --- assertions (graded after/while the run executes) ----------------
//   assert-at 260 whereis Alice lab       # the Query API must say "lab"
//   assert-at 300 whereis Bob absent      # ... or have no fix at all
//   assert-window 60 280 max-staleness 45 # DB never lags truth by > 45 s
//   assert-final no-invariant-violations  # InvariantChecker stayed green
//   assert-final min-counter svc.relogin 1 # registry counter floor (graded
//                                          # on the cross-shard sum)
//
// parse_scenario validates everything it can statically -- unknown rooms or
// users, duplicate users, disconnected buildings, restarts without a
// preceding crash, overlapping crash windows, act/assert instants beyond
// the run -- and reports the offending line. Assertion outcomes are
// reported per source line in the ScenarioReport so a failing scenario
// pinpoints the directive that broke.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/fault/plan.hpp"

namespace bips::core {

struct ScenarioUser {
  std::string name;
  std::string userid;
  std::string password;
  mobility::RoomId room = 0;
};

/// One scripted per-device behaviour act (first-class sim events: each act
/// is scheduled on the kernel queue, so a fast-forwarded run wakes for it
/// exactly like the exact-slot run executes it).
struct ScenarioAct {
  enum class Kind {
    kWalkTo,       // leave for `room` at `at`
    kPowerCycle,   // handheld off during [at, at + duration)
    kUnreachable,  // RF shadow during [at, at + duration); no session loss
    kLoginFlood,   // burst of `count` LoginRequests at `at`
  };

  Kind kind = Kind::kWalkTo;
  std::size_t user = 0;  // index into ScenarioSpec::users
  SimTime at;
  Duration duration;               // kPowerCycle / kUnreachable
  mobility::RoomId room = 0;       // kWalkTo
  int count = 0;                   // kLoginFlood
  int line = 0;                    // source line (reporting)
};

/// One in-scenario assertion, graded against the server Query API (whereis)
/// or the fault layer's InvariantChecker.
struct ScenarioAssertion {
  enum class Kind {
    kWhereIsAt,             // at `at`: Query(where-is user) == room / absent
    kMaxStalenessWindow,    // in [at, until]: DB never disagrees with the
                            // ground truth for longer than `staleness`
    kNoInvariantViolations, // end of run: InvariantChecker.ok()
    kMinCounter,            // end of run: registry counter >= min_count
                            // (summed across shards) --
                            // lets a fault scenario pin down *how* it
                            // recovered, e.g. svc.relogin >= 1 proves the
                            // session came back via an epoch-triggered
                            // re-login rather than a lucky resync snapshot
  };

  Kind kind = Kind::kWhereIsAt;
  SimTime at;                              // kWhereIsAt / window start
  SimTime until;                           // window end
  std::size_t user = 0;                    // kWhereIsAt
  mobility::RoomId room = mobility::kNoRoom;  // kWhereIsAt; kNoRoom = absent
  Duration staleness;                      // kMaxStalenessWindow
  std::string counter;                     // kMinCounter: registry cell name
  std::uint64_t min_count = 0;             // kMinCounter: required floor
  int line = 0;                            // source line (reporting)
  std::string text;                        // directive text (reporting)
};

struct ScenarioSpec {
  SimulationConfig config;
  mobility::Building building;
  std::vector<ScenarioUser> users;
  /// Unified fault schedule: hand-written crash/restart/partition/loss
  /// directives and seeded chaos blocks all compile into the same plan the
  /// C++ chaos tests drive, applied at t=0 relative times.
  fault::FaultPlan fault_plan;
  std::vector<ScenarioAct> acts;
  std::vector<ScenarioAssertion> assertions;
  Duration run_time = Duration::seconds(300);
  Duration sample_period = Duration::seconds(1);
};

struct ScenarioError {
  int line = 0;          // 1-based; 0 = file-level problem
  std::string message;
};

/// Outcome of one assertion directive (file order preserved).
struct ScenarioCheck {
  int line = 0;          // source line of the assertion
  std::string what;      // the directive, e.g. "assert-at 120 whereis Alice lab"
  bool passed = false;
  std::string detail;    // failure explanation; empty when passed
  bool invariant = false;  // true for assert-final no-invariant-violations
};

struct ScenarioReport {
  std::vector<ScenarioCheck> checks;

  std::size_t failed() const {
    std::size_t n = 0;
    for (const ScenarioCheck& c : checks) n += c.passed ? 0 : 1;
    return n;
  }
  bool passed() const { return failed() == 0; }
  /// True when some failing check is the invariant-checker assertion (the
  /// runner maps this to its own exit code).
  bool invariants_violated() const;
};

/// Parses a scenario; on failure returns nullopt and fills `err`.
std::optional<ScenarioSpec> parse_scenario(std::istream& in,
                                           ScenarioError* err);

/// Convenience: parse from a string.
std::optional<ScenarioSpec> parse_scenario(const std::string& text,
                                           ScenarioError* err);

/// Builds the simulation, registers the users, enables tracking metrics,
/// applies the fault plan, schedules every act and runs for the configured
/// time on `shards` zones and `threads` workers (DESIGN.md section 9). The
/// returned simulation can be inspected (tracking(), server().query(),
/// write_history_csv, ...).
///
/// One shard is the paper's single-zone deployment and the default. The
/// run -- history CSV, presence stream, tracking scorecard, assertion
/// outcomes -- is byte-identical for every thread count, so CI replays a
/// scenario at `--threads 1` and `--threads 4` and diffs the reports and
/// histories. `zones N` builds N location shards at every shard count;
/// without it the location shards follow the simulator zones.
///
/// `pre_run` is invoked on the fully built (not yet run) simulation -- the
/// hook for attaching a trace sink or toggling the metrics registry before
/// any event fires.
///
/// With a `report`, every assertion is graded into it (one ScenarioCheck
/// per assertion directive, file order); without one the assertions are
/// not evaluated, so a workload-only run costs nothing extra. Every grader
/// observes the world at exact instants through observation points
/// (sim::ShardGroup::observe_at), at every shard count: `assert-at whereis`
/// at its instant, `assert-window max-staleness` on its tick grid, and
/// `assert-final no-invariant-violations` samples the InvariantChecker every
/// sample period. In a multi-shard world the database read there is the
/// one the last barrier merged.
std::unique_ptr<ShardedBipsSimulation> run_scenario(
    const ScenarioSpec& spec, unsigned threads = 1, std::size_t shards = 1,
    const std::function<void(ShardedBipsSimulation&)>& pre_run = {},
    ScenarioReport* report = nullptr);

}  // namespace bips::core
