// CLI: run (and grade) a BIPS deployment described by a text scenario file.
//
//   $ ./scenario_runner examples/scenarios/department.bips [history.csv]
//   $ ./scenario_runner --demo
//   $ ./scenario_runner --trace trace.jsonl examples/scenarios/department.bips
//   $ ./scenario_runner --shards 4 --threads 4 department.bips
//   $ ./scenario_runner --synth 42 > generated.bips
//
// Prints a deployment report (enrollment, tracking scorecard, assertion
// outcomes, and the full metrics-registry snapshot) and optionally dumps the
// location-database transition history as CSV. A run is the paper's single
// zone by default; --shards N cuts the building into N zones and --threads N
// runs them on N workers (the output is identical for every thread count).
// --trace FILE streams the structured simulation trace (JSONL, one record
// per line) of a one-shard run for offline analysis. --synth SEED emits a
// generated self-checking scenario to stdout instead of running anything.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/obs/obs.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/synth.hpp"

using namespace bips;

namespace {

// Distinct exit codes so CI and shell scripts can tell failure classes
// apart (documented in --help).
enum ExitCode {
  kOk = 0,
  kUsage = 2,       // bad command line
  kParseError = 3,  // scenario rejected (syntax / validation)
  kSinkError = 4,   // an output file could not be created or written
  kAssertFailed = 5,   // some in-scenario assertion failed
  kInvariantBroken = 6,  // assert-final no-invariant-violations failed
};

constexpr const char* kDemoScenario = R"(# three-room demo deployment
seed 7
radius 10
stagger on
inquiry 3.84
cycle 15.4
pause 15 60
room lobby 0 0
room lab 14 0
room office 28 0
edge lobby lab
edge lab office
user Alice alice pw-a lobby
user Bob bob pw-b lab
user Carol carol pw-c office
run 300
sample 1
)";

void usage(std::FILE* to, const char* argv0) {
  std::fprintf(to,
               "usage: %s [options] <scenario-file> [history.csv]\n"
               "       %s [options] --demo\n"
               "       %s --synth SEED [--chaos]\n"
               "\n"
               "options:\n"
               "  --trace FILE    stream the structured trace as JSONL\n"
               "                  (one-shard runs only)\n"
               "  --exact-slots   disable virtual-slot fast-forward\n"
               "  --shards N      cut the building into N zones (default 1,\n"
               "                  the paper's single-zone deployment)\n"
               "  --threads N     run the zones on N workers (default 1;\n"
               "                  identical output for every N)\n"
               "  --demo          run a built-in three-room scenario\n"
               "  --synth SEED    print a generated self-checking scenario\n"
               "                  to stdout and exit (no simulation)\n"
               "  --chaos         with --synth: use a seeded chaos block\n"
               "                  instead of scripted station faults\n"
               "  --help          this text\n"
               "\n"
               "exit codes:\n"
               "  0  run completed; every assertion passed\n"
               "  2  bad command line\n"
               "  3  scenario rejected (syntax or validation error)\n"
               "  4  an output file could not be created or written\n"
               "  5  an in-scenario assertion failed\n"
               "  6  the invariant checker recorded violations\n",
               argv0, argv0, argv0);
}

void report(core::ShardedBipsSimulation& sim, const core::ScenarioSpec& spec,
            unsigned threads) {
  std::printf("ran %.0f simulated seconds: %zu rooms, %zu users (shards %zu, "
              "threads %u",
              spec.run_time.to_seconds(), sim.workstation_count(),
              sim.user_count(), sim.shard_count(), threads);
  if (sim.window() != sim::kUnboundedLookahead) {
    std::printf(", %.1f ms window", sim.window().to_millis());
  }
  std::printf(")\n\n");

  std::printf("--- users ---\n");
  for (const auto& u : spec.users) {
    const auto room = sim.db_room(u.userid);
    std::printf("  %-10s logged_in=%d room=%s", u.name.c_str(),
                sim.active_client(u.userid).logged_in() ? 1 : 0,
                room ? sim.building().room(*room).name.c_str() : "(unknown)");
    if (sim.shard_count() > 1) {
      std::printf(" owner-shard=%zu", sim.owner_shard(u.userid));
    }
    std::printf("\n");
  }

  const core::TrackingMetrics& m = sim.tracking();
  std::printf("\n--- tracking scorecard ---\n");
  std::printf("  samples %llu, accuracy %.1f%% (correct %llu, absent-agree "
              "%llu, wrong %llu, false-absent %llu, false-present %llu)\n",
              static_cast<unsigned long long>(m.samples),
              100.0 * m.accuracy(),
              static_cast<unsigned long long>(m.correct_room),
              static_cast<unsigned long long>(m.agree_absent),
              static_cast<unsigned long long>(m.wrong_room),
              static_cast<unsigned long long>(m.false_absent),
              static_cast<unsigned long long>(m.false_present));

  std::printf("\n--- kernel ---\n");
  std::printf("  events %llu, windows %llu, cross-shard mail %llu\n",
              static_cast<unsigned long long>(sim.group().events_executed()),
              static_cast<unsigned long long>(sim.group().windows_run()),
              static_cast<unsigned long long>(sim.group().mail_delivered()));

  // Everything the deployment counted, straight from the registries: server,
  // location database, LAN, radio, workstations and kernel in one table per
  // shard.
  for (std::size_t k = 0; k < sim.shard_count(); ++k) {
    std::printf("\n--- metrics registry");
    if (sim.shard_count() > 1) std::printf(" (shard %zu)", k);
    std::printf(" ---\n%s",
                sim.shard_simulator(k).obs().metrics.to_table().c_str());
  }
}

void report_checks(const core::ScenarioReport& rep) {
  if (rep.checks.empty()) return;
  std::printf("\n--- assertions ---\n");
  for (const core::ScenarioCheck& c : rep.checks) {
    std::printf("  line %-3d %s  %s%s%s\n", c.line,
                c.passed ? "PASS" : "FAIL", c.what.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
  }
  std::printf("  %zu/%zu passed\n", rep.checks.size() - rep.failed(),
              rep.checks.size());
}

/// Opens `path` for writing, creating missing parent directories first.
/// Any failure (uncreatable directory, unwritable file) is reported on
/// stderr and returns false -- the runner exits with kSinkError instead of
/// aborting or writing a partial sink.
bool open_sink(std::ofstream& os, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "cannot create directory %s: %s\n",
                   p.parent_path().string().c_str(), ec.message().c_str());
      return false;
    }
  }
  os.open(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Flushes and verifies the stream after the payload was written: a full
/// disk or revoked permission surfaces here, not as a silent exit 0.
bool close_sink(std::ofstream& os, const std::string& path) {
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool exact_slots = false;
  bool synth_chaos = false;
  long long synth_seed = -1;
  long threads = 1;
  long shards = 1;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout, argv[0]);
      return kOk;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--exact-slots") == 0) {
      exact_slots = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::strtol(argv[++i], nullptr, 10);
      if (threads < 1) {
        std::fprintf(stderr, "--threads: N must be a positive integer\n");
        return kUsage;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtol(argv[++i], nullptr, 10);
      if (shards < 1) {
        std::fprintf(stderr, "--shards: N must be a positive integer\n");
        return kUsage;
      }
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      synth_chaos = true;
    } else if (std::strcmp(argv[i], "--synth") == 0 && i + 1 < argc) {
      char* end = nullptr;
      synth_seed = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || synth_seed < 0) {
        std::fprintf(stderr, "--synth: SEED must be a non-negative integer\n");
        return kUsage;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }

  if (synth_seed >= 0) {
    core::SynthParams params;
    params.chaos_block = synth_chaos;
    std::fputs(core::synth_scenario(
                   static_cast<std::uint64_t>(synth_seed), params)
                   .c_str(),
               stdout);
    return kOk;
  }
  if (positional.empty()) {
    usage(stderr, argv[0]);
    return kUsage;
  }
  if (!trace_path.empty() && shards > 1) {
    std::fprintf(stderr, "--trace is not supported with --shards > 1 yet "
                         "(per-shard trace streams)\n");
    return kUsage;
  }

  core::ScenarioError err;
  std::optional<core::ScenarioSpec> spec;
  if (std::strcmp(positional[0], "--demo") == 0) {
    std::printf("running the built-in demo scenario:\n%s\n", kDemoScenario);
    spec = core::parse_scenario(std::string(kDemoScenario), &err);
  } else {
    std::ifstream in(positional[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", positional[0]);
      return kParseError;
    }
    spec = core::parse_scenario(in, &err);
  }
  if (!spec) {
    std::fprintf(stderr, "scenario error (line %d): %s\n", err.line,
                 err.message.c_str());
    return kParseError;
  }

  if (exact_slots) spec->config.channel.exact_slots = true;

  // The trace sink must be live before the first event fires, so it rides
  // the pre-run hook. Deterministic: same scenario + seed => same bytes.
  std::ofstream trace_os;
  std::unique_ptr<obs::JsonlSink> trace_sink;
  if (!trace_path.empty()) {
    if (!open_sink(trace_os, trace_path)) return kSinkError;
    trace_sink = std::make_unique<obs::JsonlSink>(trace_os);
  }
  core::ScenarioReport checks;
  auto sim = core::run_scenario(
      *spec, static_cast<unsigned>(threads), static_cast<std::size_t>(shards),
      [&](core::ShardedBipsSimulation& s) {
        if (trace_sink) {
          s.shard_simulator(0).obs().tracer.set_sink(trace_sink.get());
        }
      },
      &checks);
  report(*sim, *spec, static_cast<unsigned>(threads));
  report_checks(checks);
  if (trace_sink) {
    sim->shard_simulator(0).obs().tracer.set_sink(nullptr);
    trace_sink->flush();
    if (!close_sink(trace_os, trace_path)) return kSinkError;
    std::printf("\ntrace written to %s (%zu records)\n", trace_path.c_str(),
                trace_sink->records_written());
  }

  if (positional.size() >= 2 && std::strcmp(positional[0], "--demo") != 0) {
    std::ofstream csv;
    if (!open_sink(csv, positional[1])) return kSinkError;
    sim->write_history_csv(csv);
    if (!close_sink(csv, positional[1])) return kSinkError;
    std::printf("\nhistory written to %s\n", positional[1]);
  }
  if (checks.invariants_violated()) return kInvariantBroken;
  if (!checks.passed()) return kAssertFailed;
  return kOk;
}
