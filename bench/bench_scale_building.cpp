// Scale sweep -- building-sized deployments: events/sec of the whole stack.
//
// The paper simulates one master and up to 20 slaves; the north star is a
// whole building of piconets under load. This bench sweeps rooms x users
// (grid floor plans, walking populations, full server/LAN stack) and
// measures raw simulation throughput: executed events per wall-clock
// second. It is the regression guard for the event-kernel and radio-channel
// architecture -- the numbers in BENCH_scale.json (repo root) record the
// pre-refactor baseline and the current kernel side by side -- and, since
// the observability layer landed, for the metrics/trace hot-path cost
// (BENCH_obs.json holds the A/B numbers).
//
// Usage:
//   bench_scale_building [--smoke] [-o out.json] [--no-metrics]
//                        [--trace trace.jsonl] [--ab] [--max-overhead PCT]
//                        [--exact-slots] [--history FILE] [--ff-ab]
//                        [--energy-check] [--min-speedup X] [--reps N]
//                        [--point RxCxUxS]
//
// Every point runs the paper's single zone on one worker unless the zone
// modes below say otherwise. --smoke runs the smallest configuration only
// (CI). --no-metrics runs with every shard's registry gated off (the
// "disabled path" whose cost must stay ~zero). --trace streams the
// structured JSONL trace of the first sweep point; it needs a one-shard
// run outside --par-ab (exit 2 otherwise).
// --ab runs every point twice -- registry disabled then enabled -- and
// reports the enabled-path overhead; --max-overhead PCT makes the process
// exit nonzero if any point's overhead exceeds PCT (the CI gate).
//
// --exact-slots forces the per-slot drumming baseband (the default is the
// virtual-slot fast-forward path). --history FILE dumps the first point's
// discovery-history CSV. --ff-ab runs every point in BOTH modes, byte-diffs
// the two discovery histories (any difference fails the process: the two
// modes are contractually equivalent), and reports the fast-forward speedup
// in events-retired-per-second equivalents: byte-identical histories mean
// both modes retire the same semantic slot stream, so the equivalent
// throughput of the fast-forward run is the exact run's event count over the
// fast-forward run's CPU time, and the speedup reduces to the CPU-time
// ratio. --min-speedup X fails the process if any point lands below X;
// --reps N takes the best of N interleaved passes per mode (throughput
// only -- histories are deterministic, so they are captured once).
// --point RxCxUxS replaces the sweep with a single rows x cols x users x
// sim-seconds configuration, e.g. --point 8x8x512x10. --energy-check (with
// --ff-ab) additionally sums every master's energy ledger (TX + listen
// time, probed just past the end of the run so both modes see the same set
// of completed intervals) and fails the process if the exact and
// fast-forward totals differ by a nanosecond.
//
// Zone modes (DESIGN.md section 9):
//   --threads N   run every point's zones on N worker threads (N >= 1);
//   --shards N    zone count (default 1; 4 with --threads or --par-ab);
//   --par-ab      run every point twice -- 1 thread then --threads N
//                 (default 4) -- byte-diff the discovery histories,
//                 the presence trace streams, the energy ledgers and the
//                 Query-API answers (any difference fails the process:
//                 thread count must not change one byte), plus a third pass
//                 with the location service pinned to a single database
//                 (server.zones = 1; by default it has one shard per
//                 simulator zone) whose query answers must also match --
//                 partitioning the service must be invisible to queries;
//                 reports the wall-clock speedup; --min-speedup gates it.
//   --faults      inject a seeded chaos fault schedule (station crashes,
//                 a partition, a loss burst, one server crash/restart)
//                 scaled to the point's sim length into every run.
//                 With --par-ab this makes the byte-diff subjects -- the
//                 history, presence stream and Query answers -- cover the
//                 fault taxonomy's shard-local and barrier classes too.
//   --append      append this run's rows to an existing report instead of
//                 overwriting it; refuses if the file's schema version
//                 differs (rows carry "threads" and "commit" since v2).
#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/parallel.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/plan.hpp"
#include "src/obs/obs.hpp"
#include "src/util/table.hpp"

namespace bips::bench {
namespace {

struct SweepPoint {
  int rows = 0, cols = 0, users = 0;
  double sim_seconds = 0;
};

struct Result {
  SweepPoint p;
  bool metrics_on = true;
  bool exact_slots = false;
  std::size_t shards = 1;
  int threads = 1;  // worker threads
  std::uint64_t events = 0;
  std::uint64_t skipped = 0;  // kernel.skipped_slots (0 under --exact-slots)
  std::uint64_t elided_polls = 0;  // piconet.elided_polls (supervised quiesce)
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t discoveries = 0;
  double cpu_s = 0;   // process CPU time: robust on a shared machine
  double wall_s = 0;
  double events_per_sec = 0;   // events / cpu_s
  double retired_per_sec = 0;  // (events + skipped) / cpu_s
  double sim_ratio = 0;        // simulated seconds per CPU second
  double overhead_pct = 0;     // --ab only, on the enabled row
  double speedup = 0;          // --ff-ab only, on the fast-forward row
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Summed master-side energy ledgers, for the --energy-check equivalence
// gate (exact vs fast-forward totals must agree to the nanosecond).
struct EnergyTotals {
  std::int64_t tx_ns = 0;
  std::int64_t listen_ns = 0;
  bool operator==(const EnergyTotals& o) const {
    return tx_ns == o.tx_ns && listen_ns == o.listen_ns;
  }
};

/// Canonical dump of the unified Query API's answers after a run: where-is
/// and history-since for every user, who-is-in for every room, where-was at
/// a spread of instants. A --par-ab subject alongside the history CSV: the
/// answers must be byte-identical across thread counts AND across location-
/// service shard counts (the partitioning must be invisible to queries).
std::string dump_queries(core::ShardedBipsSimulation& sim, int users,
                         double sim_seconds) {
  using Query = core::BipsServer::Query;
  core::BipsServer& server = sim.server();
  std::ostringstream os;
  auto put = [&os](const proto::QueryResult& r) {
    os << static_cast<int>(r.status) << '|' << r.room << '|';
    for (const auto& u : r.users) os << u << ',';
    os << '|' << r.distance << '|' << r.was_present << '|' << r.since.ns()
       << '|';
    for (const auto& v : r.visits) {
      os << v.room << (v.entered ? '+' : '-') << v.at.ns() << ',';
    }
    os << '\n';
  };
  for (int i = 0; i < users; ++i) {
    const std::string name = "User " + std::to_string(i);
    put(server.query(Query::where_is("", name)));
    put(server.query(Query::history_since("", name, SimTime::zero())));
    for (double frac : {0.5, 1.0}) {
      put(server.query(Query::where_was(
          "", name, SimTime(Duration::from_seconds(sim_seconds * frac).ns()))));
    }
  }
  for (const mobility::Room& room : sim.building().rooms()) {
    put(server.query(Query::who_is_in("", room.name)));
  }
  return os.str();
}

/// How to run one sweep point, and which equivalence subjects to capture
/// (a null capture is skipped).
struct Run {
  int threads = 1;
  std::size_t shards = 1;
  /// Location-service shard count (0 = one per simulator zone).
  std::size_t zones = 0;
  bool metrics = true;
  bool exact_slots = false;
  bool faults = false;
  std::string trace_path;  // one-shard runs only (shard 0's tracer)
  std::string* history = nullptr;
  std::string* presence = nullptr;
  EnergyTotals* energy = nullptr;
  std::string* queries = nullptr;
};

/// One sweep point: the deployment cut into `run.shards` zones (DESIGN.md
/// section 9) and run on `run.threads` workers. The captured history,
/// presence stream, energy totals and query answers are the --par-ab and
/// --ff-ab equivalence subjects: every one of them must be byte-identical
/// across thread counts (and the history and energy across slot modes).
Result run_point(const SweepPoint& p, const Run& run) {
  core::ShardedConfig scfg;
  scfg.base.seed = 0x5CA1E'0000ull + static_cast<std::uint64_t>(p.rows * p.cols);
  scfg.base.stagger_inquiry = true;
  scfg.base.channel.exact_slots = run.exact_slots;
  // The Figure 2 cadence: short cycles keep every master inquiring often,
  // which is the radio-heavy regime the bench is meant to stress.
  scfg.base.workstation.scheduler.inquiry_length = Duration::from_seconds(1.28);
  scfg.base.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  // The fault drill needs the failure detector armed: expirations and the
  // zone agents' dedup resets are part of what the byte-diff must cover.
  if (run.faults) scfg.base.server.station_timeout = Duration::seconds(10);
  scfg.shards = run.shards;
  scfg.base.server.zones = run.zones;

  core::ShardedBipsSimulation sim(mobility::Building::grid(p.rows, p.cols),
                                  scfg);
  sim.set_metrics_enabled(run.metrics);

  std::ofstream trace_os;
  std::unique_ptr<obs::JsonlSink> trace_sink;
  if (!run.trace_path.empty()) {
    trace_os.open(run.trace_path);
    trace_sink = std::make_unique<obs::JsonlSink>(trace_os);
    sim.shard_simulator(0).obs().tracer.set_sink(trace_sink.get());
  }
  // Presence capture: one sink per shard (each written only by its own
  // worker), concatenated in shard order after the run -- a deterministic
  // canonical stream for the byte-diff.
  std::vector<std::ostringstream> pstreams;
  std::vector<std::unique_ptr<obs::JsonlSink>> psinks;
  if (run.presence != nullptr) {
    pstreams.resize(sim.shard_count());
    for (std::size_t k = 0; k < sim.shard_count(); ++k) {
      psinks.push_back(std::make_unique<obs::JsonlSink>(pstreams[k]));
      sim.shard_simulator(k).obs().tracer.set_sink(psinks[k].get());
    }
  }

  const int rooms = p.rows * p.cols;
  for (int i = 0; i < p.users; ++i) {
    sim.add_user("User " + std::to_string(i), "u" + std::to_string(i), "pw",
                 static_cast<mobility::RoomId>(i % rooms));
  }

  if (run.faults) {
    // Seeded chaos scaled to the point's horizon: boot for the first fifth,
    // inject across the middle three fifths, heal before the end. Short
    // outages keep the drill dense even on 10 s smoke points.
    fault::ChaosParams cp;
    cp.start = Duration::from_seconds(p.sim_seconds * 0.2);
    cp.window = Duration::from_seconds(p.sim_seconds * 0.6);
    cp.min_outage = Duration::seconds(1);
    cp.max_outage = Duration::seconds(3);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        scfg.base.seed ^ 0xFA17ull, static_cast<std::size_t>(rooms), cp);
    plan.apply_sharded(sim);
  }
  sim.start();

  const auto threads = static_cast<unsigned>(run.threads);
  const double c0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_for(Duration::from_seconds(p.sim_seconds), threads);
  const auto t1 = std::chrono::steady_clock::now();
  const double c1 = process_cpu_seconds();

  if (trace_sink) {
    sim.shard_simulator(0).obs().tracer.set_sink(nullptr);
    trace_sink->flush();
  }

  if (run.queries != nullptr) {
    // Probe the Query API before the energy nudge so the answers are taken
    // at the same instant whether or not energy capture is on.
    *run.queries = dump_queries(sim, p.users, p.sim_seconds);
  }

  if (run.energy != nullptr) {
    // Probe off the 312.5 us slot lattice: integer-second instants land on
    // every device's slot grid, where exact mode has events due exactly
    // "now" that the in-event FIFO convention counts as not-yet-fired.
    // Nudging past the end keeps the two modes' completed-interval sets
    // identical. A stats() read settles each master's lazily-credited park
    // energy into its device meter before we sum, in station-id order.
    sim.run_for(Duration::nanos(100), threads);
    for (std::size_t s = 0; s < sim.workstation_count(); ++s) {
      auto& ws = sim.workstation(static_cast<core::StationId>(s));
      ws.scheduler().inquirer().stats();
      ws.scheduler().pager().stats();
      ws.scheduler().piconet().stats();
      run.energy->tx_ns += ws.device().energy().tx_time.ns();
      run.energy->listen_ns += ws.device().energy().listen_time.ns();
    }
  }

  if (run.presence != nullptr) {
    std::string stream;
    for (std::size_t k = 0; k < sim.shard_count(); ++k) {
      sim.shard_simulator(k).obs().tracer.set_sink(nullptr);
      psinks[k]->flush();
      // Keep only the presence records: the canonical stream of what each
      // zone reported, free of kernel-sample noise.
      std::istringstream lines(pstreams[k].str());
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find("\"kind\":\"presence\"") != std::string::npos) {
          stream += line;
          stream += '\n';
        }
      }
    }
    *run.presence = std::move(stream);
  }

  Result r;
  r.p = p;
  r.metrics_on = run.metrics;
  r.exact_slots = run.exact_slots;
  r.shards = sim.shard_count();
  r.threads = run.threads;
  r.events = sim.group().events_executed();
  // The traffic counters come off the registry snapshots -- with the
  // registries gated off they read zero, which is exactly the disabled path
  // the A/B mode measures.
  r.skipped = sim.metric_sum("kernel.skipped_slots");
  r.elided_polls = sim.metric_sum("piconet.elided_polls");
  r.transmissions = sim.metric_sum("radio.transmissions");
  r.deliveries = sim.metric_sum("radio.deliveries");
  r.discoveries = sim.metric_sum("ws.discoveries");
  r.cpu_s = c1 - c0;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  // A sequential run is timed in process CPU time (robust on a shared
  // machine); parallel workers burn CPU concurrently, so a multi-worker
  // run is timed on the wall clock.
  const double t = run.threads > 1 && r.shards > 1 ? r.wall_s : r.cpu_s;
  r.events_per_sec = t > 0 ? static_cast<double>(r.events) / t : 0;
  // Retired-equivalent throughput: every slot the fast-forward path elides
  // is a slot the exact drum would have paid kernel events for, so the fair
  // cross-mode unit is executed events plus skipped slots.
  r.retired_per_sec =
      t > 0 ? static_cast<double>(r.events + r.skipped) / t : 0;
  r.sim_ratio = t > 0 ? p.sim_seconds / t : 0;
  if (run.history != nullptr) {
    std::ostringstream hist;
    sim.write_history_csv(hist);
    *run.history = hist.str();
  }
  return r;
}

// Report schema version. v2 added per-row "threads" and "commit" (the
// sharded-kernel sweep needs both to make rows comparable across runs);
// --append refuses to mix rows across schema versions.
constexpr int kSchemaVersion = 2;

std::string git_commit() {
  FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {0};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  if (!got) return "unknown";
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s.empty() ? "unknown" : s;
}

std::string render_row(const Result& r, const std::string& commit,
                       bool last) {
  char buf[896];
  std::snprintf(
      buf, sizeof buf,
      "    {\"rooms\": %d, \"users\": %d, \"sim_s\": %.1f, "
      "\"metrics\": %s, \"exact_slots\": %s, \"threads\": %d, "
      "\"commit\": \"%s\", \"events\": %llu, "
      "\"skipped_slots\": %llu, \"elided_polls\": %llu, "
      "\"transmissions\": %llu, "
      "\"deliveries\": %llu, \"discoveries\": %llu, \"cpu_s\": %.3f, "
      "\"wall_s\": %.3f, \"events_per_sec\": %.0f, "
      "\"retired_per_sec\": %.0f, \"sim_ratio\": %.1f, "
      "\"overhead_pct\": %.2f, \"speedup\": %.2f}%s\n",
      r.p.rows * r.p.cols, r.p.users, r.p.sim_seconds,
      r.metrics_on ? "true" : "false", r.exact_slots ? "true" : "false",
      r.threads, commit.c_str(),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.skipped),
      static_cast<unsigned long long>(r.elided_polls),
      static_cast<unsigned long long>(r.transmissions),
      static_cast<unsigned long long>(r.deliveries),
      static_cast<unsigned long long>(r.discoveries), r.cpu_s, r.wall_s,
      r.events_per_sec, r.retired_per_sec, r.sim_ratio, r.overhead_pct,
      r.speedup, last ? "" : ",");
  return buf;
}

/// Writes (or, with `append`, extends) the JSON report. Appending validates
/// the existing file's schema marker first: rows from different schema
/// versions must never mix in one report. Returns false on refusal.
bool write_json(const std::vector<Result>& results, const std::string& path,
                bool smoke, bool ab, bool append) {
  const std::string commit = git_commit();
  if (append) {
    std::ifstream is(path);
    if (is) {
      std::ostringstream all;
      all << is.rdbuf();
      std::string text = all.str();
      char want[32];
      std::snprintf(want, sizeof want, "\"schema\": %d", kSchemaVersion);
      if (text.find(want) == std::string::npos) {
        std::fprintf(stderr,
                     "error: %s is not schema v%d; refusing to append "
                     "mismatched-schema rows (rewrite without --append)\n",
                     path.c_str(), kSchemaVersion);
        return false;
      }
      const std::string tail = "  ]\n}\n";
      const std::size_t pos = text.rfind(tail);
      if (pos == std::string::npos) {
        std::fprintf(stderr, "error: %s is malformed; cannot append\n",
                     path.c_str());
        return false;
      }
      std::string rows;
      for (std::size_t i = 0; i < results.size(); ++i) {
        rows += render_row(results[i], commit, i + 1 == results.size());
      }
      // The previous last row needs a trailing comma before the new block.
      std::string body = text.substr(0, pos);
      const std::size_t brace = body.rfind('}');
      if (brace != std::string::npos && body.find('{', 1) != std::string::npos) {
        body.insert(brace + 1, ",");
      }
      std::ofstream os(path);
      os << body << rows << tail;
      return true;
    }
    // No existing file: fall through to a fresh write.
  }
  std::ofstream os(path);
  os << "{\n  \"bench\": \"scale_building\",\n  \"schema\": "
     << kSchemaVersion << ",\n  \"mode\": \"" << (smoke ? "smoke" : "full")
     << (ab ? "-ab" : "") << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << render_row(results[i], commit, i + 1 == results.size());
  }
  os << "  ]\n}\n";
  return true;
}

struct Options {
  bool smoke = false;
  bool metrics = true;
  bool ab = false;
  bool exact_slots = false;
  bool ffab = false;
  bool parab = false;         // 1-thread vs N-thread byte equivalence
  bool append = false;        // extend the report instead of overwriting
  bool energy_check = false;  // --ff-ab: also byte-diff the energy ledgers
  bool faults = false;        // inject a seeded chaos plan
  int threads = 0;  // worker threads; 0 = 4 under --par-ab, else 1
  int shards = 0;   // zone count; 0 = 4 with --threads or --par-ab, else 1
  int reps = 1;              // --ff-ab / --par-ab: best-of-N passes per mode
  double max_overhead = -1;  // <0: no gate
  double min_speedup = -1;   // <0: no gate
  std::string out = "BENCH_scale.json";
  std::string trace_path;
  std::string history_path;
  bool has_point = false;
  SweepPoint point{};
};

int run(const Options& opt) {
  print_header("SCALE", "Building-scale sweep: whole-stack events/sec");

  std::vector<SweepPoint> sweep;
  if (opt.has_point) {
    sweep = {opt.point};
  } else if (opt.smoke) {
    sweep = {{2, 2, 8, 10.0}};
  } else {
    sweep = {{2, 2, 8, 30.0},
             {2, 4, 32, 30.0},
             {4, 4, 64, 30.0},
             {4, 8, 192, 20.0},
             {8, 8, 512, 20.0},
             {8, 16, 1024, 20.0}};
  }

  TableWriter table({"rooms", "users", "sim s", "mode", "obs", "events",
                     "skipped", "cpu s", "retired/s", "sim x realtime"});
  auto add_row = [&table](const Result& r) {
    const std::string mode = r.shards > 1
                                 ? "par" + std::to_string(r.threads)
                                 : (r.exact_slots ? "exact" : "ff");
    table.add_row({std::to_string(r.p.rows * r.p.cols),
                   std::to_string(r.p.users), fmt(r.p.sim_seconds, 0), mode,
                   r.metrics_on ? "on" : "off", std::to_string(r.events),
                   std::to_string(r.skipped), fmt(r.cpu_s, 2),
                   fmt(r.retired_per_sec, 0), fmt(r.sim_ratio, 1)});
  };

  std::vector<Result> results;
  double worst_overhead = 0;
  double worst_speedup = 1e300;
  bool history_mismatch = false;
  bool presence_mismatch = false;
  bool energy_mismatch = false;
  bool query_mismatch = false;
  std::string first_history;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    // The trace (if requested) rides the first point's enabled run.
    const std::string trace = i == 0 ? opt.trace_path : std::string();
    // Every mode starts from the same run: zones, workers, faults, slot
    // mode and registry gate as requested.
    Run base;
    base.threads = opt.threads;
    base.shards = static_cast<std::size_t>(opt.shards);
    base.metrics = opt.metrics;
    base.exact_slots = opt.exact_slots;
    base.faults = opt.faults;
    if (opt.parab) {
      // Thread-count equivalence: the 1-thread sequential reference vs N
      // workers, identical shard layout. Histories, presence streams,
      // energy ledgers and Query-API answers must match byte for byte;
      // wall-clock (not CPU time: workers burn CPU in parallel) gives the
      // speedup. A third pass pins the location service to ONE shard
      // (server.zones = 1, the single-database reference) and byte-diffs its
      // query answers too: partitioning the service must not change an
      // answer any more than the thread count does.
      Run one = base;
      one.threads = 1;
      std::string hist1, histn, pres1, presn, q1, qn, qsingle;
      EnergyTotals energy1, energyn;
      Run cap1 = one;
      cap1.history = &hist1;
      cap1.presence = &pres1;
      cap1.energy = &energy1;
      cap1.queries = &q1;
      Run capn = base;
      capn.history = &histn;
      capn.presence = &presn;
      capn.energy = &energyn;
      capn.queries = &qn;
      Run single_db = base;
      single_db.zones = 1;
      single_db.queries = &qsingle;
      Result r1 = run_point(p, cap1);
      Result rn = run_point(p, capn);
      run_point(p, single_db);
      for (int rep = 1; rep < opt.reps; ++rep) {
        const Result a = run_point(p, one);
        if (a.wall_s < r1.wall_s) r1 = a;
        const Result b = run_point(p, base);
        if (b.wall_s < rn.wall_s) rn = b;
      }
      const bool hist_ok = hist1 == histn;
      const bool pres_ok = pres1 == presn;
      const bool energy_ok = energy1 == energyn;
      const bool query_ok = q1 == qn && q1 == qsingle;
      if (!hist_ok) history_mismatch = true;
      if (!pres_ok) presence_mismatch = true;
      if (!energy_ok) energy_mismatch = true;
      if (!query_ok) query_mismatch = true;
      rn.speedup = rn.wall_s > 0 ? r1.wall_s / rn.wall_s : 0.0;
      worst_speedup = std::min(worst_speedup, rn.speedup);
      if (i == 0) first_history = hist1;
      results.push_back(r1);
      results.push_back(rn);
      add_row(r1);
      add_row(rn);
      std::printf("done: %d rooms / %d users -> 1 thread %.2f s wall, "
                  "%d threads %.2f s wall (%.2fx; history %s, presence %s, "
                  "energy %s, queries %s)\n",
                  p.rows * p.cols, p.users, r1.wall_s, opt.threads, rn.wall_s,
                  rn.speedup, hist_ok ? "identical" : "DIFFERS",
                  pres_ok ? "identical" : "DIFFERS",
                  energy_ok ? "identical" : "DIFFERS",
                  query_ok ? "identical" : "DIFFERS");
    } else if (opt.ffab) {
      // Exact-vs-virtual equivalence and speedup: one history-capturing
      // pass per mode (the sim is deterministic, so one capture suffices),
      // then best-of-reps interleaved passes for throughput. Noise only
      // ever slows a run down, so the per-mode max converges on the true
      // figure.
      std::string hist_exact, hist_ff;
      EnergyTotals energy_exact, energy_ff;
      Run exact = base;
      exact.exact_slots = true;
      Run fast = base;
      fast.exact_slots = false;
      Run cap_ex = exact;
      cap_ex.history = &hist_exact;
      cap_ex.energy = opt.energy_check ? &energy_exact : nullptr;
      Run cap_ff = fast;
      cap_ff.trace_path = trace;
      cap_ff.history = &hist_ff;
      cap_ff.energy = opt.energy_check ? &energy_ff : nullptr;
      Result ex = run_point(p, cap_ex);
      Result ff = run_point(p, cap_ff);
      for (int rep = 1; rep < opt.reps; ++rep) {
        const Result ex2 = run_point(p, exact);
        if (ex2.retired_per_sec > ex.retired_per_sec) ex = ex2;
        const Result ff2 = run_point(p, fast);
        if (ff2.retired_per_sec > ff.retired_per_sec) ff = ff2;
      }
      const bool identical = hist_exact == hist_ff;
      if (!identical) history_mismatch = true;
      if (opt.energy_check && !(energy_exact == energy_ff)) {
        energy_mismatch = true;
        std::printf("energy DIFFERS at %d rooms / %d users: exact tx %lld ns "
                    "listen %lld ns vs ff tx %lld ns listen %lld ns\n",
                    p.rows * p.cols, p.users,
                    static_cast<long long>(energy_exact.tx_ns),
                    static_cast<long long>(energy_exact.listen_ns),
                    static_cast<long long>(energy_ff.tx_ns),
                    static_cast<long long>(energy_ff.listen_ns));
      }
      // Byte-identical histories: both modes retired the same semantic
      // slot stream, so equivalent throughput is exact-events over each
      // mode's CPU time and the speedup is the CPU-time ratio.
      ff.speedup = ff.cpu_s > 0 ? ex.cpu_s / ff.cpu_s : 0.0;
      worst_speedup = std::min(worst_speedup, ff.speedup);
      if (i == 0) first_history = hist_ff;
      results.push_back(ex);
      results.push_back(ff);
      add_row(ex);
      add_row(ff);
      const double ff_equiv =
          ff.cpu_s > 0 ? static_cast<double>(ex.events) / ff.cpu_s : 0.0;
      std::printf("done: %d rooms / %d users -> exact %.0f ev/s, "
                  "ff %.0f equiv-ev/s (%.2fx, histories %s)\n",
                  p.rows * p.cols, p.users, ex.events_per_sec, ff_equiv,
                  ff.speedup, identical ? "identical" : "DIFFER");
    } else if (opt.ab) {
      // Best-of-N per mode, interleaved, where N grows until each mode has
      // accumulated enough CPU time to measure: single passes of the small
      // points run in milliseconds, where scheduler noise dwarfs the
      // instrumentation cost the gate below is after. Noise only ever makes
      // a run slower, so the per-mode max converges on the true throughput.
      Run disabled = base;
      disabled.metrics = false;
      Run enabled = base;
      enabled.metrics = true;
      Run traced = enabled;
      traced.trace_path = trace;
      Result off = run_point(p, disabled);
      Result on = run_point(p, traced);
      double cpu_spent = off.cpu_s + on.cpu_s;
      for (int rep = 1; rep < 25 && (rep < 3 || cpu_spent < 0.5); ++rep) {
        const Result off2 = run_point(p, disabled);
        if (off2.events_per_sec > off.events_per_sec) off = off2;
        const Result on2 = run_point(p, enabled);
        if (on2.events_per_sec > on.events_per_sec) on = on2;
        cpu_spent += off2.cpu_s + on2.cpu_s;
      }
      on.overhead_pct = on.events_per_sec > 0
                            ? (off.events_per_sec / on.events_per_sec - 1.0) *
                                  100.0
                            : 0.0;
      worst_overhead = std::max(worst_overhead, on.overhead_pct);
      results.push_back(off);
      results.push_back(on);
      add_row(off);
      add_row(on);
      std::printf("done: %d rooms / %d users -> off %.0f ev/s, on %.0f ev/s "
                  "(overhead %+.2f%%)\n",
                  p.rows * p.cols, p.users, off.events_per_sec,
                  on.events_per_sec, on.overhead_pct);
    } else {
      Run plain = base;
      plain.trace_path = trace;
      if (i == 0 && !opt.history_path.empty()) plain.history = &first_history;
      const Result r = run_point(p, plain);
      results.push_back(r);
      add_row(r);
      std::printf("done: %d rooms / %d users -> %.0f events/s (%d threads, "
                  "%.2f s wall, %.2f s cpu)\n",
                  p.rows * p.cols, p.users, r.events_per_sec, r.threads,
                  r.wall_s, r.cpu_s);
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  if (!write_json(results, opt.out, opt.smoke, opt.ab || opt.ffab || opt.parab,
                  opt.append)) {
    return 1;
  }
  std::printf("report written to %s\n", opt.out.c_str());
  if (!opt.trace_path.empty()) {
    std::printf("trace written to %s\n", opt.trace_path.c_str());
  }
  if (!opt.history_path.empty()) {
    std::ofstream hist_os(opt.history_path);
    if (!hist_os) {
      std::fprintf(stderr, "error: cannot open history sink %s\n",
                   opt.history_path.c_str());
      return 1;
    }
    hist_os << first_history;
    std::printf("discovery history written to %s\n", opt.history_path.c_str());
  }

  if (opt.parab) {
    if (history_mismatch || presence_mismatch || energy_mismatch ||
        query_mismatch) {
      std::printf("FAIL: sharded outputs differ across thread or shard "
                  "counts (history %s, presence %s, energy %s, queries %s) "
                  "-- neither thread count nor service partitioning may "
                  "change one byte\n",
                  history_mismatch ? "DIFFERS" : "ok",
                  presence_mismatch ? "DIFFERS" : "ok",
                  energy_mismatch ? "DIFFERS" : "ok",
                  query_mismatch ? "DIFFERS" : "ok");
      return 1;
    }
    std::printf("OK: sharded history, presence stream, energy ledgers and "
                "query answers are byte-identical across thread counts (and "
                "vs the single-database service) at every point\n");
    if (opt.min_speedup >= 0) {
      if (worst_speedup < opt.min_speedup) {
        std::printf("FAIL: parallel wall-clock speedup %.2fx is below the "
                    "%.2fx floor\n",
                    worst_speedup, opt.min_speedup);
        return 1;
      }
      std::printf("OK: worst parallel wall-clock speedup %.2fx clears the "
                  "%.2fx floor\n",
                  worst_speedup, opt.min_speedup);
    }
  }

  if (opt.ffab) {
    if (history_mismatch) {
      std::printf("FAIL: exact-slot and fast-forward discovery histories "
                  "differ -- the modes must be byte-equivalent\n");
      return 1;
    }
    std::printf("OK: exact-slot and fast-forward discovery histories are "
                "byte-identical at every point\n");
    if (opt.energy_check) {
      if (energy_mismatch) {
        std::printf("FAIL: master energy ledgers differ across modes -- the "
                    "lazily-credited park energy must be exact\n");
        return 1;
      }
      std::printf("OK: master energy ledgers (TX + listen time) are "
                  "identical across modes at every point\n");
    }
    if (opt.min_speedup >= 0) {
      if (worst_speedup < opt.min_speedup) {
        std::printf("FAIL: fast-forward speedup %.2fx is below the %.2fx "
                    "floor\n",
                    worst_speedup, opt.min_speedup);
        return 1;
      }
      std::printf("OK: worst fast-forward speedup %.2fx clears the %.2fx "
                  "floor\n",
                  worst_speedup, opt.min_speedup);
    }
  }

  if (opt.ab && opt.max_overhead >= 0) {
    if (worst_overhead > opt.max_overhead) {
      std::printf("FAIL: enabled-metrics overhead %.2f%% exceeds the %.2f%% "
                  "budget\n",
                  worst_overhead, opt.max_overhead);
      return 1;
    }
    std::printf("OK: worst enabled-metrics overhead %.2f%% within the "
                "%.2f%% budget\n",
                worst_overhead, opt.max_overhead);
  }
  return 0;
}

}  // namespace
}  // namespace bips::bench

int main(int argc, char** argv) {
  bips::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
      opt.metrics = false;
    } else if (std::strcmp(argv[i], "--ab") == 0) {
      opt.ab = true;
    } else if (std::strcmp(argv[i], "--ff-ab") == 0) {
      opt.ffab = true;
    } else if (std::strcmp(argv[i], "--par-ab") == 0) {
      opt.parab = true;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      opt.append = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opt.threads = std::atoi(argv[++i]);
      if (opt.threads < 1) opt.threads = 1;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      opt.shards = std::atoi(argv[++i]);
      if (opt.shards < 1) opt.shards = 1;
    } else if (std::strcmp(argv[i], "--energy-check") == 0) {
      opt.energy_check = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      opt.faults = true;
    } else if (std::strcmp(argv[i], "--exact-slots") == 0) {
      opt.exact_slots = true;
    } else if (std::strcmp(argv[i], "--max-overhead") == 0 && i + 1 < argc) {
      opt.max_overhead = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      opt.min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
      if (opt.reps < 1) opt.reps = 1;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--history") == 0 && i + 1 < argc) {
      opt.history_path = argv[++i];
    } else if (std::strcmp(argv[i], "--point") == 0 && i + 1 < argc) {
      bips::bench::SweepPoint p{};
      if (std::sscanf(argv[++i], "%dx%dx%dx%lf", &p.rows, &p.cols, &p.users,
                      &p.sim_seconds) != 4 ||
          p.rows < 1 || p.cols < 1 || p.users < 1 || p.sim_seconds <= 0) {
        std::fprintf(stderr, "bad --point (want RxCxUxS, e.g. 8x8x512x10)\n");
        return 2;
      }
      opt.point = p;
      opt.has_point = true;
    } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [-o out.json] [--no-metrics] "
                   "[--trace trace.jsonl] [--ab] [--max-overhead PCT] "
                   "[--exact-slots] [--history FILE] [--ff-ab] [--par-ab] "
                   "[--threads N] [--shards N] [--append] [--faults] "
                   "[--energy-check] [--min-speedup X] [--reps N] "
                   "[--point RxCxUxS]\n",
                   argv[0]);
      return 2;
    }
  }
  // --threads and --par-ab cut the building into four zones by default (and
  // --par-ab runs four workers); every other run is the paper's single zone
  // on one worker.
  if (opt.shards == 0) opt.shards = opt.threads > 0 || opt.parab ? 4 : 1;
  if (opt.threads == 0) opt.threads = opt.parab ? 4 : 1;
  if (!opt.trace_path.empty() && (opt.shards > 1 || opt.parab)) {
    std::fprintf(stderr, "--trace needs a one-shard run outside --par-ab "
                         "(per-shard trace streams are not merged yet)\n");
    return 2;
  }
  return bips::bench::run(opt);
}
