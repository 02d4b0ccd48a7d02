// bench_bips -- the BIPS benchmark: simulation throughput, location
// freshness and query latency on four building workloads.
//
// Every workload builds one grid building, registers a walking population,
// schedules an open-loop stream of over-the-air queries and runs the sharded
// stack (core::ShardedBipsSimulation) through public calls only:
//
//   * timed reps install no hook and no sink; they give the host-time
//     metrics (set-up, simulated seconds per wall second, peak RSS) as
//     medians, and the query round trips;
//   * the traced rep, at the timed thread count, installs a counting trace
//     sink on every shard and a barrier hook that stamps host time and
//     schedules a no-op marker on every shard at the next window edge (its
//     host stamp is the instant that shard's worker finished the window).
//     The spans and the per-layer time split come from this rep;
//   * the probe rep runs on one thread with a barrier hook that samples
//     witness users every 100 ms for location freshness and accuracy,
//     times direct BipsServer::query calls and, on office and chaos, grades
//     the fault layer's invariants. It is also the threads=1 reference run.
//
// Correctness: the FNV-64 digest of the discovery-history CSV and of the
// query outcomes must be identical across every rep (timed, traced, probe);
// the traced rep must execute exactly the timed event count plus its own
// markers, the probe rep exactly the timed count; office and chaos must end
// with zero safety-invariant violations. Any failure exits 1.
//
// Metrics read from a deterministic run (freshness, accuracy, query round
// trips, counts) carry q1 == q3 == value in the -o report: they have no
// run-to-run spread. Host-time metrics carry the quartiles of their samples.
//
// Usage:
//   bench_bips --workload {office|floor|crowd|chaos|all} [--seed S]
//              [--reps N] [--seconds S] [--spans FILE] [-o FILE] [--smoke]
//
//   --seed S     world seed offset, query schedule and chaos plan (default
//                0: the world bench_scale_building builds at the same size)
//   --reps N     at least N timed reps (default 5)
//   --seconds S  then more timed reps while they fit in S seconds
//   --spans FILE the traced rep's spans as JSONL (bench_bips/README.md)
//   --smoke      every workload shrunk to 2x4 rooms, 32 users, 10 s, 2 reps
//
// Output: one line per metric, "workload metric value unit", end-to-end
// metrics first; -o writes the same metrics as JSON with median, quartiles
// and sample count. `all` re-executes this binary once per workload, so
// every workload runs in its own process and peak RSS is per workload.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/fault/invariants.hpp"
#include "src/fault/plan.hpp"
#include "src/obs/trace.hpp"
#include "src/util/log.hpp"
#include "src/util/stats.hpp"

extern char** environ;

namespace bips::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
};

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  int rows = 0, cols = 0, users = 0;
  std::size_t shards = 1;
  unsigned threads = 1;
  double sim_s = 0;
  Duration window = Duration(0);  // 0: the derived conservative window
  bool chaos = false;
  int witnesses = 0;  // freshness witnesses: the first N users
  // The probe rep grades fault::InvariantChecker and, after the run, the
  // convergence check (office does too: the same world without faults).
  bool graded = false;
};

// Why these four (bench_bips/README.md has the long form):
//   office -- paper-scale density on the single-zone path: kernel, baseband
//             and direct server ingest do all the work, no barrier traffic;
//   floor  -- seam handoffs, cross-shard mail and the serial barrier merge
//             dominate (the sharded-kernel levers show here);
//   crowd  -- the largest set-up (all-pairs paths over 1024 rooms, 12000
//             registrations x replicas; about a tenth of a rep against at
//             most 3% elsewhere), and a run that is all boot storm: about
//             7500 of the 12000 users log in during its 16 s;
//   chaos  -- office's world on four shards under a seeded fault plan: the
//             recovery paths (resync, expiry, re-login) of the same service.
// Witness counts trade probe cost (each sample is a linear userid scan)
// against the >= 1000 crossings a p99 needs.
std::vector<Workload> all_workloads(bool smoke) {
  const unsigned par = std::min(4u, usable_cpus());
  std::vector<Workload> w = {
      {"office", 8, 16, 1024, 1, 1, 150.0, Duration::millis(100), false, 256,
       true},
      {"floor", 16, 16, 4096, 4, par, 90.0, Duration(0), false, 384, false},
      {"crowd", 32, 32, 12000, 4, par, 16.0, Duration(0), false, 1024, false},
      {"chaos", 8, 16, 1024, 4, par, 200.0, Duration(0), true, 256, true},
  };
  if (smoke) {
    for (Workload& x : w) {
      x.rows = 2;
      x.cols = 4;
      x.users = 32;
      x.sim_s = 10.0;
      x.witnesses = 32;
    }
  }
  return w;
}

/// The deployment the building-scale benches share: the same seed for the
/// same room count as bench_scale_building (so seed 0 builds its world),
/// the Figure 2 cadence (1.28 s inquiry every 5.12 s) and staggered cycles.
/// This and chaos_plan() mirror bench/bench_scale_building.cpp's sharded
/// run_point(); keep the two in step.
core::ShardedConfig deployment(const Workload& w, std::uint64_t seed) {
  core::ShardedConfig cfg;
  cfg.base.seed = (0x5CA1E'0000ull + static_cast<std::uint64_t>(w.rows * w.cols)) ^
                  (seed * 0x9E3779B97F4A7C15ull);
  cfg.base.stagger_inquiry = true;
  cfg.base.workstation.scheduler.inquiry_length = Duration::from_seconds(1.28);
  cfg.base.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  // The fault drill needs the failure detector armed.
  if (w.chaos) cfg.base.server.station_timeout = Duration::seconds(10);
  cfg.shards = w.shards;
  cfg.window = w.window;
  return cfg;
}

fault::FaultPlan chaos_plan(const Workload& w, std::uint64_t world_seed) {
  // Boot for the first fifth, inject across the next 60%: the last outage
  // (at most 3 s) heals well before the end of the run.
  fault::ChaosParams cp;
  cp.start = Duration::from_seconds(w.sim_s * 0.2);
  cp.window = Duration::from_seconds(w.sim_s * 0.6);
  cp.min_outage = Duration::seconds(1);
  cp.max_outage = Duration::seconds(3);
  return fault::FaultPlan::chaos(world_seed ^ 0xFA17ull,
                                 static_cast<std::size_t>(w.rows * w.cols), cp);
}

/// Settling time before the convergence check (the scenario runner's bound).
constexpr Duration kRecoveryBound = Duration::seconds(40);

// ---- queries ---------------------------------------------------------------

enum class QKind : std::uint8_t { kWhereIs, kPathTo, kWhoIsIn };

struct PlannedQuery {
  SimTime at;
  std::uint32_t issuer = 0;
  std::uint32_t target = 0;  // user index, or room id for who-is-in
  QKind kind = QKind::kWhereIs;
};

struct QueryOutcome {
  enum State : std::uint8_t { kUnanswered, kUnreachable, kReplied };
  State state = kUnanswered;
  proto::QueryStatus status = proto::QueryStatus::kOk;
  std::int64_t rtt_ns = 0;
  std::uint64_t answer = 0;  // FNV of the reply payload
};

/// Each user issues a query every 64 s on average: an open loop of
/// independent users (Poisson, rate users/64 per second, which is 16/s at
/// office's 1024 users), 70% where-is, 20% path-to, 10% who-is-in, uniform
/// issuer and target. floor and crowd carry the same per-user rate so that
/// every workload reports the query metrics; it adds under 1% of their
/// events (bench_bips/README.md). Issue instants fall in [warm,
/// T - timeout], so every query has its whole reply deadline inside the run.
Duration query_timeout(const Workload& w) {
  return std::min(Duration::seconds(10), Duration::from_seconds(w.sim_s / 4));
}

std::vector<PlannedQuery> plan_queries(const Workload& w,
                                       std::uint64_t world_seed) {
  Rng rng(world_seed ^ 0x51E57ull);
  const double rate = static_cast<double>(w.users) / 64.0;
  const double warm = query_timeout(w).to_seconds();
  const double last = w.sim_s - query_timeout(w).to_seconds();
  std::vector<PlannedQuery> out;
  for (double t = warm + rng.exponential(1.0 / rate); t <= last;
       t += rng.exponential(1.0 / rate)) {
    PlannedQuery q;
    q.at = SimTime(Duration::from_seconds(t).ns());
    q.issuer = static_cast<std::uint32_t>(rng.uniform(w.users));
    const double k = rng.uniform_double();
    q.kind = k < 0.7 ? QKind::kWhereIs
                     : (k < 0.9 ? QKind::kPathTo : QKind::kWhoIsIn);
    q.target = static_cast<std::uint32_t>(rng.uniform(
        q.kind == QKind::kWhoIsIn ? static_cast<std::uint64_t>(w.rows * w.cols)
                                  : static_cast<std::uint64_t>(w.users)));
    out.push_back(q);
  }
  return out;
}

std::string user_name(std::size_t i) { return "User " + std::to_string(i); }
std::string user_id(std::size_t i) { return "u" + std::to_string(i); }

// ---- instrumentation -------------------------------------------------------

/// Counts trace records per kind. One per shard: written only by that
/// shard's worker.
class CountingSink : public obs::TraceSink {
 public:
  void write(const obs::TraceRecord& r) override {
    ++counts_[static_cast<std::size_t>(r.kind)];
  }
  std::uint64_t count(obs::TraceKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : counts_) t += c;
    return t;
  }

 private:
  std::array<std::uint64_t, 32> counts_{};
};

/// One witness: the room its owner stands in and the open crossing into it.
struct Witness {
  std::string uid;
  std::uint64_t addr = 0;  // BD_ADDR: every replica of a handheld shares it
  mobility::RoomId room = mobility::kNoRoom;
  SimTime since;
  bool open = false;
};

/// What the traced rep records: trace-record counts and per-window host
/// stamps. Host instants are seconds since the run began.
struct Spans {
  std::vector<CountingSink> sinks;
  std::vector<double> win_start, win_end;  // each window, on the host clock
  std::vector<double> marks;    // window-major: when each shard finished
  std::vector<double> hook_s;   // barrier-hook time after each window
  std::uint64_t markers = 0;
  double setup_world_s = 0, setup_users_s = 0, setup_schedule_s = 0;
  double run_s = 0;
};

/// What the probe rep records: witness freshness and accuracy, direct
/// server-query timings and (graded workloads) the fault layer's
/// invariants.
struct Probes {
  std::vector<Witness> witnesses;
  SampleSet fresh_s;
  std::uint64_t crossings = 0, missed = 0;
  std::uint64_t samples = 0, agree = 0;
  SampleSet svc_query_us;
  std::uint64_t fault_events = 0;
  std::uint64_t invariant_violations = 0;  // running safety invariants
  std::uint64_t unconverged = 0;  // check_converged() findings after settling
};

// ---- one rep -------------------------------------------------------------

struct Rep {
  double setup_world_s = 0, setup_users_s = 0, setup_schedule_s = 0;
  double run_wall_s = 0, run_cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::vector<QueryOutcome> queries;
  // kCounters read after the run (identical across reps: deterministic)
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::uint64_t windows = 0, mail = 0;

  double setup_s() const {
    return setup_world_s + setup_users_s + setup_schedule_s;
  }
};

const char* const kCounters[] = {
    "kernel.skipped_slots", "piconet.elided_polls", "radio.occ_wakeups",
    "radio.transmissions",  "radio.collisions",     "lan.sent",
    "lan.dropped",          "lan.partition_dropped", "ws.discoveries",
    "ws.presences_reported", "ws.retransmissions",  "svc.ingest_ops",
    "svc.ingest_dupes",     "db.presence_updates",  "db.redundant_updates",
    "svc.shard_handoffs",   "server.logins_ok",     "server.logins_failed",
    "svc.relogin",          "server.resyncs_requested",
    "server.stations_expired", "server.queries",   "server.paths_served",
    "server.path_cache_hits",
};

std::unique_ptr<fault::InvariantChecker> make_invariant_checker(
    core::ShardedBipsSimulation& sim, const core::ShardedConfig& cfg) {
  fault::InvariantChecker::Config icfg;
  icfg.sample_period = Duration::seconds(1);
  icfg.dead_station_grace =
      std::max(Duration::seconds(30), cfg.base.server.station_timeout +
                                          cfg.base.server.sweep_period +
                                          Duration::seconds(20));
  core::ShardedBipsSimulation* raw = &sim;
  fault::InvariantChecker::WorldView view;
  view.now = [raw] { return raw->group().now(); };
  view.workstation_count = [raw] { return raw->workstation_count(); };
  view.workstation = [raw](core::StationId s) -> core::BipsWorkstation& {
    return raw->workstation(s);
  };
  view.server_crashed = [raw] { return raw->server().crashed(); };
  view.userids = [raw] { return raw->userids(); };
  view.logged_in = [raw](std::string_view uid) {
    return raw->active_client(uid).logged_in();
  };
  view.db_room = [raw](std::string_view uid) { return raw->db_room(uid); };
  view.true_room = [raw](std::string_view uid) { return raw->true_room(uid); };
  return std::make_unique<fault::InvariantChecker>(std::move(view), icfg);
}

/// Samples every witness once (a barrier-time read: all shards are idle).
void sample_witnesses(core::ShardedBipsSimulation& sim, SimTime now,
                      Probes& pr) {
  for (Witness& wi : pr.witnesses) {
    const mobility::RoomId truth = sim.true_room(wi.uid);
    // db_room(uid) by address: one userid scan per sample, not two.
    const std::optional<core::StationId> db =
        sim.server().locations().piconet_of(wi.addr);
    ++pr.samples;
    if (truth == mobility::kNoRoom ? !db : (db && *db == truth)) ++pr.agree;
    if (truth != wi.room) {
      if (wi.open) ++pr.missed;  // left before the DB caught up
      wi.room = truth;
      wi.open = truth != mobility::kNoRoom;
      wi.since = now;
      if (wi.open) ++pr.crossings;
    }
    if (wi.open && db && *db == truth) {
      pr.fresh_s.add(now - wi.since);
      wi.open = false;
    }
  }
}

/// Builds the world, runs it for the workload's simulated time on `threads`
/// workers and fingerprints its outputs. `spans` and `probes` select the
/// instrumentation described at the top of this file. With `setup_only`,
/// returns right after set-up (a set-up timing sample).
Rep run_rep(const Workload& w, std::uint64_t seed, unsigned threads,
            Spans* spans, Probes* probes, bool setup_only = false) {
  Rep rep;
  const core::ShardedConfig cfg = deployment(w, seed);
  const SimTime t_end(Duration::from_seconds(w.sim_s).ns());

  const auto t0 = Clock::now();
  core::ShardedBipsSimulation sim(mobility::Building::grid(w.rows, w.cols),
                                  cfg);
  const auto t1 = Clock::now();
  for (int i = 0; i < w.users; ++i) {
    sim.add_user(user_name(i), user_id(i), "pw",
                 static_cast<mobility::RoomId>(i % (w.rows * w.cols)));
  }
  const auto t2 = Clock::now();

  std::optional<fault::FaultPlan> plan;
  if (w.chaos) {
    plan = chaos_plan(w, cfg.base.seed);
    plan->apply_sharded(sim);
  }
  const std::vector<PlannedQuery> planned = plan_queries(w, cfg.base.seed);
  rep.queries.assign(planned.size(), QueryOutcome{});
  QueryOutcome* outcomes = rep.queries.data();
  const mobility::Building& building = sim.building();
  for (std::size_t q = 0; q < planned.size(); ++q) {
    const PlannedQuery& pq = planned[q];
    QueryOutcome* slot = &outcomes[q];
    const SimTime at = pq.at;
    // The reply callback runs on the issuing user's shard; each query owns
    // its slot, so no two workers ever write the same one.
    const auto replied = [slot, at](core::BipsClient& c, proto::QueryStatus st,
                                    std::uint64_t answer) {
      slot->state = QueryOutcome::kReplied;
      slot->status = st;
      slot->rtt_ns = (c.device().sim().now() - at).ns();
      slot->answer = answer;
    };
    const std::string target =
        pq.kind == QKind::kWhoIsIn ? building.room(pq.target).name
                                   : user_name(pq.target);
    sim.schedule_user_act(
        at, user_id(pq.issuer),
        [slot, replied, target, kind = pq.kind](
            core::BipsClient& c, mobility::RandomWaypointAgent&) {
          bool sent = false;
          core::BipsClient* cp = &c;
          switch (kind) {
            case QKind::kWhereIs:
              sent = c.where_is(target, [cp, replied](
                                            const proto::WhereIsReply& r) {
                Fnv64 f;
                f.str(r.room);
                replied(*cp, r.status, f.h);
              });
              break;
            case QKind::kPathTo:
              sent = c.find_path_to(target, [cp, replied](
                                                const proto::PathReply& r) {
                Fnv64 f;
                for (const std::string& room : r.rooms) f.str(room);
                f.pod(r.distance);
                replied(*cp, r.status, f.h);
              });
              break;
            case QKind::kWhoIsIn:
              sent = c.who_is_in(target, [cp, replied](
                                             const proto::WhoIsInReply& r) {
                Fnv64 f;
                for (const std::string& u : r.users) f.str(u);
                replied(*cp, r.status, f.h);
              });
              break;
          }
          if (!sent) slot->state = QueryOutcome::kUnreachable;
        });
  }

  // ---- instrumentation (traced and probe reps) ----
  const std::size_t shards = sim.shard_count();
  Clock::time_point run_t0;
  double win_start = 0;
  std::vector<double> cur_marks(shards, 0.0);
  const Duration window = sim.window();
  const auto next_edge = [t_end, window](SimTime edge) {
    return t_end - edge <= window ? t_end : edge + window;
  };
  const auto schedule_markers = [&](SimTime edge) {
    for (std::size_t k = 0; k < shards; ++k) {
      sim.shard_simulator(k).schedule_at(edge, [&cur_marks, &run_t0, k] {
        cur_marks[k] = seconds_between(run_t0, Clock::now());
      });
      ++spans->markers;
    }
  };
  const Duration tick = Duration::millis(100);
  SimTime next_tick = SimTime::zero() + tick;
  SimTime next_inv = SimTime::zero() + Duration::seconds(1);
  std::unique_ptr<fault::InvariantChecker> inv;

  if (spans != nullptr) {
    spans->sinks.assign(shards, CountingSink{});
    for (std::size_t k = 0; k < shards; ++k) {
      sim.shard_simulator(k).obs().tracer.set_sink(&spans->sinks[k]);
    }
  }
  if (probes != nullptr) {
    for (int i = 0; i < std::min(w.users, w.witnesses); ++i) {
      Witness wi;
      wi.uid = user_id(i);
      wi.addr = sim.active_client(wi.uid).addr().raw();
      probes->witnesses.push_back(std::move(wi));
    }
    if (plan) probes->fault_events = plan->events().size();
    if (w.graded) inv = make_invariant_checker(sim, cfg);
  }
  if (spans != nullptr || probes != nullptr) {
    sim.set_barrier_hook([&](SimTime edge) {
      const double t_in = seconds_between(run_t0, Clock::now());
      if (probes != nullptr) {
        for (; next_tick <= edge; next_tick = next_tick + tick) {
          sample_witnesses(sim, edge, *probes);
          // Direct read-path timing: one where-is and one who-is-in per tick.
          const std::size_t j = probes->svc_query_us.count() / 2;
          const auto q0 = Clock::now();
          sim.server().query(core::BipsServer::Query::where_is(
              "", user_name(j % static_cast<std::size_t>(w.users))));
          const auto q1 = Clock::now();
          sim.server().query(core::BipsServer::Query::who_is_in(
              "", building.room(static_cast<mobility::RoomId>(
                                    j % building.room_count()))
                      .name));
          const auto q2 = Clock::now();
          probes->svc_query_us.add(seconds_between(q0, q1) * 1e6);
          probes->svc_query_us.add(seconds_between(q1, q2) * 1e6);
        }
        for (; inv && next_inv <= edge;
             next_inv = next_inv + Duration::seconds(1)) {
          inv->sample();
        }
      }
      if (spans != nullptr) {
        spans->win_start.push_back(win_start);
        spans->win_end.push_back(t_in);
        spans->marks.insert(spans->marks.end(), cur_marks.begin(),
                            cur_marks.end());
        if (edge < t_end) schedule_markers(next_edge(edge));
        const double t_out = seconds_between(run_t0, Clock::now());
        spans->hook_s.push_back(t_out - t_in);
        win_start = t_out;
      }
    });
  }
  sim.start();
  const auto t3 = Clock::now();
  rep.setup_world_s = seconds_between(t0, t1);
  rep.setup_users_s = seconds_between(t1, t2);
  rep.setup_schedule_s = seconds_between(t2, t3);
  if (setup_only) return rep;

  if (spans != nullptr) schedule_markers(next_edge(SimTime::zero()));
  const double c0 = process_cpu_seconds();
  run_t0 = Clock::now();
  sim.run_for(t_end - SimTime::zero(), threads);
  const auto t4 = Clock::now();
  const double c1 = process_cpu_seconds();
  rep.run_wall_s = seconds_between(run_t0, t4);
  rep.run_cpu_s = c1 - c0;

  sim.set_barrier_hook({});
  if (spans != nullptr) {
    for (std::size_t k = 0; k < shards; ++k) {
      sim.shard_simulator(k).obs().tracer.set_sink(nullptr);
    }
    spans->setup_world_s = rep.setup_world_s;
    spans->setup_users_s = rep.setup_users_s;
    spans->setup_schedule_s = rep.setup_schedule_s;
    spans->run_s = rep.run_wall_s;
  }
  if (probes != nullptr) {
    for (const Witness& wi : probes->witnesses) {
      // Still unresolved at the end: missed once a whole cycle has passed.
      if (wi.open && t_end - wi.since > Duration::from_seconds(5.12)) {
        ++probes->missed;
      } else if (wi.open) {
        --probes->crossings;  // censored: too recent to judge
      }
    }
  }

  rep.events = sim.group().events_executed();
  rep.windows = sim.group().windows_run();
  rep.mail = sim.group().mail_delivered();
  for (const char* name : kCounters) {
    rep.counters[name] = sim.metric_sum(name);
  }
  std::ostringstream hist;
  sim.write_history_csv(hist);
  Fnv64 f;
  f.str(hist.str());
  for (const QueryOutcome& q : rep.queries) {
    f.pod(q.state);
    f.pod(q.status);
    f.pod(q.rtt_ns);
    f.pod(q.answer);
  }
  rep.digest = f.h;

  if (inv) {
    // The running safety invariants were sampled at barriers; grade them now,
    // then measure liveness on a still population: walkers between two
    // piconets are legitimately unlocated, so freeze everyone where they
    // stand (twice: a user inside a seam handoff resumes walking when the
    // handoff mail lands one window later), give the service the recovery
    // bound and count the logged-in users it still has not located. This
    // runs after the digest, so it cannot affect any checked output.
    probes->invariant_violations = inv->violations().size();
    for (const std::string& v : inv->violations()) {
      std::fprintf(stderr, "%s: invariant violated: %s\n", w.name.c_str(),
                   v.c_str());
    }
    const auto freeze = [&sim] {
      for (const std::string& uid : sim.userids()) sim.active_agent(uid).stop();
    };
    freeze();
    sim.run_for(Duration::seconds(1), threads);
    freeze();
    sim.run_for(kRecoveryBound, threads);
    inv->check_converged();
    probes->unconverged =
        inv->violations().size() - probes->invariant_violations;
  }
  return rep;
}

// ---- metrics ---------------------------------------------------------------

/// One reported metric. q1 and q3 are its run-to-run spread: the quartiles
/// of the host-time samples it is the median of, or the value itself for a
/// metric read from a deterministic run. n is the number of samples behind
/// the value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  double q1 = 0, q3 = 0;
  std::size_t n = 1;
};

/// A host-time metric: the median of repeated samples, with their quartiles.
Metric sampled(std::string name, std::string unit, const SampleSet& v) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = v.median();
  m.q1 = v.percentile(25.0);
  m.q3 = v.percentile(75.0);
  m.n = v.count();
  return m;
}

/// A metric read once (a deterministic run's percentile, ratio or count):
/// it repeats exactly, so it has no run-to-run spread.
Metric single(std::string name, std::string unit, double value,
              std::size_t n = 1) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = value;
  m.q1 = m.q3 = value;
  m.n = n;
  return m;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int reps = 5;
  double seconds = 0;
  std::string spans_path;
  std::string out_path;
  bool smoke = false;
};

bool write_spans(const std::string& path, const std::string& workload,
                 const Spans& sp) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "error: cannot open spans file %s\n", path.c_str());
    return false;
  }
  std::uint64_t next_id = 1;
  char buf[256];
  const auto span = [&](const char* name, double start, double end,
                        std::uint64_t parent) {
    const std::uint64_t id = next_id++;
    std::snprintf(buf, sizeof buf,
                  "{\"workload\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  workload.c_str(), static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(parent), name, start * 1e6,
                  end * 1e6);
    os << buf;
    return id;
  };
  // Set-up spans sit before the run on the same timeline (negative
  // instants: the run starts at 0).
  const std::size_t shards = sp.sinks.size();
  const double s0 =
      -(sp.setup_world_s + sp.setup_users_s + sp.setup_schedule_s);
  span("setup.world", s0, s0 + sp.setup_world_s, 0);
  span("setup.users", s0 + sp.setup_world_s,
       s0 + sp.setup_world_s + sp.setup_users_s, 0);
  span("setup.schedule", s0 + sp.setup_world_s + sp.setup_users_s, 0.0, 0);
  const std::uint64_t run = span("run", 0.0, sp.run_s, 0);
  char name[32];
  for (std::size_t i = 0; i < sp.win_start.size(); ++i) {
    const double ws = sp.win_start[i];
    const double we = sp.win_end[i];
    const std::uint64_t win = span("window", ws, we, run);
    const double* m = &sp.marks[i * shards];
    const double last = *std::max_element(m, m + shards);
    for (std::size_t k = 0; k < shards; ++k) {
      std::snprintf(name, sizeof name, "compute[%zu]", k);
      span(name, ws, m[k], win);
      std::snprintf(name, sizeof name, "wait[%zu]", k);
      span(name, m[k], last, win);
    }
    span("serial", last, we, win);
    span("hook", we, we + sp.hook_s[i], run);
  }
  os.flush();
  if (!os) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return static_cast<bool>(os);
}

/// Runs one workload in this process: timed reps, extra set-up samples, the
/// traced rep and the probe rep. Returns the exit code.
int run_workload(const Workload& w, const Options& opt) {
  std::vector<Rep> reps;
  double timed_wall = 0;
  while (static_cast<int>(reps.size()) < opt.reps ||
         (opt.seconds > 0 &&
          timed_wall + timed_wall / static_cast<double>(reps.size()) <=
              opt.seconds)) {
    const auto a = Clock::now();
    reps.push_back(run_rep(w, opt.seed, w.threads, nullptr, nullptr));
    timed_wall += seconds_between(a, Clock::now());
  }
  // Set-up is short next to a rep and sensitive to allocator and host
  // state, so it gets extra set-up-only samples: at least 9, and up to 50
  // until they add up to a second.
  SampleSet setup;
  double setup_total = 0;
  for (const Rep& r : reps) {
    setup.add(r.setup_s());
    setup_total += r.setup_s();
  }
  while (setup.count() < 9 || (setup_total < 1.0 && setup.count() < 50)) {
    const double s =
        run_rep(w, opt.seed, w.threads, nullptr, nullptr, true).setup_s();
    setup.add(s);
    setup_total += s;
  }
  const double rss_mb = peak_rss_mb();  // before the traced rep allocates

  // The traced rep runs at the timed thread count with spans only, so its
  // window timeline stays close to an uninstrumented run's. The probes (a
  // userid scan per witness sample, which also evicts the simulator's
  // working set) ride a separate threads=1 rep, which doubles as the
  // single-thread reference for multi-thread workloads.
  Spans sp;
  Probes pr;
  const Rep traced = run_rep(w, opt.seed, w.threads, &sp, nullptr);
  const Rep probed = run_rep(w, opt.seed, 1, nullptr, &pr);

  // ---- correctness ----
  const Rep& base = reps.front();
  const int runs = static_cast<int>(reps.size()) + 2;
  int runs_failed = 0;
  bool ok = true;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "%s: FAIL: %s\n", w.name.c_str(), what);
    ok = false;
  };
  for (const Rep& r : reps) {
    if (r.digest != base.digest) ++runs_failed;
  }
  if (runs_failed > 0) fail("timed reps disagree on history/query digest");
  if (traced.digest != base.digest) {
    ++runs_failed;
    fail("traced rep digest differs: the instrumentation perturbed the run");
  }
  if (traced.events != base.events + sp.markers) {
    ++runs_failed;
    fail("traced event count != timed count + markers");
  }
  if (probed.digest != base.digest || probed.events != base.events) {
    ++runs_failed;
    fail("threads=1 probe rep differs from the timed reps");
  }
  if (pr.invariant_violations > 0) {
    ++runs_failed;
    fail("probe rep violated safety invariants");
  }

  // ---- end-to-end metrics ----
  // Throughput is taken from warm reps: the first rep in a process also
  // pays for faulting in the heap (about 10% slower on floor), a cost
  // set-up and peak RSS already report.
  SampleSet rate, cpu, wall;
  for (std::size_t i = reps.size() > 1 ? 1 : 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    wall.add(r.run_wall_s);
    rate.add(w.sim_s / r.run_wall_s);
    cpu.add(r.run_cpu_s / w.sim_s);
  }
  // The round trip is timed on every reply that arrives in time, whatever
  // its status: a "location unknown" answer crosses the air like any other.
  SampleSet rtt;
  std::uint64_t q_failed = 0, q_unreachable = 0, q_unanswered = 0;
  for (const QueryOutcome& q : base.queries) {
    if (q.state == QueryOutcome::kUnreachable) ++q_unreachable;
    const bool in_time = q.state == QueryOutcome::kReplied &&
                         Duration(q.rtt_ns) <= query_timeout(w);
    if (q.state == QueryOutcome::kUnanswered ||
        (q.state == QueryOutcome::kReplied && !in_time)) {
      ++q_unanswered;
    }
    if (in_time) rtt.add(static_cast<double>(q.rtt_ns) * 1e-9);
    if (!in_time || q.status != proto::QueryStatus::kOk) ++q_failed;
  }
  const double nq = static_cast<double>(base.queries.size());
  const double nx = static_cast<double>(pr.crossings);

  std::vector<Metric> ms;
  ms.push_back(sampled("setup_s", "s", setup));
  ms.push_back(sampled("sim_rate", "sim_s/s", rate));
  ms.push_back(single("peak_rss_mb", "MiB", rss_mb));
  ms.push_back(single("fresh_p50_s", "s", pr.fresh_s.percentile(50.0),
                      pr.fresh_s.count()));
  ms.push_back(single("fresh_p99_s", "s", pr.fresh_s.percentile(99.0),
                      pr.fresh_s.count()));
  ms.push_back(single("fresh_miss_ratio", "fraction",
                      ratio(static_cast<double>(pr.missed), nx),
                      pr.crossings));
  ms.push_back(single("accuracy", "fraction",
                      ratio(static_cast<double>(pr.agree),
                            static_cast<double>(pr.samples)),
                      pr.samples));
  ms.push_back(single("query_rtt_p50_s", "s", rtt.percentile(50.0),
                      rtt.count()));
  ms.push_back(single("query_rtt_p99_s", "s", rtt.percentile(99.0),
                      rtt.count()));
  ms.push_back(single("query_fail_ratio", "fraction",
                      ratio(static_cast<double>(q_failed), nq),
                      base.queries.size()));
  for (const char* p99 : {"fresh_p99_s", "query_rtt_p99_s"}) {
    for (const Metric& m : ms) {
      if (m.name == p99 && m.n < 1000) {
        std::fprintf(stderr,
                     "%s: note: %s rests on n=%zu (< 1000) samples\n",
                     w.name.c_str(), p99, m.n);
      }
    }
  }

  // ---- per-layer metrics ----
  // Counters come from an uninstrumented timed rep (deterministic: every rep
  // reads the same), trace-kind counts and spans from the traced rep.
  const auto c = [&](const char* name) {
    return static_cast<double>(base.counters.at(name));
  };
  const auto kinds = [&](obs::TraceKind k) {
    double s = 0;
    for (const CountingSink& sk : sp.sinks) s += static_cast<double>(sk.count(k));
    return s;
  };
  const std::size_t shards = sp.sinks.size();
  const std::size_t nwin = sp.win_start.size();
  double compute = 0, wait = 0, serial = 0, hook = 0, imbalance = 0;
  SampleSet window_us;
  for (std::size_t i = 0; i < nwin; ++i) {
    const double* m = &sp.marks[i * shards];
    const double ws = sp.win_start[i];
    double sum = 0, mx = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      const double ck = std::max(0.0, m[k] - ws);
      sum += ck;
      mx = std::max(mx, ck);
    }
    const double mean = sum / static_cast<double>(shards);
    compute += mean;
    wait += mx - mean;
    serial += std::max(0.0, sp.win_end[i] - ws - mx);
    hook += sp.hook_s[i];
    if (mean > 0) imbalance += mx / mean;
    window_us.add((sp.win_end[i] - ws) * 1e6);
  }
  const double events = static_cast<double>(base.events);
  const double median_wall = wall.median();
  const double trace_records = [&] {
    double t = 0;
    for (const CountingSink& sk : sp.sinks) t += static_cast<double>(sk.total());
    return t;
  }();

  const auto layer = [&ms](const char* name, const char* unit, double v) {
    ms.push_back(single(name, unit, v));
  };
  layer("sim.events", "count", events);
  layer("sim.skipped_slot_ratio", "fraction",
        ratio(c("kernel.skipped_slots"), events + c("kernel.skipped_slots")));
  layer("sim.windows", "count", static_cast<double>(base.windows));
  layer("sim.mail", "count", static_cast<double>(base.mail));
  layer("sim.compute_s", "s", compute);
  layer("sim.wait_s", "s", wait);
  layer("sim.serial_s", "s", serial);
  layer("sim.hook_s", "s", hook);
  layer("sim.cpu_per_sim_s", "s", cpu.median());
  layer("sim.window_p50_us", "us", window_us.percentile(50.0));
  layer("sim.window_p99_us", "us", window_us.percentile(99.0));
  layer("sim.imbalance", "ratio", nwin > 0 ? imbalance / static_cast<double>(nwin) : 0);
  layer("baseband.inquiries", "count", kinds(obs::TraceKind::kInquiryStart));
  layer("baseband.inquiry_resp", "count", kinds(obs::TraceKind::kInquiryResp));
  layer("baseband.pages", "count", kinds(obs::TraceKind::kPageStart));
  layer("baseband.page_ok_ratio", "fraction",
        ratio(kinds(obs::TraceKind::kPageOk),
              kinds(obs::TraceKind::kPageStart)));
  layer("baseband.tx", "count", c("radio.transmissions"));
  layer("baseband.collision_ratio", "fraction",
        ratio(c("radio.collisions"), c("radio.transmissions")));
  layer("baseband.elided_polls", "count", c("piconet.elided_polls"));
  layer("baseband.occ_wakeups", "count", c("radio.occ_wakeups"));
  layer("net.sent", "count", c("lan.sent"));
  layer("net.drop_ratio", "fraction",
        ratio(c("lan.dropped") + c("lan.partition_dropped"), c("lan.sent")));
  layer("ws.discoveries", "count", c("ws.discoveries"));
  layer("ws.presences", "count", c("ws.presences_reported"));
  layer("ws.retransmit_ratio", "fraction",
        ratio(c("ws.retransmissions"), c("ws.presences_reported")));
  layer("ingest.ops", "count", c("svc.ingest_ops"));
  layer("ingest.dupe_ratio", "fraction",
        ratio(c("svc.ingest_dupes"), c("svc.ingest_ops")));
  layer("svc.updates", "count", c("db.presence_updates"));
  layer("svc.redundant_ratio", "fraction",
        ratio(c("db.redundant_updates"), c("db.presence_updates")));
  layer("svc.shard_handoffs", "count", c("svc.shard_handoffs"));
  const double logins = c("server.logins_ok") + c("server.logins_failed");
  layer("svc.logins", "count", logins);
  layer("svc.login_fail_ratio", "fraction",
        ratio(c("server.logins_failed"), logins));
  layer("svc.relogins", "count", c("svc.relogin"));
  layer("svc.resyncs", "count", c("server.resyncs_requested"));
  layer("svc.stations_expired", "count", c("server.stations_expired"));
  layer("svc.queries", "count", c("server.queries"));
  layer("svc.path_cache_hit_ratio", "fraction",
        ratio(c("server.path_cache_hits"), c("server.paths_served")));
  layer("svc.query_p50_us", "us", pr.svc_query_us.percentile(50.0));
  layer("svc.query_p99_us", "us", pr.svc_query_us.percentile(99.0));
  layer("client.queries_issued", "count", nq);
  layer("client.queries_unreachable", "count",
        static_cast<double>(q_unreachable));
  layer("client.queries_unanswered", "count",
        static_cast<double>(q_unanswered));
  layer("mobility.crossings", "count", nx);
  layer("fault.events", "count", static_cast<double>(pr.fault_events));
  layer("fault.invariant_violations", "count",
        static_cast<double>(pr.invariant_violations));
  layer("fault.unconverged_users", "count",
        static_cast<double>(pr.unconverged));
  layer("setup.world_s", "s", traced.setup_world_s);
  layer("setup.users_s", "s", traced.setup_users_s);
  layer("setup.schedule_s", "s", traced.setup_schedule_s);
  layer("obs.trace_records", "count", trace_records);
  layer("obs.trace_overhead_pct", "%",
        (traced.run_wall_s / median_wall - 1.0) * 100.0);
  // Share of the traced rep's wall time the window spans (compute, wait,
  // serial) account for; the rest is the barrier hook.
  layer("obs.span_coverage", "fraction",
        ratio(compute + wait + serial, traced.run_wall_s));

  for (const Metric& m : ms) {
    std::printf("%s %s %.9g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const int ops_failed = static_cast<int>(pr.missed + q_failed);
  std::printf("%s runs %d failed %d ops %.0f ops_failed %d digest %016llx "
              "correct %s\n",
              w.name.c_str(), runs, runs_failed, nx + nq, ops_failed,
              static_cast<unsigned long long>(base.digest),
              ok ? "true" : "false");
  std::fflush(stdout);

  if (!opt.spans_path.empty() &&
      !write_spans(opt.spans_path, w.name, sp)) {
    return 1;
  }
  if (!opt.out_path.empty()) {
    std::ofstream os(opt.out_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot open %s\n", opt.out_path.c_str());
      return 1;
    }
    char buf[512];
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
       << ", \"threads\": " << w.threads << ", \"shards\": " << w.shards
       << ", \"nproc\": " << usable_cpus() << ", \"runs\": " << runs
       << ", \"runs_failed\": " << runs_failed
       << ", \"ops\": " << static_cast<std::uint64_t>(nx + nq)
       << ", \"ops_failed\": " << ops_failed
       << ", \"correct\": " << (ok ? "true" : "false") << ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Metric& m = ms[i];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.9g, \"q1\": %.9g, \"q3\": %.9g, "
                    "\"n\": %zu, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.q1, m.q3,
                    m.n, m.unit.c_str());
      os << buf;
    }
    os << "}}\n";
  }
  return ok ? 0 : 1;
}

/// `--workload all`: one child process per workload (so peak RSS and
/// thread pools stay per workload); -o collects the children's reports.
std::string slurp_and_remove(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream body;
  body << is.rdbuf();
  is.close();
  std::remove(path.c_str());
  return body.str();
}

int run_all(const Options& opt, const std::vector<Workload>& ws) {
  std::ofstream spans;
  if (!opt.spans_path.empty()) spans.open(opt.spans_path);
  int worst = 0;
  std::string merged = "{\"workloads\": [";
  for (std::size_t i = 0; i < ws.size(); ++i) {
    std::vector<std::string> args = {"/proc/self/exe", "--workload",
                                     ws[i].name,       "--seed",
                                     std::to_string(opt.seed), "--reps",
                                     std::to_string(opt.reps)};
    if (opt.seconds > 0) {
      args.insert(args.end(), {"--seconds", std::to_string(opt.seconds)});
    }
    if (opt.smoke) args.emplace_back("--smoke");
    const std::string spans_part = opt.spans_path + "." + ws[i].name;
    if (!opt.spans_path.empty()) {
      args.insert(args.end(), {"--spans", spans_part});
    }
    const std::string part = opt.out_path + "." + ws[i].name;
    if (!opt.out_path.empty()) args.insert(args.end(), {"-o", part});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "error: cannot spawn %s run\n",
                   ws[i].name.c_str());
      return 1;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    worst = std::max(worst, code);
    if (!opt.spans_path.empty()) spans << slurp_and_remove(spans_part);
    if (!opt.out_path.empty()) {
      std::string s = slurp_and_remove(part);
      while (!s.empty() && s.back() == '\n') s.pop_back();
      merged += (i == 0 ? "" : ", ") + (s.empty() ? std::string("null") : s);
    }
  }
  if (!opt.spans_path.empty() && !spans.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.spans_path.c_str());
    return 1;
  }
  if (!opt.out_path.empty()) {
    std::ofstream os(opt.out_path);
    os << merged << "]}\n";
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.out_path.c_str());
      return 1;
    }
  }
  return worst;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {office|floor|crowd|chaos|all} "
               "[--seed S] [--reps N] [--seconds S] [--spans FILE] "
               "[-o FILE] [--smoke]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace bips::bench

int main(int argc, char** argv) {
  using namespace bips::bench;
  // The chaos plan's crash/restart narration is expected, not news; keep it
  // out of the timed reps and the report.
  bips::set_log_level(bips::LogLevel::kError);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (a == "--reps" && has_value) {
      opt.reps = std::atoi(argv[++i]);
      if (opt.reps < 1) return usage(argv[0]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
      if (opt.seconds < 0) return usage(argv[0]);
    } else if (a == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else if (a == "-o" && has_value) {
      opt.out_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
      opt.reps = 2;
    } else {
      return usage(argv[0]);
    }
  }
  const std::vector<Workload> ws = all_workloads(opt.smoke);
  if (opt.workload == "all") return run_all(opt, ws);
  for (const Workload& w : ws) {
    if (w.name == opt.workload) return run_workload(w, opt);
  }
  return usage(argv[0]);
}
