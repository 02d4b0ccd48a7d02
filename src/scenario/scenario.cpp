#include "src/scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <sstream>
#include <unordered_set>

#include "src/fault/invariants.hpp"

namespace bips::core {

namespace {

bool fail(ScenarioError* err, int line, std::string message) {
  if (err != nullptr) *err = ScenarioError{line, std::move(message)};
  return false;
}

bool parse_double(const std::string& tok, double* out) {
  std::size_t pos = 0;
  try {
    *out = std::stod(tok, &pos);
  } catch (...) {
    return false;
  }
  return pos == tok.size();
}

bool parse_positive(const std::string& tok, double* out) {
  return parse_double(tok, out) && *out > 0;
}

bool parse_count(const std::string& tok, int* out) {
  double v = 0;
  if (!parse_double(tok, &v) || v < 1 || v > 1'000'000 ||
      v != static_cast<double>(static_cast<int>(v))) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;  // comment until end of line
    toks.push_back(t);
  }
  return toks;
}

std::string join_tokens(const std::vector<std::string>& toks) {
  std::string out;
  for (const auto& t : toks) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

SimTime at_seconds(double s) { return SimTime(Duration::from_seconds(s).ns()); }

/// A crash/restart directive awaiting the pairing validation (the windowed
/// fault kinds carry their own span and need none).
struct PendingOutage {
  int line = 0;
  Duration at;
  bool restart = false;
  bool server = false;
  mobility::RoomId room = 0;
};

/// A `chaos <seed> [k v ...]` block; compiled once the room count is known.
struct PendingChaos {
  int line = 0;
  std::uint64_t seed = 0;
  fault::ChaosParams params;
};

/// Validates that per scope (each room, and the server) the crash/restart
/// directives alternate crash -> restart in time order: a restart without a
/// preceding crash, two crashes without an intervening restart (overlapping
/// crash windows), and zero-length outages are all rejected with the line
/// of the offending directive.
bool validate_outages(const std::vector<PendingOutage>& outages,
                      const ScenarioSpec& spec, ScenarioError* err) {
  auto scope_name = [&](const PendingOutage& o) {
    return o.server ? std::string("the server")
                    : "room '" + spec.building.room(o.room).name + "'";
  };
  // Group per scope, keeping file order for equal instants (they are
  // rejected anyway, with the later line blamed).
  std::vector<const PendingOutage*> sorted;
  sorted.reserve(outages.size());
  for (const auto& o : outages) sorted.push_back(&o);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const PendingOutage* a, const PendingOutage* b) {
                     return a->at < b->at;
                   });
  struct ScopeState {
    bool crashed = false;
    Duration crash_at;
  };
  std::vector<ScopeState> rooms(spec.building.room_count());
  ScopeState server;
  for (const PendingOutage* o : sorted) {
    ScopeState& s = o->server ? server : rooms[o->room];
    if (o->restart) {
      if (!s.crashed) {
        return fail(err, o->line,
                    "restart: no preceding crash for " + scope_name(*o));
      }
      if (o->at <= s.crash_at) {
        return fail(err, o->line,
                    "restart: must come strictly after the crash of " +
                        scope_name(*o));
      }
      s.crashed = false;
    } else {
      if (s.crashed) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " (still down since t=%.1fs)",
                      s.crash_at.to_seconds());
        return fail(err, o->line,
                    "crash: overlapping crash window for " + scope_name(*o) +
                        buf);
      }
      s.crashed = true;
      s.crash_at = o->at;
    }
  }
  return true;
}

}  // namespace

bool ScenarioReport::invariants_violated() const {
  for (const ScenarioCheck& c : checks) {
    if (c.invariant && !c.passed) return true;
  }
  return false;
}

std::optional<ScenarioSpec> parse_scenario(const std::string& text,
                                           ScenarioError* err) {
  std::istringstream is(text);
  return parse_scenario(is, err);
}

std::optional<ScenarioSpec> parse_scenario(std::istream& in,
                                           ScenarioError* err) {
  ScenarioSpec spec;
  std::unordered_set<std::string> userids, usernames;
  std::vector<PendingOutage> outages;
  std::vector<PendingChaos> chaos_blocks;
  std::string line;
  int lineno = 0;
  bool ok = true;

  while (ok && std::getline(in, line)) {
    ++lineno;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];
    const std::size_t argc = toks.size() - 1;

    auto want = [&](std::size_t lo, std::size_t hi) {
      if (argc >= lo && argc <= hi) return true;
      std::ostringstream msg;
      msg << cmd << ": expected ";
      if (lo == hi) {
        msg << lo;
      } else if (hi == SIZE_MAX) {
        msg << "at least " << lo;
      } else {
        msg << lo << ".." << hi;
      }
      msg << " arguments, got " << argc;
      return fail(err, lineno, msg.str());
    };
    auto find_room = [&](const std::string& name) {
      return spec.building.find(name);
    };
    auto find_user = [&](const std::string& who) -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < spec.users.size(); ++i) {
        if (spec.users[i].name == who || spec.users[i].userid == who) return i;
      }
      return std::nullopt;
    };

    double v = 0, v2 = 0;
    if (cmd == "seed") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_double(toks[1], &v) && v >= 0)) {
        fail(err, lineno, "seed: not a non-negative number");
        break;
      }
      spec.config.seed = static_cast<std::uint64_t>(v);
    } else if (cmd == "radius") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "radius: not a positive number");
        break;
      }
      spec.config.coverage_radius_m = v;
    } else if (cmd == "stagger") {
      if (!(ok = want(1, 1))) break;
      if (toks[1] == "on") {
        spec.config.stagger_inquiry = true;
      } else if (toks[1] == "off") {
        spec.config.stagger_inquiry = false;
      } else {
        ok = fail(err, lineno, "stagger: expected 'on' or 'off'");
      }
    } else if (cmd == "inquiry") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "inquiry: not a positive number of seconds");
        break;
      }
      spec.config.workstation.scheduler.inquiry_length =
          Duration::from_seconds(v);
    } else if (cmd == "cycle") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "cycle: not a positive number of seconds");
        break;
      }
      spec.config.workstation.scheduler.cycle_length =
          Duration::from_seconds(v);
    } else if (cmd == "interlaced") {
      if (!(ok = want(1, 1))) break;
      if (toks[1] == "on") {
        spec.config.slave.inquiry_scan.interlaced = true;
      } else if (toks[1] == "off") {
        spec.config.slave.inquiry_scan.interlaced = false;
      } else {
        ok = fail(err, lineno, "interlaced: expected 'on' or 'off'");
      }
    } else if (cmd == "lan-loss") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_double(toks[1], &v) && v >= 0 && v <= 1)) {
        fail(err, lineno, "lan-loss: expected a probability in [0, 1]");
        break;
      }
      spec.config.lan.loss = v;
    } else if (cmd == "speed") {
      if (!(ok = want(2, 2))) break;
      if (!(ok = parse_positive(toks[1], &v) && parse_positive(toks[2], &v2) &&
                 v <= v2)) {
        fail(err, lineno, "speed: expected 0 < min <= max (m/s)");
        break;
      }
      spec.config.mobility.speed_min_mps = v;
      spec.config.mobility.speed_max_mps = v2;
    } else if (cmd == "pause") {
      if (!(ok = want(2, 2))) break;
      if (!(ok = parse_double(toks[1], &v) && parse_double(toks[2], &v2) &&
                 v >= 0 && v <= v2)) {
        fail(err, lineno, "pause: expected 0 <= min <= max (seconds)");
        break;
      }
      spec.config.mobility.pause_min = Duration::from_seconds(v);
      spec.config.mobility.pause_max = Duration::from_seconds(v2);
    } else if (cmd == "room") {
      if (!(ok = want(3, 3))) break;
      if (spec.building.find(toks[1]).has_value()) {
        ok = fail(err, lineno, "room: duplicate room name '" + toks[1] + "'");
        break;
      }
      if (!(ok = parse_double(toks[2], &v) && parse_double(toks[3], &v2))) {
        fail(err, lineno, "room: coordinates must be numbers");
        break;
      }
      spec.building.add_room(toks[1], Vec2{v, v2});
    } else if (cmd == "edge") {
      if (!(ok = want(2, 3))) break;
      const auto a = find_room(toks[1]);
      const auto b = find_room(toks[2]);
      if (!a || !b) {
        ok = fail(err, lineno, "edge: unknown room");
        break;
      }
      if (*a == *b) {
        ok = fail(err, lineno, "edge: cannot connect a room to itself");
        break;
      }
      if (argc == 3) {
        if (!(ok = parse_positive(toks[3], &v))) {
          fail(err, lineno, "edge: distance must be positive");
          break;
        }
        spec.building.connect(*a, *b, v);
      } else {
        spec.building.connect(*a, *b);
      }
    } else if (cmd == "user") {
      if (!(ok = want(4, 4))) break;
      const auto room = find_room(toks[4]);
      if (!room) {
        ok = fail(err, lineno, "user: unknown start room '" + toks[4] + "'");
        break;
      }
      if (!usernames.insert(toks[1]).second) {
        ok = fail(err, lineno, "user: duplicate name '" + toks[1] + "'");
        break;
      }
      if (!userids.insert(toks[2]).second) {
        ok = fail(err, lineno, "user: duplicate userid '" + toks[2] + "'");
        break;
      }
      spec.users.push_back(ScenarioUser{toks[1], toks[2], toks[3], *room});
    } else if (cmd == "station-timeout") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_double(toks[1], &v) && v >= 0)) {
        fail(err, lineno, "station-timeout: not a non-negative number");
        break;
      }
      spec.config.server.station_timeout = Duration::from_seconds(v);
    } else if (cmd == "zones") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v) && v == std::floor(v))) {
        fail(err, lineno, "zones: not a positive integer");
        break;
      }
      spec.config.server.zones = static_cast<std::size_t>(v);
    } else if (cmd == "crash" || cmd == "restart") {
      if (!(ok = want(2, 2))) break;
      const auto room = find_room(toks[1]);
      if (!room) {
        ok = fail(err, lineno, cmd + ": unknown room '" + toks[1] + "'");
        break;
      }
      if (!(ok = parse_positive(toks[2], &v))) {
        fail(err, lineno, cmd + ": time must be a positive number of seconds");
        break;
      }
      outages.push_back(PendingOutage{lineno, Duration::from_seconds(v),
                                      cmd == "restart", false, *room});
    } else if (cmd == "server-crash" || cmd == "server-restart") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, cmd + ": time must be a positive number of seconds");
        break;
      }
      outages.push_back(PendingOutage{lineno, Duration::from_seconds(v),
                                      cmd == "server-restart", true, 0});
    } else if (cmd == "partition") {
      if (!(ok = want(3, SIZE_MAX))) break;
      if (!(ok = parse_positive(toks[1], &v) && parse_positive(toks[2], &v2))) {
        fail(err, lineno, "partition: expected <t> <duration> <room>...");
        break;
      }
      std::vector<StationId> group;
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto room = find_room(toks[i]);
        if (!room) {
          ok = fail(err, lineno, "partition: unknown room '" + toks[i] + "'");
          break;
        }
        if (std::find(group.begin(), group.end(),
                      static_cast<StationId>(*room)) != group.end()) {
          ok = fail(err, lineno, "partition: duplicate room '" + toks[i] + "'");
          break;
        }
        group.push_back(static_cast<StationId>(*room));
      }
      if (!ok) break;
      spec.fault_plan.partition_stations(Duration::from_seconds(v),
                                         Duration::from_seconds(v2),
                                         std::move(group));
    } else if (cmd == "loss-burst") {
      if (!(ok = want(3, 3))) break;
      double loss = 0;
      if (!(ok = parse_positive(toks[1], &v) && parse_positive(toks[2], &v2) &&
                 parse_double(toks[3], &loss) && loss >= 0 && loss <= 1)) {
        fail(err, lineno,
             "loss-burst: expected <t> <duration> <probability in [0, 1]>");
        break;
      }
      spec.fault_plan.loss_burst(Duration::from_seconds(v),
                                 Duration::from_seconds(v2), loss);
    } else if (cmd == "link-loss") {
      if (!(ok = want(4, 4))) break;
      const auto room = find_room(toks[1]);
      if (!room) {
        ok = fail(err, lineno, "link-loss: unknown room '" + toks[1] + "'");
        break;
      }
      double loss = 0;
      if (!(ok = parse_positive(toks[2], &v) && parse_positive(toks[3], &v2) &&
                 parse_double(toks[4], &loss) && loss >= 0 && loss <= 1)) {
        fail(err, lineno,
             "link-loss: expected <room> <t> <duration> <probability>");
        break;
      }
      spec.fault_plan.flaky_link(Duration::from_seconds(v),
                                 Duration::from_seconds(v2),
                                 static_cast<StationId>(*room), loss);
    } else if (cmd == "chaos") {
      if (!(ok = want(1, SIZE_MAX))) break;
      if (!(ok = parse_double(toks[1], &v) && v >= 0)) {
        fail(err, lineno, "chaos: seed must be a non-negative number");
        break;
      }
      if (argc % 2 != 1) {
        ok = fail(err, lineno,
                  "chaos: parameter overrides come in <key> <value> pairs");
        break;
      }
      PendingChaos pc;
      pc.line = lineno;
      pc.seed = static_cast<std::uint64_t>(v);
      for (std::size_t i = 2; ok && i + 1 < toks.size(); i += 2) {
        const std::string& key = toks[i];
        double val = 0;
        if (!parse_double(toks[i + 1], &val) || val < 0) {
          ok = fail(err, lineno,
                    "chaos: value for '" + key + "' must be a non-negative "
                    "number");
          break;
        }
        if (key == "start") {
          pc.params.start = Duration::from_seconds(val);
        } else if (key == "window") {
          pc.params.window = Duration::from_seconds(val);
        } else if (key == "min-outage") {
          pc.params.min_outage = Duration::from_seconds(val);
        } else if (key == "max-outage") {
          pc.params.max_outage = Duration::from_seconds(val);
        } else if (key == "station-faults") {
          pc.params.station_faults = static_cast<int>(val);
        } else if (key == "server-faults") {
          pc.params.server_faults = static_cast<int>(val);
        } else if (key == "partitions") {
          pc.params.partitions = static_cast<int>(val);
        } else if (key == "loss-bursts") {
          pc.params.loss_bursts = static_cast<int>(val);
        } else if (key == "burst-loss") {
          if (val > 1) {
            ok = fail(err, lineno, "chaos: burst-loss must be in [0, 1]");
            break;
          }
          pc.params.burst_loss = val;
        } else {
          ok = fail(err, lineno, "chaos: unknown parameter '" + key + "'");
          break;
        }
      }
      if (!ok) break;
      if (pc.params.window <= Duration(0) ||
          pc.params.min_outage <= Duration(0) ||
          pc.params.min_outage > pc.params.max_outage) {
        ok = fail(err, lineno,
                  "chaos: need window > 0 and 0 < min-outage <= max-outage");
        break;
      }
      chaos_blocks.push_back(std::move(pc));
    } else if (cmd == "act") {
      if (!(ok = want(4, 4))) break;
      const auto user = find_user(toks[1]);
      if (!user) {
        ok = fail(err, lineno, "act: unknown user '" + toks[1] + "'");
        break;
      }
      ScenarioAct act;
      act.user = *user;
      act.line = lineno;
      const std::string& verb = toks[2];
      if (verb == "walk-to") {
        const auto room = find_room(toks[3]);
        if (!room) {
          ok = fail(err, lineno, "act: unknown room '" + toks[3] + "'");
          break;
        }
        if (!(ok = parse_positive(toks[4], &v))) {
          fail(err, lineno, "act walk-to: departure time must be positive");
          break;
        }
        act.kind = ScenarioAct::Kind::kWalkTo;
        act.room = *room;
        act.at = at_seconds(v);
      } else if (verb == "power-cycle" || verb == "unreachable") {
        if (!(ok = parse_positive(toks[3], &v) &&
                   parse_positive(toks[4], &v2))) {
          fail(err, lineno,
               "act " + verb + ": expected <t> <duration>, both positive");
          break;
        }
        act.kind = verb == "power-cycle" ? ScenarioAct::Kind::kPowerCycle
                                         : ScenarioAct::Kind::kUnreachable;
        act.at = at_seconds(v);
        act.duration = Duration::from_seconds(v2);
      } else if (verb == "login-flood") {
        if (!(ok = parse_positive(toks[3], &v))) {
          fail(err, lineno, "act login-flood: time must be positive");
          break;
        }
        int n = 0;
        if (!(ok = parse_count(toks[4], &n))) {
          fail(err, lineno,
               "act login-flood: count must be a positive integer");
          break;
        }
        act.kind = ScenarioAct::Kind::kLoginFlood;
        act.at = at_seconds(v);
        act.count = n;
      } else {
        ok = fail(err, lineno, "act: unknown verb '" + verb + "'");
        break;
      }
      spec.acts.push_back(std::move(act));
    } else if (cmd == "assert-at") {
      if (!(ok = want(4, 4))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "assert-at: time must be positive");
        break;
      }
      if (toks[2] != "whereis") {
        ok = fail(err, lineno,
                  "assert-at: unknown predicate '" + toks[2] +
                      "' (expected 'whereis')");
        break;
      }
      const auto user = find_user(toks[3]);
      if (!user) {
        ok = fail(err, lineno, "assert-at: unknown user '" + toks[3] + "'");
        break;
      }
      ScenarioAssertion a;
      a.kind = ScenarioAssertion::Kind::kWhereIsAt;
      a.at = at_seconds(v);
      a.user = *user;
      a.line = lineno;
      a.text = join_tokens(toks);
      if (toks[4] == "absent") {
        a.room = mobility::kNoRoom;
      } else {
        const auto room = find_room(toks[4]);
        if (!room) {
          ok = fail(err, lineno,
                    "assert-at: unknown room '" + toks[4] +
                        "' (or the keyword 'absent')");
          break;
        }
        a.room = *room;
      }
      spec.assertions.push_back(std::move(a));
    } else if (cmd == "assert-window") {
      if (!(ok = want(4, 4))) break;
      double s = 0;
      if (!(ok = parse_double(toks[1], &v) && v >= 0 &&
                 parse_positive(toks[2], &v2) && v < v2)) {
        fail(err, lineno,
             "assert-window: expected 0 <= t0 < t1 (seconds)");
        break;
      }
      if (toks[3] != "max-staleness") {
        ok = fail(err, lineno,
                  "assert-window: unknown predicate '" + toks[3] +
                      "' (expected 'max-staleness')");
        break;
      }
      if (!(ok = parse_positive(toks[4], &s))) {
        fail(err, lineno, "assert-window: staleness bound must be positive");
        break;
      }
      ScenarioAssertion a;
      a.kind = ScenarioAssertion::Kind::kMaxStalenessWindow;
      a.at = at_seconds(v);
      a.until = at_seconds(v2);
      a.staleness = Duration::from_seconds(s);
      a.line = lineno;
      a.text = join_tokens(toks);
      spec.assertions.push_back(std::move(a));
    } else if (cmd == "assert-final") {
      if (!(ok = want(1, 3))) break;
      ScenarioAssertion a;
      if (toks[1] == "no-invariant-violations") {
        if (!(ok = want(1, 1))) break;
        a.kind = ScenarioAssertion::Kind::kNoInvariantViolations;
      } else if (toks[1] == "min-counter") {
        // assert-final min-counter <cell> <floor>: the named metrics cell
        // (summed across shards) must have reached <floor> by the end of
        // the run. Lets a fault scenario assert *how* it recovered (e.g.
        // svc.relogin >= 1: via re-login, not snapshot).
        if (!(ok = want(3, 3))) break;
        double floor_v = 0;
        if (!(ok = parse_double(toks[3], &floor_v) && floor_v >= 0 &&
                   floor_v <= 1e15 &&
                   floor_v == static_cast<double>(
                                  static_cast<std::uint64_t>(floor_v)))) {
          fail(err, lineno,
               "assert-final min-counter: floor must be a non-negative "
               "integer");
          break;
        }
        a.kind = ScenarioAssertion::Kind::kMinCounter;
        a.counter = toks[2];
        a.min_count = static_cast<std::uint64_t>(floor_v);
      } else {
        ok = fail(err, lineno,
                  "assert-final: unknown predicate '" + toks[1] +
                      "' (expected 'no-invariant-violations' or "
                      "'min-counter')");
        break;
      }
      a.line = lineno;
      a.text = join_tokens(toks);
      spec.assertions.push_back(std::move(a));
    } else if (cmd == "run") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "run: not a positive number of seconds");
        break;
      }
      spec.run_time = Duration::from_seconds(v);
    } else if (cmd == "sample") {
      if (!(ok = want(1, 1))) break;
      if (!(ok = parse_positive(toks[1], &v))) {
        fail(err, lineno, "sample: not a positive number of seconds");
        break;
      }
      spec.sample_period = Duration::from_seconds(v);
    } else {
      ok = fail(err, lineno, "unknown directive '" + cmd + "'");
    }
  }
  if (!ok) return std::nullopt;

  // File-level validation.
  if (spec.building.room_count() == 0) {
    fail(err, 0, "scenario declares no rooms");
    return std::nullopt;
  }
  if (!spec.building.to_graph().connected()) {
    fail(err, 0, "building graph is not connected (missing edges)");
    return std::nullopt;
  }
  if (spec.config.workstation.scheduler.inquiry_length >=
      spec.config.workstation.scheduler.cycle_length) {
    fail(err, 0, "inquiry slot must be shorter than the cycle");
    return std::nullopt;
  }
  // Crash/restart pairing (per room and for the server), then compile the
  // validated outages into the unified plan.
  if (!validate_outages(outages, spec, err)) return std::nullopt;
  for (const PendingOutage& o : outages) {
    if (o.server) {
      o.restart ? spec.fault_plan.restart_server(o.at)
                : spec.fault_plan.crash_server(o.at);
    } else {
      o.restart
          ? spec.fault_plan.restart_station(o.at,
                                            static_cast<StationId>(o.room))
          : spec.fault_plan.crash_station(o.at,
                                          static_cast<StationId>(o.room));
    }
  }
  // Seeded chaos blocks join the same plan (they self-validate pairing).
  for (const PendingChaos& pc : chaos_blocks) {
    spec.fault_plan.merge(fault::FaultPlan::chaos(
        pc.seed, spec.building.room_count(), pc.params));
  }
  // Acts and assertions must fall inside the run: a directive past the end
  // would silently never fire, which defeats a self-checking scenario.
  const SimTime end(spec.run_time.ns());
  for (const ScenarioAct& a : spec.acts) {
    if (a.at > end) {
      fail(err, a.line, "act: time is beyond the end of the run");
      return std::nullopt;
    }
  }
  for (const ScenarioAssertion& a : spec.assertions) {
    const SimTime last =
        a.kind == ScenarioAssertion::Kind::kMaxStalenessWindow ? a.until
                                                               : a.at;
    if (last > end) {
      fail(err, a.line, "assertion: time is beyond the end of the run");
      return std::nullopt;
    }
  }
  return spec;
}

namespace {

/// Live grader for one `assert-window t0 t1 max-staleness s` directive: it
/// fails the check as soon as some logged-in user's database record has
/// disagreed with the mobility ground truth for longer than the bound,
/// measuring streaks from the first in-window sample that disagrees. It
/// samples at observation points on the tick grid t0, t0 + p, t0 + 2p, ...,
/// plus t1 itself (p = spec.sample_period), at every shard count.
struct WindowProbe {
  const ScenarioSpec* spec = nullptr;
  ShardedBipsSimulation* sim = nullptr;
  const ScenarioAssertion* a = nullptr;
  ScenarioCheck* out = nullptr;
  std::vector<SimTime> since;  // per user; SimTime::max() = in agreement
  bool done = false;

  void sample(SimTime tick) {
    if (done) return;
    for (std::size_t i = 0; i < spec->users.size(); ++i) {
      const ScenarioUser& u = spec->users[i];
      bool mismatch = false;
      mobility::RoomId truth = mobility::kNoRoom;
      std::optional<StationId> believed;
      // BIPS only tracks logged-in users (a user mid-handoff reads as
      // logged out for the one-window blackout, at every thread count).
      if (sim->active_client(u.userid).logged_in()) {
        truth = sim->true_room(u.userid);
        believed = sim->db_room(u.userid);
        mismatch = truth == mobility::kNoRoom
                       ? believed.has_value()
                       : (!believed || *believed != truth);
      }
      if (!mismatch) {
        since[i] = SimTime::max();
        continue;
      }
      if (since[i] == SimTime::max()) since[i] = tick;
      if (tick - since[i] > a->staleness) {
        char buf[224];
        std::snprintf(
            buf, sizeof buf,
            "t=%.1fs: %s stale for %.1fs (bound %.1fs): truth=%s, db=%s",
            tick.to_seconds(), u.name.c_str(), (tick - since[i]).to_seconds(),
            a->staleness.to_seconds(),
            truth == mobility::kNoRoom
                ? "absent"
                : spec->building.room(truth).name.c_str(),
            believed ? spec->building.room(*believed).name.c_str() : "absent");
        out->passed = false;
        out->detail = buf;
        done = true;
        return;
      }
    }
  }

  void finish() {
    if (done) return;
    done = true;
    out->passed = true;
    out->detail.clear();
  }
};

}  // namespace

std::unique_ptr<ShardedBipsSimulation> run_scenario(
    const ScenarioSpec& spec, unsigned threads, std::size_t shards,
    const std::function<void(ShardedBipsSimulation&)>& pre_run,
    ScenarioReport* report) {
  ShardedConfig cfg;
  cfg.base = spec.config;
  cfg.shards = shards;
  auto sim = std::make_unique<ShardedBipsSimulation>(spec.building, cfg);
  for (const auto& u : spec.users) {
    sim->add_user(u.name, u.userid, u.password, u.room);
  }
  sim->enable_tracking_metrics(spec.sample_period);
  ShardedBipsSimulation* raw = sim.get();

  // The unified fault schedule rides the event queues, as do the behaviour
  // acts below -- first-class sim events, so a fast-forwarded kernel wakes
  // for each exactly where the exact-slot kernel executes it. Station
  // faults and the windowed LAN faults fire inside the owning shards'
  // windows, server and location-shard faults on shard 0.
  spec.fault_plan.apply_sharded(*sim);

  for (const ScenarioAct& a : spec.acts) {
    const std::string& uid = spec.users[a.user].userid;
    switch (a.kind) {
      case ScenarioAct::Kind::kWalkTo:
        raw->schedule_user_act(
            a.at, uid,
            [room = a.room](BipsClient&, mobility::RandomWaypointAgent& ag) {
              ag.walk_to(room);
            });
        break;
      case ScenarioAct::Kind::kUnreachable:
        raw->schedule_radio_shadow(a.at, uid, true);
        raw->schedule_radio_shadow(a.at + a.duration, uid, false);
        break;
      case ScenarioAct::Kind::kLoginFlood:
        raw->schedule_user_act(
            a.at, uid,
            [n = a.count](BipsClient& c, mobility::RandomWaypointAgent&) {
              c.flood_logins(n);
            });
        break;
      case ScenarioAct::Kind::kPowerCycle:
        raw->schedule_power_cycle(a.at, uid, a.duration);
        break;
    }
  }

  // Assertion graders: observation points on their exact instants, at
  // every shard count (sim::ShardGroup::observe_at). All state lives on
  // this stack frame: every grading instant lies at or before run_time
  // (validated by the parser), so every point fires inside the run_for
  // below.
  sim::ShardGroup& group = sim->group();
  const SimTime end(spec.run_time.ns());
  const auto grade = [raw, &spec](const ScenarioAssertion& a,
                                  ScenarioCheck* out) {
    const ScenarioUser& u = spec.users[a.user];
    const auto r = raw->server().query(BipsServer::Query::where_is("", u.name));
    if (a.room == mobility::kNoRoom) {
      out->passed = !r.ok();
      out->detail = out->passed ? "" : "expected absent, db says " + r.room;
    } else {
      const std::string& want = spec.building.room(a.room).name;
      out->passed = r.ok() && r.room == want;
      if (out->passed) {
        out->detail.clear();
      } else {
        out->detail =
            "expected " + want + ", db says " +
            (r.ok() ? r.room : std::string(proto::to_string(r.status)));
      }
    }
  };
  std::vector<std::unique_ptr<WindowProbe>> probes;
  std::unique_ptr<fault::InvariantChecker> inv;
  std::vector<ScenarioCheck*> inv_checks;
  std::vector<std::pair<const ScenarioAssertion*, ScenarioCheck*>> min_checks;
  if (report != nullptr) {
    report->checks.clear();
    report->checks.reserve(spec.assertions.size());
    for (const ScenarioAssertion& a : spec.assertions) {
      ScenarioCheck c;
      c.line = a.line;
      c.what = a.text;
      c.passed = false;
      c.detail = "never evaluated";
      c.invariant = a.kind == ScenarioAssertion::Kind::kNoInvariantViolations;
      report->checks.push_back(std::move(c));
    }
    for (std::size_t i = 0; i < spec.assertions.size(); ++i) {
      const ScenarioAssertion& a = spec.assertions[i];
      ScenarioCheck* out = &report->checks[i];
      switch (a.kind) {
        case ScenarioAssertion::Kind::kWhereIsAt:
          group.observe_at(a.at, [&grade, aa = &a, out] { grade(*aa, out); });
          break;
        case ScenarioAssertion::Kind::kMaxStalenessWindow: {
          auto probe = std::make_unique<WindowProbe>();
          probe->spec = &spec;
          probe->sim = raw;
          probe->a = &a;
          probe->out = out;
          probe->since.assign(spec.users.size(), SimTime::max());
          WindowProbe* p = probe.get();
          for (SimTime t = a.at; t < a.until; t = t + spec.sample_period) {
            group.observe_at(t, [p, t] { p->sample(t); });
          }
          group.observe_at(a.until, [p] {
            p->sample(p->a->until);  // the window includes its last instant
            p->finish();
          });
          probes.push_back(std::move(probe));
          break;
        }
        case ScenarioAssertion::Kind::kNoInvariantViolations:
          if (!inv) {
            fault::InvariantChecker::Config icfg;
            icfg.sample_period = spec.sample_period;
            // The dead-station bound must exceed the failure detector's
            // timeout + sweep (plus slack for a concurrent server outage).
            icfg.dead_station_grace =
                std::max(Duration::seconds(30),
                         spec.config.server.station_timeout +
                             spec.config.server.sweep_period +
                             Duration::seconds(20));
            inv = std::make_unique<fault::InvariantChecker>(
                fault::world_view(*raw), icfg);
            for (SimTime t = SimTime::zero() + spec.sample_period; t <= end;
                 t = t + spec.sample_period) {
              group.observe_at(t, [p = inv.get()] { p->sample(); });
            }
          }
          inv_checks.push_back(out);
          break;
        case ScenarioAssertion::Kind::kMinCounter:
          min_checks.emplace_back(&a, out);  // graded after the run
          break;
      }
    }
  }

  if (pre_run) pre_run(*sim);
  sim->run_for(spec.run_time, threads);

  if (inv) {
    // The convergence contract only binds once the plan has healed and the
    // recovery bound has elapsed (the bound the chaos tests use).
    if (spec.fault_plan.heal_time() + Duration::seconds(40) <=
        spec.run_time) {
      inv->check_converged();
    }
    std::string detail;
    for (const std::string& v : inv->violations()) {
      if (!detail.empty()) detail += "; ";
      detail += v;
    }
    for (ScenarioCheck* out : inv_checks) {
      out->passed = inv->ok();
      out->detail = detail;
    }
  }
  // Counter floors grade against the cross-shard sum: the cell lives in
  // every shard's registry and the increments land wherever the owning
  // agent ran, identically at every thread count.
  for (auto& [aa, out] : min_checks) {
    const std::uint64_t got = raw->metric_sum(aa->counter);
    out->passed = got >= aa->min_count;
    out->detail = out->passed
                      ? ""
                      : aa->counter + " = " + std::to_string(got) +
                            ", need >= " + std::to_string(aa->min_count);
  }
  return sim;
}

}  // namespace bips::core
