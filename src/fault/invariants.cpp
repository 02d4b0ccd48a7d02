#include "src/fault/invariants.hpp"

#include <cstdio>

#include "src/core/parallel.hpp"

namespace bips::fault {

InvariantChecker::WorldView world_view(core::ShardedBipsSimulation& sim) {
  InvariantChecker::WorldView view;
  view.now = [&sim] { return sim.shard_simulator(0).now(); };
  view.workstation_count = [&sim] { return sim.workstation_count(); };
  view.workstation = [&sim](core::StationId s) -> core::BipsWorkstation& {
    return sim.workstation(s);
  };
  view.server_crashed = [&sim] { return sim.server().crashed(); };
  view.userids = [&sim] { return sim.userids(); };
  view.logged_in = [&sim](std::string_view uid) {
    return sim.active_client(uid).logged_in();
  };
  view.db_room = [&sim](std::string_view uid) { return sim.db_room(uid); };
  view.true_room = [&sim](std::string_view uid) { return sim.true_room(uid); };
  return view;
}

InvariantChecker::InvariantChecker(WorldView view, Config cfg)
    : view_(std::move(view)),
      cfg_(std::move(cfg)),
      stations_(view_.workstation_count()) {}

bool InvariantChecker::graded(core::StationId s) const {
  return !cfg_.station_filter || cfg_.station_filter(s);
}

void InvariantChecker::violate(std::string msg) {
  // One chaos run can trip the same invariant every sample; keep the report
  // readable by dropping exact repeats.
  for (const std::string& v : violations_) {
    if (v == msg) return;
  }
  violations_.push_back(std::move(msg));
}

void InvariantChecker::sample() {
  ++samples_;
  const SimTime now = view_.now();
  char msg[192];

  const std::size_t nstations = view_.workstation_count();
  for (core::StationId s = 0; s < nstations; ++s) {
    core::BipsWorkstation& ws = view_.workstation(s);
    StationState& st = stations_[s];
    if (!graded(s)) {  // keep the bookkeeping, skip the grading
      st.last_seq = ws.presence_seq();
      st.last_epoch = ws.known_server_epoch();
      st.crashes = ws.stats().crashes;
      if (ws.crashed()) {
        if (!st.was_crashed) st.crashed_since = now;
        st.was_crashed = true;
      } else {
        st.was_crashed = false;
      }
      continue;
    }

    // Sequence numbers and the observed server epoch may only move forward
    // within one workstation incarnation; crash() legitimately resets both.
    const bool recycled = ws.stats().crashes != st.crashes;
    if (!recycled) {
      if (ws.presence_seq() < st.last_seq) {
        std::snprintf(msg, sizeof msg,
                      "t=%.1fs station %u presence seq regressed %llu -> %llu",
                      now.to_seconds(), s,
                      static_cast<unsigned long long>(st.last_seq),
                      static_cast<unsigned long long>(ws.presence_seq()));
        violate(msg);
      }
      if (ws.known_server_epoch() < st.last_epoch) {
        std::snprintf(msg, sizeof msg,
                      "t=%.1fs station %u server epoch regressed %u -> %u",
                      now.to_seconds(), s, st.last_epoch,
                      ws.known_server_epoch());
        violate(msg);
      }
    }
    st.last_seq = ws.presence_seq();
    st.last_epoch = ws.known_server_epoch();
    st.crashes = ws.stats().crashes;

    // Track how long each station has been continuously dead.
    if (ws.crashed()) {
      if (!st.was_crashed) st.crashed_since = now;
      st.was_crashed = true;
    } else {
      st.was_crashed = false;
    }
  }

  // Nobody may stay located at a long-dead station. The server's failure
  // detector is the only component that can clean these records up (the
  // dead station cannot report absences), so give it its bound plus slack.
  if (!view_.server_crashed()) {
    for (const std::string& userid : view_.userids()) {
      const auto room = view_.db_room(userid);
      if (!room || !graded(*room)) continue;
      const StationState& st = stations_[*room];
      if (st.was_crashed && now - st.crashed_since > cfg_.dead_station_grace) {
        std::snprintf(msg, sizeof msg,
                      "t=%.1fs user %s still located at station %u, dead for "
                      "%.1fs (> %.1fs grace)",
                      now.to_seconds(), userid.c_str(), *room,
                      (now - st.crashed_since).to_seconds(),
                      cfg_.dead_station_grace.to_seconds());
        violate(msg);
      }
    }
  }
}

void InvariantChecker::check_converged() {
  const SimTime now = view_.now();
  char msg[192];
  for (const std::string& userid : view_.userids()) {
    if (!view_.logged_in(userid)) continue;
    const auto room = view_.db_room(userid);
    const mobility::RoomId truth = view_.true_room(userid);
    if (truth != mobility::kNoRoom && !room &&
        graded(static_cast<core::StationId>(truth))) {
      std::snprintf(msg, sizeof msg,
                    "t=%.1fs converged check: logged-in user %s stands in "
                    "room %u but the location DB has no record",
                    now.to_seconds(), userid.c_str(), truth);
      violate(msg);
    }
    if (room && graded(*room) && view_.workstation(*room).crashed()) {
      std::snprintf(msg, sizeof msg,
                    "t=%.1fs converged check: user %s located at crashed "
                    "station %u",
                    now.to_seconds(), userid.c_str(), *room);
      violate(msg);
    }
  }
}

}  // namespace bips::fault
