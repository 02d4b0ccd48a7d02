#include "src/fault/plan.hpp"

#include <algorithm>
#include <cstdio>

#include "src/core/parallel.hpp"
#include "src/util/rng.hpp"

namespace bips::fault {

namespace {
/// Emits one `fault` trace record at fire time: id = station (UINT32_MAX
/// for building-wide faults), a = FaultEvent::Kind, b = window span in ns,
/// x = loss probability. See DESIGN.md section 7.
void trace_fault_on(sim::Simulator& simr, FaultEvent::Kind kind,
                    core::StationId station = core::kNoStation,
                    Duration span = Duration(0), double loss = 0.0) {
  simr.obs().tracer.emit(simr.now(), obs::TraceKind::kFault, station,
                         static_cast<std::uint64_t>(kind),
                         static_cast<std::uint64_t>(span.ns()), loss);
}
}  // namespace

FaultPlan& FaultPlan::add(FaultEvent e) {
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::crash_station(Duration at, core::StationId s) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kStationCrash;
  e.at = at;
  e.station = s;
  return add(std::move(e));
}

FaultPlan& FaultPlan::restart_station(Duration at, core::StationId s) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kStationRestart;
  e.at = at;
  e.station = s;
  return add(std::move(e));
}

FaultPlan& FaultPlan::crash_server(Duration at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kServerCrash;
  e.at = at;
  return add(std::move(e));
}

FaultPlan& FaultPlan::restart_server(Duration at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kServerRestart;
  e.at = at;
  return add(std::move(e));
}

FaultPlan& FaultPlan::partition_stations(Duration at, Duration span,
                                         std::vector<core::StationId> group) {
  BIPS_ASSERT(span > Duration(0));
  BIPS_ASSERT(!group.empty());
  FaultEvent e;
  e.kind = FaultEvent::Kind::kPartition;
  e.at = at;
  e.span = span;
  e.group = std::move(group);
  return add(std::move(e));
}

FaultPlan& FaultPlan::loss_burst(Duration at, Duration span, double loss) {
  BIPS_ASSERT(span > Duration(0));
  BIPS_ASSERT(loss >= 0.0 && loss <= 1.0);
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLossBurst;
  e.at = at;
  e.span = span;
  e.loss = loss;
  return add(std::move(e));
}

FaultPlan& FaultPlan::flaky_link(Duration at, Duration span,
                                 core::StationId station, double loss) {
  BIPS_ASSERT(span > Duration(0));
  BIPS_ASSERT(loss >= 0.0 && loss <= 1.0);
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkLoss;
  e.at = at;
  e.span = span;
  e.station = station;
  e.loss = loss;
  return add(std::move(e));
}

FaultPlan& FaultPlan::crash_shard(Duration at, std::size_t zone) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kShardCrash;
  e.at = at;
  e.zone = zone;
  return add(std::move(e));
}

FaultPlan& FaultPlan::restart_shard(Duration at, std::size_t zone) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kShardRestart;
  e.at = at;
  e.zone = zone;
  return add(std::move(e));
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, std::size_t station_count,
                           const ChaosParams& p) {
  BIPS_ASSERT(station_count > 0);
  BIPS_ASSERT(p.window > Duration(0));
  BIPS_ASSERT(Duration(0) < p.min_outage && p.min_outage <= p.max_outage);
  Rng rng(seed);
  FaultPlan plan;
  const auto instant = [&] {
    return p.start + Duration::nanos(static_cast<std::int64_t>(
                         rng.uniform(static_cast<std::uint64_t>(p.window.ns()))));
  };
  const auto outage = [&] {
    return Duration::nanos(rng.uniform_int(p.min_outage.ns(), p.max_outage.ns()));
  };
  for (int i = 0; i < p.station_faults; ++i) {
    const auto s = static_cast<core::StationId>(rng.uniform(station_count));
    const Duration at = instant();
    plan.crash_station(at, s);
    plan.restart_station(at + outage(), s);
  }
  for (int i = 0; i < p.server_faults; ++i) {
    const Duration at = instant();
    plan.crash_server(at);
    plan.restart_server(at + outage());
  }
  for (int i = 0; i < p.partitions; ++i) {
    // Isolate a random strict subset of the stations (at least one stays
    // connected so the building is never fully dark on the LAN side).
    const std::size_t max_group = std::max<std::size_t>(1, station_count / 2);
    const std::size_t n = 1 + rng.uniform(max_group);
    std::vector<core::StationId> group;
    for (std::size_t k = 0; k < n; ++k) {
      const auto s = static_cast<core::StationId>(rng.uniform(station_count));
      if (std::find(group.begin(), group.end(), s) == group.end()) {
        group.push_back(s);
      }
    }
    plan.partition_stations(instant(), outage(), std::move(group));
  }
  for (int i = 0; i < p.loss_bursts; ++i) {
    plan.loss_burst(instant(), outage(), p.burst_loss);
  }
  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

FaultPlan& FaultPlan::merge(const FaultPlan& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  return *this;
}

Duration FaultPlan::heal_time() const {
  Duration heal(0);
  for (const FaultEvent& e : events_) {
    const Duration end =
        e.span > Duration(0) ? e.at + e.span : e.at;  // restarts are instants
    heal = std::max(heal, end);
  }
  return heal;
}

void FaultPlan::apply_sharded(core::ShardedBipsSimulation& sim) const {
  const std::size_t shards = sim.shard_count();
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultEvent::Kind::kStationCrash: {
        // Shard-local: the station's whole stack lives on its zone's shard.
        sim::Simulator& z = sim.shard_simulator(sim.shard_of_station(e.station));
        z.schedule(e.at, [&sim, &z, s = e.station] {
          trace_fault_on(z, FaultEvent::Kind::kStationCrash, s);
          sim.workstation(s).crash();
        });
        break;
      }
      case FaultEvent::Kind::kStationRestart: {
        sim::Simulator& z = sim.shard_simulator(sim.shard_of_station(e.station));
        z.schedule(e.at, [&sim, &z, s = e.station] {
          trace_fault_on(z, FaultEvent::Kind::kStationRestart, s);
          sim.workstation(s).restart();
        });
        break;
      }
      case FaultEvent::Kind::kServerCrash: {
        // Barrier-class: every structure the crash wipes lives on shard 0,
        // whose events the kernel runs single-threaded w.r.t. that state.
        // The zone agents mirror the crash at the next window barrier.
        sim::Simulator& z0 = sim.shard_simulator(0);
        z0.schedule(e.at, [&sim, &z0] {
          trace_fault_on(z0, FaultEvent::Kind::kServerCrash);
          sim.server().crash();
        });
        break;
      }
      case FaultEvent::Kind::kServerRestart: {
        sim::Simulator& z0 = sim.shard_simulator(0);
        z0.schedule(e.at, [&sim, &z0] {
          trace_fault_on(z0, FaultEvent::Kind::kServerRestart);
          sim.server().restart();
        });
        break;
      }
      case FaultEvent::Kind::kShardCrash: {
        sim::Simulator& z0 = sim.shard_simulator(0);
        z0.schedule(e.at, [&sim, &z0, z = e.zone] {
          trace_fault_on(z0, FaultEvent::Kind::kShardCrash,
                         static_cast<core::StationId>(z));
          sim.server().crash_shard(z);
        });
        break;
      }
      case FaultEvent::Kind::kShardRestart: {
        sim::Simulator& z0 = sim.shard_simulator(0);
        z0.schedule(e.at, [&sim, &z0, z = e.zone] {
          trace_fault_on(z0, FaultEvent::Kind::kShardRestart,
                         static_cast<core::StationId>(z));
          sim.server().restart_shard(z);
        });
        break;
      }
      case FaultEvent::Kind::kPartition:
        // A partition is sender-side state: mirror the cut onto every zone
        // segment with the *global* address lists, and the datagram dies on
        // whichever segment its sender lives on (deliver_remote re-checks
        // nothing, so no fault is ever drawn twice). The zone agents'
        // addresses travel with the server side: an isolated station loses
        // its local presence path exactly as it loses the server uplink.
        for (std::size_t k = 0; k < shards; ++k) {
          sim::Simulator& z = sim.shard_simulator(k);
          z.schedule(e.at, [&sim, &z, k, group = e.group, span = e.span] {
            if (k == 0) {
              trace_fault_on(z, FaultEvent::Kind::kPartition,
                             core::kNoStation, span);
            }
            std::vector<net::Address> isolated;
            isolated.reserve(group.size());
            for (const core::StationId s : group) {
              isolated.push_back(sim.workstation(s).lan_address());
            }
            std::vector<net::Address> rest;
            rest.push_back(sim.server().address());
            for (core::StationId s = 0; s < sim.workstation_count(); ++s) {
              if (std::find(group.begin(), group.end(), s) == group.end()) {
                rest.push_back(sim.workstation(s).lan_address());
              }
            }
            for (const net::Address a : sim.ingest_addresses()) {
              rest.push_back(a);
            }
            const SimTime now = z.now();
            sim.shard_lan(k).partition(std::move(isolated), std::move(rest),
                                       now, now + span);
          });
        }
        break;
      case FaultEvent::Kind::kLossBurst:
        // Uniform loss is per-segment state: raise it on every zone's LAN
        // and restore each segment's own prior setting.
        for (std::size_t k = 0; k < shards; ++k) {
          sim::Simulator& z = sim.shard_simulator(k);
          z.schedule(e.at, [&sim, &z, k, loss = e.loss, span = e.span] {
            if (k == 0) {
              trace_fault_on(z, FaultEvent::Kind::kLossBurst,
                             core::kNoStation, span, loss);
            }
            const double before = sim.shard_lan(k).loss();
            sim.shard_lan(k).set_loss(loss);
            z.schedule(span,
                       [&sim, k, before] { sim.shard_lan(k).set_loss(before); });
          });
        }
        break;
      case FaultEvent::Kind::kLinkLoss: {
        // The station->server leg originates on the station's segment; the
        // server->station replies originate on shard 0's. Degrade both ends
        // (set_link_loss keys on the unordered global address pair). The
        // station's presence path to its *zone agent* is intentionally
        // unaffected -- this fault models the uplink, not the zone LAN.
        const std::size_t ks = sim.shard_of_station(e.station);
        const auto degrade = [&sim, s = e.station](std::size_t k, double loss,
                                                   Duration span,
                                                   sim::Simulator& z) {
          const net::Address ws = sim.workstation(s).lan_address();
          const net::Address srv = sim.server().address();
          sim.shard_lan(k).set_link_loss(ws, srv, loss);
          z.schedule(span, [&sim, k, ws, srv] {
            sim.shard_lan(k).set_link_loss(ws, srv, 0.0);
          });
        };
        sim::Simulator& zs = sim.shard_simulator(ks);
        zs.schedule(e.at, [&zs, degrade, ks, s = e.station, loss = e.loss,
                           span = e.span] {
          trace_fault_on(zs, FaultEvent::Kind::kLinkLoss, s, span, loss);
          degrade(ks, loss, span, zs);
        });
        if (ks != 0) {
          sim::Simulator& z0 = sim.shard_simulator(0);
          z0.schedule(e.at, [&z0, degrade, loss = e.loss, span = e.span] {
            degrade(0, loss, span, z0);
          });
        }
        break;
      }
    }
  }
}

std::string FaultPlan::describe() const {
  std::string out;
  char line[160];
  for (const FaultEvent& e : events_) {
    const double at_s = e.at.to_seconds();
    const double span_s = e.span.to_seconds();
    switch (e.kind) {
      case FaultEvent::Kind::kStationCrash:
        std::snprintf(line, sizeof line, "t=%6.1fs  station %u crashes\n",
                      at_s, e.station);
        break;
      case FaultEvent::Kind::kStationRestart:
        std::snprintf(line, sizeof line, "t=%6.1fs  station %u restarts\n",
                      at_s, e.station);
        break;
      case FaultEvent::Kind::kServerCrash:
        std::snprintf(line, sizeof line, "t=%6.1fs  SERVER crashes\n", at_s);
        break;
      case FaultEvent::Kind::kServerRestart:
        std::snprintf(line, sizeof line, "t=%6.1fs  SERVER restarts\n", at_s);
        break;
      case FaultEvent::Kind::kPartition: {
        std::string members;
        for (const core::StationId s : e.group) {
          members += (members.empty() ? "" : ",") + std::to_string(s);
        }
        std::snprintf(line, sizeof line,
                      "t=%6.1fs  partition {%s} from LAN for %.1fs\n", at_s,
                      members.c_str(), span_s);
        break;
      }
      case FaultEvent::Kind::kLossBurst:
        std::snprintf(line, sizeof line,
                      "t=%6.1fs  LAN loss burst %.0f%% for %.1fs\n", at_s,
                      e.loss * 100.0, span_s);
        break;
      case FaultEvent::Kind::kLinkLoss:
        std::snprintf(line, sizeof line,
                      "t=%6.1fs  station %u uplink %.0f%% loss for %.1fs\n",
                      at_s, e.station, e.loss * 100.0, span_s);
        break;
      case FaultEvent::Kind::kShardCrash:
        std::snprintf(line, sizeof line,
                      "t=%6.1fs  location shard %zu crashes\n", at_s, e.zone);
        break;
      case FaultEvent::Kind::kShardRestart:
        std::snprintf(line, sizeof line,
                      "t=%6.1fs  location shard %zu restarts\n", at_s, e.zone);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace bips::fault
