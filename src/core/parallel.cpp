#include "src/core/parallel.hpp"

#include <algorithm>
#include <utility>

#include "src/baseband/radio.hpp"
#include "src/util/assert.hpp"

namespace bips::core {

namespace {
/// Stable, readable device addresses: workstations aa:00:..., handhelds
/// c0:ff:ee:...; raw 0 (the null address) is never produced. The replicas
/// of one handheld share one BD_ADDR across every shard's radio -- it is
/// the same physical device.
baseband::BdAddr station_addr(StationId s) {
  return baseband::BdAddr(0xAA00'0000'0000ull + s + 1);
}
baseband::BdAddr handheld_addr(std::size_t i) {
  return baseband::BdAddr(0xC0FF'EE00'0000ull + i + 1);
}

/// Zone-LAN address plan: shard k hands out addresses from k << 20, so the
/// owning shard of any LAN address is just its high bits. 2^20 addresses
/// per zone comfortably exceeds any building.
constexpr unsigned kShardAddressShift = 20;

/// Effectively-infinite domain edge for the outermost zones.
constexpr double kOpenEnd = 1e18;

sim::LookaheadInputs lookahead_inputs(const ShardedConfig& cfg,
                                      std::size_t shard_count) {
  sim::LookaheadInputs in;
  in.shard_count = shard_count;
  // The LAN leg: cross-zone datagrams pay base + uplink before jitter and
  // FIFO clamping, which only ever add.
  in.lan_latency = cfg.base.lan.base_latency + cfg.uplink_extra;
  // The RF leg: the same occupancy-radius convention the radio's
  // fast-forward wakeups use, fed by the deployment's coverage radius.
  in.seam_margin_m = baseband::RadioChannel::ff_radius_for(
      cfg.base.coverage_radius_m, cfg.base.channel.ff_slack_m);
  in.max_speed_mps = cfg.base.workstation.scheduler.piconet.ff_max_speed_mps;
  return in;
}
}  // namespace

std::optional<Duration> ShardedBipsSimulation::derive_window(
    const ShardedConfig& cfg, std::string* error) {
  return sim::conservative_lookahead(lookahead_inputs(cfg, cfg.shards),
                                     error);
}

ShardedBipsSimulation::ShardedBipsSimulation(mobility::Building building,
                                             ShardedConfig cfg)
    : cfg_(std::move(cfg)),
      building_(std::move(building)),
      zones_(ZonePartition::columns(building_, cfg_.shards)),
      group_(zones_.zone_count()),
      rng_(cfg_.base.seed) {
  const std::size_t s = shard_count();
  std::string err;
  const auto window = sim::conservative_lookahead(lookahead_inputs(cfg_, s),
                                                  &err);
  BIPS_ASSERT_MSG(window.has_value(), "no conservative window");
  window_ = cfg_.window > Duration(0) ? cfg_.window : *window;

  // The RNG stream plan: shard k's stream is the k-th fork of the master
  // (its radio, LAN, stations, handheld and agent replicas all draw from
  // it); the master itself only salts registry passwords. Shard
  // construction order fixes the fork order, and everything below runs
  // single-threaded, so the whole build is a deterministic function of the
  // seed regardless of how many threads later run it.
  shards_.reserve(s);
  for (std::size_t k = 0; k < s; ++k) {
    baseband::ChannelConfig ccfg = cfg_.base.channel;
    ccfg.default_range_m = cfg_.base.coverage_radius_m;
    net::Lan::Config lcfg = cfg_.base.lan;
    lcfg.address_base = static_cast<net::Address>(k) << kShardAddressShift;
    lcfg.uplink_extra = cfg_.uplink_extra;
    shards_.push_back(std::make_unique<Shard>(group_.shard(k), rng_.fork(),
                                              ccfg, lcfg));
  }
  if (s > 1) {
    for (std::size_t k = 0; k < s; ++k) {
      shards_[k]->lan.set_uplink([this, k](net::Address from, net::Address to,
                                           SimTime due, net::Payload data) {
        const std::size_t dst = to >> kShardAddressShift;
        if (dst >= shard_count() || dst == k) return false;
        group_.post(k, dst, due,
                    [this, dst, from, to, d = std::move(data)] {
                      shards_[dst]->lan.deliver_remote(from, to, d);
                    });
        return true;
      });
    }
  }
  group_.set_window_hook([this](SimTime edge) { on_barrier(edge); });

  // The server's endpoint is the first created on shard 0's LAN, so its
  // address is exactly shard 0's address base -- reachable from every zone
  // through the uplink. Its location shards align with the simulator zones
  // by default (server.zones == 0): the same ZonePartition::columns cut,
  // so a delta ingested by simulator shard k is owned by location shard k.
  if (cfg_.base.server.zones == 0) cfg_.base.server.zones = shard_count();
  server_ = std::make_unique<BipsServer>(group_.shard(0), shards_[0]->lan,
                                         building_, cfg_.base.server);

  stations_.reserve(building_.room_count());
  station_shard_.reserve(building_.room_count());
  for (const mobility::Room& room : building_.rooms()) {
    const std::size_t k = shard_of_room(room.id);
    Shard& shard = *shards_[k];
    auto ws = std::make_unique<BipsWorkstation>(
        group_.shard(k), shard.radio, shard.lan, server_->address(), room.id,
        station_addr(room.id), shard.rng.fork(), room.center,
        cfg_.base.workstation);
    ws->set_link_resolver(
        [m = &shard.clients_by_addr](baseband::BdAddr a)
            -> baseband::SlaveLink* {
          const auto it = m->find(a.raw());
          return it == m->end() ? nullptr : &it->second->link();
        });
    stations_.push_back(std::move(ws));
    station_shard_.push_back(k);
  }

  if (s > 1) {
    // Presence ingest moves off the server thread: each zone gets a local
    // front-end agent; its window log replays into the server at barriers
    // (merge_zone_ingest). Single-shard worlds skip all of this: their
    // stations report presence straight to the server.
    ingests_.reserve(s);
    for (std::size_t k = 0; k < s; ++k) {
      ingests_.push_back(std::make_unique<ZoneIngest>(
          group_.shard(k), shards_[k]->lan, building_.room_count()));
    }
    std::vector<net::Address> sync_targets;
    sync_targets.reserve(stations_.size());
    for (std::size_t sid = 0; sid < stations_.size(); ++sid) {
      stations_[sid]->set_presence_sink(
          ingests_[station_shard_[sid]]->address());
      sync_targets.push_back(stations_[sid]->lan_address());
    }
    server_->set_sync_targets(std::move(sync_targets));
    server_->set_presence_reset_hook([this](StationId sid) {
      pending_presence_resets_.push_back(sid);
    });
  }
}

std::size_t ShardedBipsSimulation::shard_of_room(
    mobility::RoomId room) const {
  return zones_.zone_of(static_cast<StationId>(room));
}

double ShardedBipsSimulation::dom_lo(std::size_t k) const {
  return k == 0 ? -kOpenEnd : zones_.seams()[k - 1];
}

double ShardedBipsSimulation::dom_hi(std::size_t k) const {
  return k + 1 == shard_count() ? kOpenEnd : zones_.seams()[k];
}

std::size_t ShardedBipsSimulation::user_index(std::string_view userid) const {
  const auto it = user_ids_.find(userid);
  BIPS_ASSERT_MSG(it != user_ids_.end(), "unknown userid");
  return it->second;
}

void ShardedBipsSimulation::add_user(const std::string& name,
                                     const std::string& userid,
                                     const std::string& password,
                                     mobility::RoomId start_room) {
  BIPS_ASSERT_MSG(!started_, "add users before starting the simulation");
  BIPS_ASSERT(start_room < building_.room_count());
  const bool registered =
      server_->registry().register_user(userid, name, password,
                                        rng_.next_u64());
  BIPS_ASSERT_MSG(registered, "duplicate userid or name");

  const std::size_t i = users_.size();
  const std::size_t owner = shard_of_room(start_room);
  User& u = users_.emplace_back();
  u.userid = userid;
  u.name = name;
  u.password = password;
  u.start_room = start_room;
  u.replicas.resize(shard_count());
  u.client_seeds.resize(shard_count());
  user_ids_.emplace(u.userid, i);
  owner_.push_back(static_cast<std::uint32_t>(owner));
  // Every shard's stream gives up a client fork and then an agent fork, as
  // if every replica were built now, so no stream that ever runs moves.
  // fork() is Rng(next_u64()): a replica built later needs only its client
  // seed, and its agent's fork is dropped, because resume_transit replaces
  // a resumed agent's stream with the one the walk carries.
  for (std::size_t k = 0; k < shard_count(); ++k) {
    Rng& rng = shards_[k]->rng;
    u.client_seeds[k] = rng.next_u64();
    const std::uint64_t agent_seed = rng.next_u64();
    if (k == owner) build_replica(i, k, Rng(agent_seed)).active = true;
  }
  install_provider(i, owner);
}

ShardedBipsSimulation::Replica& ShardedBipsSimulation::build_replica(
    std::size_t i, std::size_t k, Rng agent_rng) {
  User& u = users_[i];
  Shard& shard = *shards_[k];
  ClientConfig ccfg;
  ccfg.userid = u.userid;
  ccfg.password = u.password;
  ccfg.slave = cfg_.base.slave;
  auto rep = std::make_unique<Replica>();
  rep->client = std::make_unique<BipsClient>(group_.shard(k), shard.radio,
                                             handheld_addr(i),
                                             Rng(u.client_seeds[k]),
                                             std::move(ccfg));
  rep->agent = std::make_unique<mobility::RandomWaypointAgent>(
      group_.shard(k), building_, server_->paths(), std::move(agent_rng),
      u.start_room, cfg_.base.mobility);
  if (shard_count() > 1) {
    rep->agent->set_domain(dom_lo(k), dom_hi(k),
                           [this, i, k](mobility::TransitState st) {
                             handle_exit(i, k, std::move(st));
                           });
  }
  shard.clients_by_addr.emplace(rep->client->addr().raw(),
                                rep->client.get());
  u.replicas[k] = std::move(rep);
  return *u.replicas[k];
}

void ShardedBipsSimulation::install_provider(std::size_t i, std::size_t k) {
  Replica* rep = users_[i].replicas[k].get();
  // A dormant (or scripted-shadowed) replica's device parks 1 km off the
  // floor plan: outside every coverage circle and any radio range a
  // scenario can configure, so it neither answers inquiries nor holds any
  // occupancy bookkeeping near the seam. The re-install itself fires the
  // device's position listeners (the discrete teleport that wakes quiesced
  // masters).
  if (rep->provider) {
    // Scripted source (single-shard worlds: the replica is always active).
    rep->client->device().set_position_provider([rep] {
      const Vec2 p = rep->provider();
      return rep->shadowed ? p + Vec2{1000.0, 1000.0} : p;
    });
    return;
  }
  rep->client->device().set_position_provider([rep] {
    const Vec2 p = rep->agent->position();
    return rep->active && !rep->shadowed ? p : p + Vec2{1000.0, 1000.0};
  });
}

void ShardedBipsSimulation::start() {
  if (started_) return;
  started_ = true;
  const Duration cycle = cfg_.base.workstation.scheduler.cycle_length;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (cfg_.base.stagger_inquiry && stations_.size() > 1) {
      const Duration offset = Duration::nanos(
          cycle.ns() * static_cast<std::int64_t>(i) /
          static_cast<std::int64_t>(stations_.size()));
      stations_[i]->start_after(offset);
    } else {
      stations_[i]->start();
    }
  }
  for (std::size_t i = 0; i < users_.size(); ++i) {
    Replica& rep = *users_[i].replicas[owner_[i]];
    rep.client->start();
    if (!rep.provider) rep.agent->start();  // scripted sources drive themselves
  }
}

void ShardedBipsSimulation::run_for(Duration d, unsigned threads) {
  start();
  group_.run_until(group_.now() + d, window_, threads);
}

void ShardedBipsSimulation::handle_exit(std::size_t i, std::size_t k,
                                        mobility::TransitState st) {
  Replica& rep = *users_[i].replicas[k];
  const std::size_t dst = st.position.x >= dom_hi(k) ? k + 1 : k - 1;
  BIPS_ASSERT(dst < shard_count());
  rep.active = false;
  BipsClient::HandoffState session = rep.client->suspend_handoff();
  const bool shadowed = rep.shadowed;
  const bool powered_off = rep.powered_off;
  install_provider(i, k);  // teleport out: wakes this zone's masters
  // One full window of delay guarantees the mail lands strictly after the
  // current window's edge (the lookahead contract). Physically: the user
  // is RF-dark for window-length * ff_max_speed_mps of walk -- millimetres.
  const SimTime due = group_.shard(k).now() + window_;
  group_.post(k, dst, due,
              [this, i, dst, session, shadowed, powered_off,
               s = std::move(st)]() mutable {
                resume_replica(i, dst, std::move(s), session, shadowed,
                               powered_off);
              });
}

void ShardedBipsSimulation::resume_replica(std::size_t i, std::size_t dst,
                                           mobility::TransitState st,
                                           BipsClient::HandoffState session,
                                           bool shadowed, bool powered_off) {
  // First entry into this zone: build the replica here, on dst's worker.
  std::unique_ptr<Replica>& slot = users_[i].replicas[dst];
  Replica& rep = slot ? *slot : build_replica(i, dst, Rng());
  owner_[i] = static_cast<std::uint32_t>(dst);
  rep.active = true;
  rep.shadowed = shadowed;
  rep.powered_off = powered_off;
  rep.agent->resume_transit(std::move(st));
  install_provider(i, dst);  // teleport in: the new zone can see it
  rep.client->resume_handoff(session);
  // A device carried across a seam while powered off stays off: the resume
  // restarted the scan loop, so switch it straight back off.
  if (powered_off) rep.client->power_off();
}

void ShardedBipsSimulation::schedule_user_act(SimTime at,
                                              std::string_view userid,
                                              UserAct act) {
  const std::size_t i = user_index(userid);
  for (std::size_t k = 0; k < shard_count(); ++k) {
    group_.shard(k).schedule_at(at, [this, i, k, act] {
      Replica* rep = users_[i].replicas[k].get();
      if (rep && rep->active) act(*rep->client, *rep->agent);
    });
  }
}

void ShardedBipsSimulation::schedule_radio_shadow(SimTime at,
                                                  std::string_view userid,
                                                  bool shadowed) {
  const std::size_t i = user_index(userid);
  for (std::size_t k = 0; k < shard_count(); ++k) {
    group_.shard(k).schedule_at(at, [this, i, k, shadowed] {
      Replica* rep = users_[i].replicas[k].get();
      if (!rep || !rep->active || rep->shadowed == shadowed) return;
      rep->shadowed = shadowed;
      install_provider(i, k);
    });
  }
}

void ShardedBipsSimulation::schedule_power_cycle(SimTime at,
                                                 std::string_view userid,
                                                 Duration off_for) {
  BIPS_ASSERT(off_for > Duration(0));
  const std::size_t i = user_index(userid);
  for (std::size_t k = 0; k < shard_count(); ++k) {
    // The power-cycle pair: shadow + power_off, then unshadow + power_on,
    // fired on whichever replica is live (the owner guard makes exactly one
    // fire; mid-blackout acts drop, identically at every thread count).
    group_.shard(k).schedule_at(at, [this, i, k] {
      Replica* rep = users_[i].replicas[k].get();
      if (!rep || !rep->active || rep->powered_off) return;
      rep->powered_off = true;
      if (!rep->shadowed) {
        rep->shadowed = true;
        install_provider(i, k);
      }
      rep->client->power_off();
    });
    group_.shard(k).schedule_at(at + off_for, [this, i, k] {
      Replica* rep = users_[i].replicas[k].get();
      if (!rep || !rep->active || !rep->powered_off) return;
      rep->powered_off = false;
      if (rep->shadowed) {
        rep->shadowed = false;
        install_provider(i, k);
      }
      rep->client->power_on();
    });
  }
}

void ShardedBipsSimulation::set_metrics_enabled(bool on) {
  for (std::size_t k = 0; k < shard_count(); ++k) {
    group_.shard(k).obs().metrics.set_enabled(on);
  }
}

std::uint64_t ShardedBipsSimulation::metric_sum(std::string_view name) const {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < shard_count(); ++k) {
    sum += group_.shard(k).obs().metrics.counter_value(name);
  }
  return sum;
}

void ShardedBipsSimulation::set_position_provider(
    std::string_view userid, std::function<Vec2()> provider) {
  BIPS_ASSERT_MSG(shard_count() == 1,
                  "a scripted position source cannot cross a zone seam");
  const std::size_t i = user_index(userid);
  Replica& rep = *users_[i].replicas[0];
  rep.provider = std::move(provider);
  rep.agent->stop();
  install_provider(i, 0);
}

mobility::RoomId ShardedBipsSimulation::true_room(
    std::string_view userid) const {
  const std::size_t i = user_index(userid);
  const Replica& rep = *users_[i].replicas[owner_[i]];
  return building_.nearest_room_within(rep.position(),
                                       cfg_.base.coverage_radius_m);
}

std::optional<StationId> ShardedBipsSimulation::db_room(
    std::string_view userid) const {
  const std::size_t i = user_index(userid);
  const Replica& rep = *users_[i].replicas[owner_[i]];
  return server_->locations().piconet_of(rep.client->addr().raw());
}

BipsClient& ShardedBipsSimulation::active_client(std::string_view userid) {
  const std::size_t i = user_index(userid);
  return *users_[i].replicas[owner_[i]]->client;
}

mobility::RandomWaypointAgent& ShardedBipsSimulation::active_agent(
    std::string_view userid) {
  const std::size_t i = user_index(userid);
  return *users_[i].replicas[owner_[i]]->agent;
}

void ShardedBipsSimulation::enable_tracking_metrics(Duration period) {
  BIPS_ASSERT(period > Duration(0));
  sample_period_ = period;
  group_.observe_at(group_.now() + period, [this] { sample_tracking(); });
}

std::vector<std::string> ShardedBipsSimulation::userids() const {
  std::vector<std::string> ids;
  ids.reserve(users_.size());
  for (const User& u : users_) ids.push_back(u.userid);
  return ids;
}

std::vector<net::Address> ShardedBipsSimulation::ingest_addresses() const {
  std::vector<net::Address> out;
  out.reserve(ingests_.size());
  for (const auto& a : ingests_) out.push_back(a->address());
  return out;
}

void ShardedBipsSimulation::merge_zone_ingest(SimTime edge) {
  (void)edge;
  if (ingests_.empty()) return;

  // Collect every zone's window log and replay it through the server in
  // one deterministic total order: (arrival instant, zone index, arrival
  // order within the zone). Each zone's log is already in its shard's
  // event order, which the lookahead contract makes thread-invariant, so
  // the merged order -- and with it every Transition::seq the service
  // stamps -- is byte-identical at every thread count.
  struct Keyed {
    ZoneIngest::Entry e;
    std::size_t zone;
  };
  std::vector<Keyed> merged;
  for (std::size_t k = 0; k < ingests_.size(); ++k) {
    std::vector<ZoneIngest::Entry> log = ingests_[k]->drain();
    merged.reserve(merged.size() + log.size());
    for (ZoneIngest::Entry& e : log) merged.push_back(Keyed{std::move(e), k});
  }
  if (!merged.empty()) {
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Keyed& a, const Keyed& b) {
                       if (a.e.recv_at != b.e.recv_at) {
                         return a.e.recv_at < b.e.recv_at;
                       }
                       return a.zone < b.zone;
                     });
    // One window of deltas back to back: defer the global history trim to
    // the end of the batch (identical final state, one pass).
    server_->locations().begin_merge_batch();
    for (const Keyed& x : merged) server_->ingest_merged(x.e.from, x.e.u);
    server_->locations().end_merge_batch();
  }

  // Mirror server-side control state back out to the agents. Watermark
  // resets (failure-detector expiry) accumulate mid-window on shard 0's
  // worker; fault state (crash/restart/shard crash) is refreshed only when
  // the server's fault generation moved since the last barrier.
  for (const StationId sid : pending_presence_resets_) {
    ingests_[station_shard_[sid]]->reset_station(sid);
  }
  pending_presence_resets_.clear();
  if (server_->fault_generation() != seen_fault_generation_) {
    seen_fault_generation_ = server_->fault_generation();
    const bool crashed = server_->crashed();
    const std::uint32_t epoch = server_->epoch();
    for (auto& a : ingests_) a->set_server_state(crashed, epoch);
    const PartitionedLocationService& svc = server_->locations();
    for (StationId sid = 0; sid < stations_.size(); ++sid) {
      ingests_[station_shard_[sid]]->set_station_refused(
          sid, !svc.zone_available(sid));
    }
  }
}

void ShardedBipsSimulation::on_barrier(SimTime edge) {
  merge_zone_ingest(edge);
  if (barrier_hook_) barrier_hook_(edge);
}

void ShardedBipsSimulation::sample_tracking() {
  group_.observe_at(group_.now() + sample_period_,
                    [this] { sample_tracking(); });
  for (std::size_t i = 0; i < users_.size(); ++i) {
    const Replica& rep = *users_[i].replicas[owner_[i]];
    // BIPS only tracks logged-in users. A user mid-handoff reads as logged
    // out for the one-window blackout, identically at every thread count.
    if (!rep.client->logged_in()) continue;
    const mobility::RoomId truth = building_.nearest_room_within(
        rep.position(), cfg_.base.coverage_radius_m);
    const auto believed =
        server_->locations().piconet_of(rep.client->addr().raw());
    ++tracking_.samples;
    if (truth == mobility::kNoRoom) {
      believed ? ++tracking_.false_present : ++tracking_.agree_absent;
    } else if (!believed) {
      ++tracking_.false_absent;
    } else if (*believed == truth) {
      ++tracking_.correct_room;
    } else {
      ++tracking_.wrong_room;
    }
  }
}

void ShardedBipsSimulation::write_history_csv(std::ostream& os) const {
  core::write_history_csv(os, *server_, building_);
}

}  // namespace bips::core
