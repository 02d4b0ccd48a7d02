#include "src/baseband/radio.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/assert.hpp"
#include "src/util/log.hpp"

namespace bips::baseband {
namespace {

// Longest on-air packet (FHS/ACL: 366 us) with margin; bounds how far back
// the collision-overlap scan must look in a start-time-ordered bucket.
constexpr Duration kMaxPacketAir = Duration::micros(400);

std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32 |
         static_cast<std::uint32_t>(cy);
}

// ListenId <-> (arena slot, generation), mirroring the event kernel's ids:
// the +1 keeps slot 0 distinct from kNoListen.
ListenId make_listen_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<ListenId>(slot) + 1) << 32 | generation;
}
std::uint32_t listen_slot_of(ListenId id) {
  return static_cast<std::uint32_t>(id >> 32) - 1;
}
std::uint32_t listen_generation_of(ListenId id) {
  return static_cast<std::uint32_t>(id);
}

// Hash combiner (boost-style accumulate + splitmix64 finaliser) for the
// per-reception draw seeds. Quality matters only insofar as nearby inputs
// (consecutive slot times, consecutive addresses) must give uncorrelated
// streams, which the splitmix finaliser guarantees.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

RadioChannel::ChannelState& RadioChannel::channel_state(RfChannel ch) {
  BIPS_ASSERT(ch.index < kChannelIndexSpan);
  if (ch.ns == 0) {
    std::unique_ptr<ChannelState>& slot = inquiry_ch_[ch.index];
    if (!slot) {
      slot = std::make_unique<ChannelState>();
      slot->recent = &inquiry_recent_[ch.index];
    }
    return *slot;
  }
  std::unique_ptr<NsChannels>& block = page_ns_[ch.ns];
  if (!block) block = std::make_unique<NsChannels>();
  std::unique_ptr<ChannelState>& slot = block->ch[ch.index];
  if (!slot) {
    slot = std::make_unique<ChannelState>();
    slot->recent = &block->recent;
  }
  return *slot;
}

std::uint64_t RadioChannel::grid_cell(Vec2 pos) const {
  const double cell = cfg_.grid_cell_m;
  return cell_key(static_cast<std::int32_t>(std::floor(pos.x / cell)),
                  static_cast<std::int32_t>(std::floor(pos.y / cell)));
}

void RadioChannel::transmit(RadioDevice* sender, RfChannel ch, Packet p) {
  BIPS_ASSERT(sender != nullptr);
  BIPS_ASSERT(p.duration() <= kMaxPacketAir);
  note_range(sender);
  const SimTime start = sim_.now();
  const SimTime end = start + p.duration();
  ChannelState& cs = channel_state(ch);
  TxQueue& q = cfg_.cross_set_interference > 0 ? global_recent_ : *cs.recent;
  q.push_back(Transmission{sender, ch, start, end, p});
  c_transmissions_->inc();
  sender->account_tx(p.duration());
  // Deque references are stable under push_back and pop_front, so the
  // delivery event can carry the channel state and element by pointer: no
  // packet copy into the closure and no map probe at delivery time. The
  // element cannot be pruned before its own delivery, not even by a
  // delivery on another hop sharing the queue: the horizon trails `now` by
  // several slots.
  const Transmission* t = &q.back();
  sim_.schedule_at(end, [this, csp = &cs, t] { deliver(*csp, *t); });
}

ListenId RadioChannel::start_listen(RadioDevice* d, RfChannel ch,
                                    PacketHandler handler, ListenKind kind) {
  return start_listen_backdated(d, ch, sim_.now(), std::move(handler), kind);
}

ListenId RadioChannel::start_listen_backdated(RadioDevice* d, RfChannel ch,
                                              SimTime since,
                                              PacketHandler handler,
                                              ListenKind kind) {
  BIPS_ASSERT(d != nullptr);
  BIPS_ASSERT(since <= sim_.now());
  note_range(d);
  std::uint32_t slot;
  if (!lfree_.empty()) {
    slot = lfree_.back();
    lfree_.pop_back();
  } else {
    BIPS_ASSERT_MSG(lslots_.size() < static_cast<std::size_t>(UINT32_MAX) - 1,
                    "listen arena exhausted");
    slot = static_cast<std::uint32_t>(lslots_.size());
    lslots_.emplace_back();
  }
  ChannelState& cs = channel_state(ch);
  ListenSlot& l = lslots_[slot];
  const ListenId id = make_listen_id(slot, l.generation);
  l.device = d;
  l.chan = &cs;
  l.since = since;
  l.handler = std::move(handler);
  l.ns = ch.ns;
  l.kind = kind;

  const CellEntry entry{id, next_listen_seq_++, d, l.since};
  if (cs.grid) {
    l.cell = grid_cell(d->position());
    cs.cells[l.cell].push_back(entry);
  } else {
    // Flat mode never reads the cell, so the position lookup is skipped --
    // the dominant case for the short-lived response listens that churn at
    // tens of thousands per simulated second.
    cs.flat.push_back(entry);
  }
  ++cs.listens;
  if (!cs.grid && cfg_.spatial_grid && cs.listens > cfg_.grid_threshold) {
    migrate_to_grid(cs);
  }
  d->active_listens_.push_back(id);
  // Last, after the listen is fully registered: a fired subscription's
  // callback schedules a wake process at `now`, and by the time it runs the
  // scanner state it is waking for must be visible.
  if (kind == ListenKind::kTriggering) {
    add_trigger(ch.ns, d->position(), SimTime::max(), id);
  }
  return id;
}

void RadioChannel::migrate_to_grid(ChannelState& cs) {
  cs.grid = true;
  for (const CellEntry& e : cs.flat) {
    ListenSlot& l = lslots_[listen_slot_of(e.id)];
    // Index under the *current* position: at least as accurate as the
    // registration-time cell, and the delivery-side range check is exact
    // either way (the grid only culls, it never admits).
    l.cell = grid_cell(l.device->position());
    cs.cells[l.cell].push_back(e);
  }
  cs.flat.clear();
  cs.flat.shrink_to_fit();
}

void RadioChannel::stop_listen(ListenId id) {
  if (id == kNoListen) return;
  const std::uint32_t slot = listen_slot_of(id);
  if (slot >= lslots_.size()) return;
  ListenSlot& l = lslots_[slot];
  // Stale id (already stopped, slot possibly reused): a true no-op.
  if (l.device == nullptr || l.generation != listen_generation_of(id)) return;

  l.device->account_listen(sim_.now() - l.since);
  if (l.kind == ListenKind::kTriggering) remove_trigger(l.ns, id);

  ChannelState& cs = *l.chan;
  std::vector<CellEntry>* entries = cs.grid ? cs.cells.find(l.cell) : &cs.flat;
  BIPS_ASSERT(entries != nullptr);
  const auto pos = std::find_if(entries->begin(), entries->end(),
                                [id](const CellEntry& e) { return e.id == id; });
  BIPS_ASSERT(pos != entries->end());
  *pos = entries->back();  // order is irrelevant: deliver() sorts candidates
  entries->pop_back();
  BIPS_ASSERT(cs.listens > 0);
  --cs.listens;

  std::vector<ListenId>& mine = l.device->active_listens_;
  const auto dpos = std::find(mine.begin(), mine.end(), id);
  BIPS_ASSERT(dpos != mine.end());
  *dpos = mine.back();
  mine.pop_back();

  // Retire the arena slot under a fresh generation. During a delivery the
  // free-list push (and the handler teardown) is deferred: the delivery's
  // candidate snapshot references handlers by slot, so a slot stopped by an
  // earlier candidate's handler must keep its handler until the snapshot is
  // done -- and must not be reused by a start_listen in the meantime.
  ++l.generation;
  l.device = nullptr;
  l.chan = nullptr;
  if (in_delivery_) {
    deferred_free_.push_back(slot);
  } else {
    l.handler = nullptr;
    lfree_.push_back(slot);
  }
}

void RadioChannel::stop_all_listens(RadioDevice* d) {
  while (!d->active_listens_.empty()) stop_listen(d->active_listens_.back());
}

RadioChannel::Occupancy& RadioChannel::occupancy(std::uint32_t ns) {
  if (ns == 0) return inquiry_occ_;
  std::unique_ptr<Occupancy>& block = page_occ_[ns];
  if (!block) block = std::make_unique<Occupancy>();
  return *block;
}

void RadioChannel::add_trigger(std::uint32_t ns, Vec2 pos, SimTime until,
                               ListenId id) {
  Occupancy& o = occupancy(ns);
  o.points.push_back(TriggerPoint{pos, until, id});
  if (o.subs.empty()) return;
  // Fire every subscription the new point satisfies, in subscription order.
  // Stable compaction first, callbacks after: a callback may subscribe
  // again (not these callers, but nothing here should care).
  fired_cbs_.clear();
  const double r = ff_radius();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < o.subs.size(); ++i) {
    if (distance_sq(o.subs[i].pos, pos) <= r * r) {
      fired_cbs_.push_back(std::move(o.subs[i].cb));
    } else {
      if (keep != i) o.subs[keep] = std::move(o.subs[i]);
      ++keep;
    }
  }
  o.subs.resize(keep);
  live_subs_ -= fired_cbs_.size();
  c_occ_wakeups_->inc(fired_cbs_.size());
  const SimTime now = sim_.now();
  for (OccupancyCallback& cb : fired_cbs_) cb(now);
  fired_cbs_.clear();
}

void RadioChannel::remove_trigger(std::uint32_t ns, ListenId id) {
  Occupancy& o = occupancy(ns);
  for (std::size_t i = 0; i < o.points.size(); ++i) {
    if (o.points[i].listen == id) {
      o.points[i] = o.points.back();
      o.points.pop_back();
      return;
    }
  }
  BIPS_ASSERT_MSG(false, "triggering listen without a trigger point");
}

void RadioChannel::occupancy_hold(RfChannel ch, Vec2 pos, SimTime until) {
  add_trigger(ch.ns, pos, until, kNoListen);
}

bool RadioChannel::occupied(std::uint32_t ns, Vec2 pos) {
  Occupancy& o = occupancy(ns);
  const SimTime now = sim_.now();
  const double r = ff_radius();
  bool hit = false;
  for (std::size_t i = 0; i < o.points.size();) {
    // Holds expire lazily; `until` is exclusive (a transmission starting
    // exactly when the held response flight ends cannot overlap it).
    if (o.points[i].until <= now) {
      o.points[i] = o.points.back();
      o.points.pop_back();
      continue;
    }
    if (distance_sq(o.points[i].pos, pos) <= r * r) hit = true;
    ++i;
  }
  return hit;
}

OccupancySubId RadioChannel::subscribe_occupancy(std::uint32_t ns, Vec2 pos,
                                                 OccupancyCallback cb) {
  const OccupancySubId id = next_sub_id_++;
  occupancy(ns).subs.push_back(OccSubscriber{id, pos, std::move(cb)});
  ++live_subs_;
  sub_order_.emplace_back(ns, id);
  // sub_order_ keeps stale entries (fired / cancelled subscriptions) until
  // this occasional compaction; liveness is re-checked on use either way.
  if (sub_order_.size() > 64 && sub_order_.size() > 4 * live_subs_) {
    std::size_t keep = 0;
    for (const auto& [sns, sid] : sub_order_) {
      const auto& subs = occupancy(sns).subs;
      for (const OccSubscriber& s : subs) {
        if (s.id == sid) {
          sub_order_[keep++] = {sns, sid};
          break;
        }
      }
    }
    sub_order_.resize(keep);
  }
  return id;
}

void RadioChannel::unsubscribe_occupancy(std::uint32_t ns, OccupancySubId id) {
  std::vector<OccSubscriber>& subs = occupancy(ns).subs;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].id == id) {
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
      --live_subs_;
      return;
    }
  }
}

void RadioChannel::note_range(const RadioDevice* d) {
  const double r = tx_range(d);
  if (r <= max_range_hw_) return;
  // The park predicate just widened under every parked master: fire every
  // pending subscription (in global subscription order) and let each owner
  // re-evaluate against the new radius. This is a cold path -- it can only
  // happen as many times as there are distinct device ranges.
  max_range_hw_ = r;
  fired_cbs_.clear();
  for (const auto& [sns, sid] : sub_order_) {
    std::vector<OccSubscriber>& subs = occupancy(sns).subs;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (subs[i].id == sid) {
        fired_cbs_.push_back(std::move(subs[i].cb));
        subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  sub_order_.clear();
  live_subs_ -= fired_cbs_.size();
  c_occ_wakeups_->inc(fired_cbs_.size());
  const SimTime now = sim_.now();
  for (OccupancyCallback& cb : fired_cbs_) cb(now);
  fired_cbs_.clear();
}

double RadioChannel::rssi_dbm(double distance_m) {
  return rssi_dbm(distance_m, rng_);
}

double RadioChannel::rssi_dbm(double distance_m, Rng& rng) const {
  const double d = std::max(distance_m, 0.1);
  return -40.0 - 25.0 * std::log10(d) + rng.normal(0.0, cfg_.rssi_sigma_db);
}

double RadioChannel::tx_range(const RadioDevice* tx) const {
  return tx->range_m() > 0 ? tx->range_m() : cfg_.default_range_m;
}

bool RadioChannel::in_range(const RadioDevice* rx, const RadioDevice* tx) const {
  const double range = tx_range(tx);
  return distance_sq(rx->position(), tx->position()) <= range * range;
}

void RadioChannel::prune(TxQueue& q, SimTime now) {
  // Keep transmissions whose interference window could still matter; the
  // longest packet is well under two slots. Entries are start-ordered, so
  // a non-prunable front bounds every later entry to within one air time.
  const SimTime horizon = now - 4 * kSlot;
  while (!q.empty() && q.front().end < horizon) q.pop_front();
}

void RadioChannel::gather_candidates(const ChannelState& cs,
                                     const Transmission& tx) {
  candidate_seqs_.clear();
  candidates_.clear();
  // O(1) early-out: no listen anywhere on this channel (the common case for
  // inquiry/page IDs swept across 32 hops).
  if (cs.listens == 0) return;

  const auto consider = [&](const CellEntry& e) {
    if (e.device == tx.sender) return;
    if (e.since > tx.start) return;  // tuned in mid-packet: missed it
    candidate_seqs_.push_back(
        OrderKey{e.since, e.device->addr().raw(), e.seq, listen_slot_of(e.id)});
  };

  if (cs.grid) {
    const Vec2 c = tx.sender->position();
    const double reach = tx_range(tx.sender) + cfg_.grid_slack_m;
    const double cell = cfg_.grid_cell_m;
    const auto x0 = static_cast<std::int32_t>(std::floor((c.x - reach) / cell));
    const auto x1 = static_cast<std::int32_t>(std::floor((c.x + reach) / cell));
    const auto y0 = static_cast<std::int32_t>(std::floor((c.y - reach) / cell));
    const auto y1 = static_cast<std::int32_t>(std::floor((c.y + reach) / cell));
    for (std::int32_t cx = x0; cx <= x1; ++cx) {
      for (std::int32_t cy = y0; cy <= y1; ++cy) {
        const std::vector<CellEntry>* entries =
            cs.cells.find(cell_key(cx, cy));
        if (entries == nullptr) continue;
        for (const CellEntry& e : *entries) consider(e);
      }
    }
  } else {
    for (const CellEntry& e : cs.flat) consider(e);
  }

  // (since, addr, seq) order: deterministic, identical between the flat and
  // grid paths, independent of hash iteration order, arena slot reuse, and
  // -- via the address tie-break -- of how same-instant registrations by
  // different devices interleaved; the `since` component slots backdated
  // reconstructed listens exactly where their exact-mode twins would have
  // sorted (see OrderKey in radio.hpp).
  std::sort(candidate_seqs_.begin(), candidate_seqs_.end());
  candidates_.reserve(candidate_seqs_.size());
  for (const OrderKey& k : candidate_seqs_) {
    candidates_.push_back(Candidate{lslots_[k.slot].device, k.slot});
  }
}

void RadioChannel::deliver(ChannelState& cs, const Transmission& tx) {
  TxQueue& q = cfg_.cross_set_interference > 0 ? global_recent_ : *cs.recent;
  prune(q, sim_.now());  // cannot evict `tx` itself: tx.end == now

  // Snapshot matching listeners first: on_packet may start/stop listens.
  gather_candidates(cs, tx);
  if (candidates_.empty()) return;
  in_delivery_ = true;

  // Overlap window in the start-ordered bucket: anything that began more
  // than one air time before tx already ended, anything at tx.end or later
  // began after it ended. Indices, not iterators: a candidate's handler may
  // transmit() synchronously, and deque::push_back invalidates iterators
  // (appends at the back never enter the window -- they start at tx.end).
  const std::size_t first_idx = static_cast<std::size_t>(
      std::lower_bound(q.begin(), q.end(), tx.start - kMaxPacketAir,
                       [](const Transmission& t, SimTime s) {
                         return t.start < s;
                       }) -
      q.begin());

  for (const Candidate& c : candidates_) {
    if (!in_range(c.device, tx.sender)) {
      c_out_of_range_->inc();
      continue;
    }
    // All randomness below (cross-set clash, packet error, RSSI shadowing)
    // comes from hash-derived streams keyed by the identity of the
    // (transmission, receiver) pair rather than from the shared generator:
    // whether some *other* reception happened -- in particular a junk ID
    // landing in a response listen a fast-forwarding master never opened --
    // must not shift anyone else's draws. That keying is what makes the
    // exact and virtual slot modes byte-identical (DESIGN.md section 5c).
    const std::uint64_t rxseed = mix64(
        mix64(mix64(mix64(draw_seed_, static_cast<std::uint64_t>(tx.start.ns())),
                    tx.sender->addr().raw()),
              c.device->addr().raw()),
        static_cast<std::uint64_t>(tx.ch.ns) << 32 | tx.ch.index);
    Rng rxr(rxseed);
    // Interference check: any other overlapping in-range transmission on
    // the same channel destroys the packet (BlueHoc collision rule).
    bool destroyed = false;
    const double d_signal = distance(c.device->position(),
                                     tx.sender->position());
    for (std::size_t i = first_idx; i < q.size() && q[i].start < tx.end; ++i) {
      const Transmission& other = q[i];
      if (other.sender == tx.sender && other.start == tx.start &&
          other.ch == tx.ch) {
        continue;  // the packet itself
      }
      const bool same_channel = other.ch == tx.ch;
      if (!same_channel && cfg_.cross_set_interference <= 0) continue;
      if (other.end <= tx.start || other.start >= tx.end) continue;
      if (!in_range(c.device, other.sender)) continue;
      if (!same_channel) {
        // Different hop sets: they only clash if both hops landed on the
        // same physical ISM frequency this time. Keyed additionally by the
        // interferer so each overlapping pair rolls independently.
        Rng ir(mix64(mix64(rxseed,
                           static_cast<std::uint64_t>(other.start.ns())),
                     other.sender->addr().raw()));
        if (!ir.chance(cfg_.cross_set_interference)) continue;
      }
      if (cfg_.capture) {
        const double d_interf =
            distance(c.device->position(), other.sender->position());
        if (d_signal * cfg_.capture_ratio <= d_interf) continue;  // captured
      }
      destroyed = true;
      break;
    }
    if (destroyed) {
      c_collisions_->inc();
      continue;
    }
    double per = cfg_.packet_error_rate;
    if (cfg_.per_at_edge > 0) {
      const double range = tx_range(tx.sender);
      const double frac = range > 0 ? d_signal / range : 1.0;
      per += cfg_.per_at_edge * std::pow(frac, cfg_.per_exponent);
    }
    if (per > 0 && rxr.chance(per)) {
      c_dropped_per_->inc();
      continue;
    }
    c_deliveries_->inc();
    Packet delivered = tx.packet;
    delivered.rssi_dbm = rssi_dbm(d_signal, rxr);
    // Copied, not referenced: the handler body may start listens, and arena
    // growth would move a std::function we are standing inside. Deliveries
    // are rare (most candidates fail the range check first), so this copy
    // is off the hot path.
    PacketHandler handler = lslots_[c.slot].handler;
    if (handler) {
      handler(delivered, tx.ch, tx.end);
    } else {
      c.device->on_packet(delivered, tx.ch, tx.end);
    }
  }

  in_delivery_ = false;
  for (const std::uint32_t slot : deferred_free_) {
    lslots_[slot].handler = nullptr;
    lfree_.push_back(slot);
  }
  deferred_free_.clear();
}

}  // namespace bips::baseband
