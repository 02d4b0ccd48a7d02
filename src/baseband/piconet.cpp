#include "src/baseband/piconet.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/log.hpp"

namespace bips::baseband {

namespace {

/// Fragment framing: [u16 msg_id][u16 index][u16 total][payload bytes],
/// little-endian. Total message size is capped at 65535 fragments.
constexpr std::size_t kFragHeader = 6;

void put_u16(AclPayload& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const AclPayload& in, std::size_t pos) {
  return static_cast<std::uint16_t>(in[pos] |
                                    (static_cast<std::uint16_t>(in[pos + 1])
                                     << 8));
}

/// Appends the fragments of message `msg_id` to `q`.
void fragment(std::uint16_t msg_id, const AclPayload& p,
              std::size_t max_payload, AclQueue& q) {
  BIPS_ASSERT(max_payload > 0);
  const std::size_t total =
      p.empty() ? 1 : (p.size() + max_payload - 1) / max_payload;
  BIPS_ASSERT_MSG(total <= 0xFFFF, "ACL message too large to fragment");
  for (std::size_t i = 0; i < total; ++i) {
    AclPayload f;
    const std::size_t lo = i * max_payload;
    const std::size_t hi = std::min(p.size(), lo + max_payload);
    f.reserve(kFragHeader + (hi - lo));
    put_u16(f, msg_id);
    put_u16(f, static_cast<std::uint16_t>(i));
    put_u16(f, static_cast<std::uint16_t>(total));
    f.insert(f.end(), p.begin() + static_cast<std::ptrdiff_t>(lo),
             p.begin() + static_cast<std::ptrdiff_t>(hi));
    q.push_back(std::move(f));
  }
}

}  // namespace

std::optional<AclPayload> PiconetMaster::Reassembler::push(
    const AclPayload& fragment) {
  BIPS_ASSERT_MSG(fragment.size() >= kFragHeader, "malformed ACL fragment");
  const std::uint16_t id = get_u16(fragment, 0);
  const std::uint16_t index = get_u16(fragment, 2);
  const std::uint16_t total = get_u16(fragment, 4);
  if (index == 0) {
    msg_id_ = id;
    next_index_ = 0;
    total_ = total;
    buf_.clear();
  }
  // The link is reliable and in-order; anything else is a logic error.
  BIPS_ASSERT_MSG(id == msg_id_ && index == next_index_ && total == total_,
                  "ACL fragment sequencing violated");
  buf_.insert(buf_.end(), fragment.begin() + kFragHeader, fragment.end());
  ++next_index_;
  if (next_index_ < total_) return std::nullopt;
  next_index_ = 0;
  total_ = 0;
  return std::move(buf_);
}

BdAddr SlaveLink::master_addr() const {
  return master_ != nullptr ? master_->device().addr() : BdAddr();
}

bool SlaveLink::parked() const {
  return master_ != nullptr && master_->is_parked(dev_.addr());
}

bool SlaveLink::send_to_master(AclPayload payload) {
  if (master_ == nullptr) return false;
  fragment(next_msg_id_++, payload, master_->config().max_fragment_payload,
           tx_queue_);
  master_->wake_polls();
  return true;
}

SlaveLink::~SlaveLink() {
  // Destroyed while still attached: erase this link from the master's
  // roster, or the master would later write through the dangling pointer
  // (poll loop, or its own destructor severing back-pointers).
  if (master_ == nullptr) return;
  const auto it = master_->slaves_.find(dev_.addr());
  if (it != master_->slaves_.end() && it->second.position_listener >= 0) {
    dev_.remove_position_listener(it->second.position_listener);
  }
  master_->slaves_.erase(dev_.addr());
  if (master_->slaves_.empty()) {
    // The exact path polled until this instant: settle the quiescent
    // credit (and any pending deadline wake) before stopping for good.
    if (master_->quiesced_) {
      master_->settle_quiesce(PiconetMaster::kWakeDetach);
    }
    master_->poll_timer_.stop();
  }
}

PiconetMaster::PiconetMaster(Device& dev, Config cfg)
    : dev_(dev),
      cfg_(cfg),
      poll_timer_(dev.sim(), cfg.poll_interval, [this] { poll_round(); }),
      wake_proc_(dev.sim(), [this] { deadline_wake(); }),
      deadlines_(dev.sim(), "piconet",
                 {"supervision", "range", "traffic", "attach", "detach",
                  "position", "pause"}),
      c_elided_polls_(
          &dev.sim().obs().metrics.counter("piconet.elided_polls")),
      c_skipped_slots_(
          &dev.sim().obs().metrics.counter("kernel.skipped_slots")),
      c_quiesce_parks_(
          &dev.sim().obs().metrics.counter("piconet.quiesce_parks")) {
  BIPS_ASSERT(cfg_.max_active_slaves >= 1 && cfg_.max_active_slaves <= 7);
  BIPS_ASSERT(cfg_.poll_interval > Duration(0));
  // A discrete write to the *master's* position also invalidates every
  // speed-bound horizon of a supervised park.
  position_listener_ =
      dev_.add_position_listener([this] { on_position_write(); });
}

PiconetMaster::~PiconetMaster() {
  dev_.remove_position_listener(position_listener_);
  // Sever back-pointers so SlaveLinks outliving this master do not dangle.
  for (auto& [addr, s] : slaves_) {
    if (s.position_listener >= 0) {
      s.link->dev_.remove_position_listener(s.position_listener);
    }
    s.link->master_ = nullptr;
  }
}

bool PiconetMaster::attach(SlaveLink& slave) {
  const BdAddr a = slave.dev_.addr();
  if (slaves_.count(a) != 0) return false;
  if (static_cast<int>(active_count()) >= cfg_.max_active_slaves) {
    ++stats_.attach_rejected_full;
    return false;
  }
  BIPS_ASSERT_MSG(slave.master_ == nullptr,
                  "slave already attached to another piconet");
  // A supervised park cannot absorb a membership change: the newcomer's
  // supervision clock starts now and the scheduled deadline knows nothing
  // about it. Settle before inserting, so last_reachable reconstruction
  // only touches the slaves the park actually covered. (With supervision
  // off the no-op rounds stay elided on the same lattice -- a fresh slave
  // has no pending traffic.)
  if (quiesced_ && cfg_.supervision_timeout > Duration(0)) {
    wake_polls(kWakeAttach);
  }
  slave.master_ = this;
  const SimTime now = dev_.sim().now();
  SlaveState st;
  st.link = &slave;
  st.last_reachable = now;
  st.last_activity = now;
  st.position_listener =
      slave.dev_.add_position_listener([this] { on_position_write(); });
  slaves_.emplace(a, std::move(st));
  // While quiesced the loop is logically running (the no-op rounds stay
  // elided on the same lattice).
  if (!poll_timer_.running() && !paused_ && !quiesced_) poll_timer_.start();
  return true;
}

std::size_t PiconetMaster::active_count() const {
  std::size_t n = 0;
  for (const auto& [a, s] : slaves_) {
    if (!s.parked) ++n;
  }
  return n;
}

bool PiconetMaster::is_parked(BdAddr a) const {
  const auto it = slaves_.find(a);
  return it != slaves_.end() && it->second.parked;
}

bool PiconetMaster::park(BdAddr a) {
  const auto it = slaves_.find(a);
  if (it == slaves_.end() || it->second.parked) return false;
  if (static_cast<int>(parked_count()) >= cfg_.max_parked_slaves) {
    return false;
  }
  it->second.parked = true;
  ++stats_.parks;
  return true;
}

bool PiconetMaster::unpark(BdAddr a) {
  const auto it = slaves_.find(a);
  if (it == slaves_.end() || !it->second.parked) return false;
  if (static_cast<int>(active_count()) >= cfg_.max_active_slaves) {
    return false;
  }
  it->second.parked = false;
  it->second.last_activity = dev_.sim().now();
  ++stats_.unparks;
  return true;
}

BdAddr PiconetMaster::park_idlest(BdAddr except) {
  BdAddr victim;
  SimTime oldest = SimTime::max();
  for (const auto& [a, s] : slaves_) {
    if (s.parked || a == except) continue;
    // Never park a slave with traffic in flight.
    if (!s.tx_queue.empty() || !s.link->tx_queue_.empty()) continue;
    if (s.last_activity < oldest) {
      oldest = s.last_activity;
      victim = a;
    }
  }
  if (!victim.is_null()) park(victim);
  return victim;
}

void PiconetMaster::detach(BdAddr addr) {
  const auto it = slaves_.find(addr);
  if (it == slaves_.end()) return;
  SlaveLink* link = it->second.link;
  if (it->second.position_listener >= 0) {
    link->dev_.remove_position_listener(it->second.position_listener);
  }
  slaves_.erase(it);
  link->master_ = nullptr;
  link->tx_queue_.clear();
  if (link->on_disconnected_) link->on_disconnected_();
  if (slaves_.empty()) {
    // With members remaining a park stays valid (the departed slave's
    // deadline can only have been early -- an early wake is always safe);
    // an emptied roster settles the credit and stops for good.
    if (quiesced_) settle_quiesce(kWakeDetach);
    poll_timer_.stop();
  }
}

std::vector<BdAddr> PiconetMaster::slave_addrs() const {
  std::vector<BdAddr> out;
  out.reserve(slaves_.size());
  for (const auto& [a, s] : slaves_) out.push_back(a);
  return out;
}

bool PiconetMaster::send(BdAddr to, AclPayload payload) {
  const auto it = slaves_.find(to);
  if (it == slaves_.end()) return false;
  fragment(it->second.next_msg_id++, payload, cfg_.max_fragment_payload,
           it->second.tx_queue);
  wake_polls();
  return true;
}

void PiconetMaster::pause() {
  // The exact path keeps polling right up to the pause: settle any
  // quiescent credit (including last_reachable reconstruction) before
  // freezing.
  if (quiesced_) settle_quiesce(kWakePause);
  paused_ = true;
  poll_timer_.stop();
}

void PiconetMaster::wake_polls(WakeReason reason) {
  if (!quiesced_) return;
  settle_quiesce(reason);
  // First fire = the next round of the exact path's lattice. (Never in the
  // past: sync_poll_stat leaves quiesce_round_ <= now < round + interval.)
  poll_timer_.start_after(quiesce_round_ + cfg_.poll_interval -
                          dev_.sim().now());
}

void PiconetMaster::sync_poll_stat() const {
  if (!quiesced_) return;
  const auto k = static_cast<std::int64_t>(
      (dev_.sim().now() - quiesce_round_).ns() / cfg_.poll_interval.ns());
  if (k <= 0) return;
  stats_.polls += static_cast<std::uint64_t>(k);
  quiesce_round_ = quiesce_round_ + k * cfg_.poll_interval;
  c_elided_polls_->inc(static_cast<std::uint64_t>(k));
  c_skipped_slots_->inc(static_cast<std::uint64_t>(k));
}

void PiconetMaster::settle_quiesce(WakeReason reason) {
  BIPS_ASSERT(quiesced_);
  sync_poll_stat();  // advances quiesce_round_ to the last elided round
  // Every elided round provably found the ff_in_range-flagged slaves in
  // range (a supervised park never outlives a range horizon), so the exact
  // path would have refreshed them at each: reconstruct the final refresh.
  // Out-of-range slaves were provably out the whole time -- untouched.
  if (cfg_.supervision_timeout > Duration(0)) {
    for (auto& [a, s] : slaves_) {
      if (s.ff_in_range && s.last_reachable < quiesce_round_) {
        s.last_reachable = quiesce_round_;
      }
    }
  }
  quiesced_ = false;
  wake_proc_.cancel();
  deadlines_.record(reason);
  const std::uint64_t elided = static_cast<std::uint64_t>(
      (quiesce_round_ - park_started_) / cfg_.poll_interval);
  if (elided > 0) {
    dev_.sim().obs().tracer.emit(
        dev_.sim().now(), obs::TraceKind::kRadioFf,
        static_cast<std::uint32_t>(dev_.addr().raw()), elided,
        static_cast<std::uint64_t>((dev_.sim().now() - park_started_).ns()));
  }
}

void PiconetMaster::deadline_wake() {
  // Scheduled end of a supervised park, one poll interval *early*: the
  // round at the wake instant is still a provable no-op (it is credited by
  // the settle), and restarting the periodic timer here puts its first
  // real fire exactly at the earliest not-provably-no-op round -- with the
  // same arming instant the exact path's previous round would have used,
  // so same-instant FIFO ordering is preserved.
  if (quiesced_) {
    wake_polls(static_cast<WakeReason>(deadlines_.earliest_reason()));
  }
}

void PiconetMaster::on_position_write() {
  // A discrete position write (teleport) invalidates every speed-bound
  // horizon: end the park and let real rounds re-check ranges. Parks with
  // supervision off have no range duty and stay parked.
  if (quiesced_ && cfg_.supervision_timeout > Duration(0)) {
    wake_polls(kWakePosition);
  }
}

void PiconetMaster::resume() {
  paused_ = false;
  // A quiesced loop is logically running: restarting the timer would drum
  // real rounds against the lazy credit and double-count. (Reachable via a
  // scheduler stop() while the piconet is parked.)
  if (!slaves_.empty() && !quiesced_) poll_timer_.start();
}

double PiconetMaster::range_m() const {
  return dev_.range_m() > 0 ? dev_.range_m()
                            : dev_.radio().config().default_range_m;
}

bool PiconetMaster::slave_in_range(const SlaveState& s) const {
  const double range = range_m();
  return distance_sq(dev_.position(), s.link->dev_.position()) <=
         range * range;
}

void PiconetMaster::maybe_quiesce(SimTime now) {
  if (dev_.radio().config().exact_slots || !poll_timer_.running()) return;
  if (paused_ || quiesced_ || slaves_.empty()) return;
  for (const auto& [a, s] : slaves_) {
    if (!s.tx_queue.empty() || !s.link->tx_queue_.empty()) return;
  }

  if (cfg_.supervision_timeout == Duration(0)) {
    // Supervision off: every drained round is a no-op forever. Park with
    // no deadline; traffic, membership changes, or a pause settle it.
    quiesced_ = true;
    quiesce_round_ = now;
    park_started_ = now;
    poll_timer_.stop();
    deadlines_.reset();
    c_quiesce_parks_->inc();
    return;
  }
  if (cfg_.ff_max_speed_mps <= 0) return;

  // Supervised: a drained round's remaining duty is the per-slave range
  // check. The round at now + k*interval is a provable no-op while the
  // speed bound pins every slave's check outcome; `closing` assumes both
  // endpoints move straight at each other (or apart) at full speed.
  const double closing = 2.0 * cfg_.ff_max_speed_mps;
  const double range = range_m();
  const std::int64_t interval = cfg_.poll_interval.ns();
  const double round_reach = closing * static_cast<double>(interval) * 1e-9;
  deadlines_.reset();
  for (auto& [a, s] : slaves_) {
    const double d =
        std::sqrt(distance_sq(dev_.position(), s.link->dev_.position()));
    if (d <= range) {
      // In range through every round with k*round_reach <= range - d (the
      // refreshes it elides are reconstructed at settle); first round that
      // could have left range:
      s.ff_in_range = true;
      const std::int64_t k =
          static_cast<std::int64_t>((range - d) / round_reach) + 1;
      deadlines_.propose(kWakeRange, now + Duration::nanos(k * interval));
    } else {
      // Out of range through every round with k*round_reach < d - range
      // (those rounds elide nothing -- no refresh, and by construction no
      // disconnect); first round that could have re-entered:
      s.ff_in_range = false;
      std::int64_t k_in =
          static_cast<std::int64_t>(std::ceil((d - range) / round_reach));
      if (k_in < 1) k_in = 1;
      deadlines_.propose(kWakeRange, now + Duration::nanos(k_in * interval));
      // ...and, independently, the first round at which the supervision
      // deadline fires. The round that just ran did not disconnect it, so
      // the remaining need is positive.
      const std::int64_t need =
          (s.last_reachable + cfg_.supervision_timeout - now).ns();
      BIPS_ASSERT(need > 0);
      const std::int64_t k_d = (need + interval - 1) / interval;
      deadlines_.propose(kWakeSupervision,
                         now + Duration::nanos(k_d * interval));
    }
  }
  if (!deadlines_.pending()) return;

  // Park only when at least one round is actually elided: the deadline
  // wake lands one interval before the earliest unsafe round W (see
  // deadline_wake), so parking pays only for W >= now + 2 intervals.
  const SimTime unsafe = deadlines_.earliest();
  if (unsafe - now < 2 * cfg_.poll_interval) return;
  quiesced_ = true;
  quiesce_round_ = now;
  park_started_ = now;
  poll_timer_.stop();
  wake_proc_.call_at(unsafe - cfg_.poll_interval);
  c_quiesce_parks_->inc();
}

void PiconetMaster::poll_round() {
  ++stats_.polls;
  const SimTime now = dev_.sim().now();

  // Message callbacks may attach/detach slaves, so walk a snapshot of the
  // membership and re-look-up each slave.
  std::vector<BdAddr> lost;
  poll_snapshot_.clear();
  poll_snapshot_.reserve(slaves_.size());
  for (const auto& [a, s] : slaves_) poll_snapshot_.push_back(a);
  for (const BdAddr addr : poll_snapshot_) {
    const auto it = slaves_.find(addr);
    if (it == slaves_.end()) continue;  // detached by an earlier callback
    SlaveState& s = it->second;
    if (slave_in_range(s)) {
      s.last_reachable = now;
    } else {
      if (cfg_.supervision_timeout > Duration(0) &&
          now - s.last_reachable >= cfg_.supervision_timeout) {
        lost.push_back(addr);
      }
      continue;  // unreachable: traffic waits
    }

    if (s.parked) {
      // Parked slaves exchange no data; pending traffic in either
      // direction requests an unpark at the beacon (this poll round).
      const bool wants_traffic =
          !s.tx_queue.empty() || !s.link->tx_queue_.empty();
      if (!wants_traffic) continue;
      if (!unpark(addr)) {
        // No AM_ADDR free: rotate out a drained active slave so waiters
        // cycle through the active set across beacon rounds.
        if (park_idlest(addr).is_null()) continue;
        if (!unpark(addr)) continue;
      }
    }
    s.last_activity =
        (!s.tx_queue.empty() || !s.link->tx_queue_.empty()) ? now
                                                            : s.last_activity;

    // Exchange queued traffic: up to fragments_per_poll DM5 pieces per
    // direction per round (the slot budget of the poll), reassembled into
    // messages at the far end.
    for (int k = 0; k < cfg_.fragments_per_poll &&
                    slaves_.count(addr) != 0 && !s.tx_queue.empty();
         ++k) {
      AclPayload f = std::move(s.tx_queue.front());
      s.tx_queue.pop_front();
      ++stats_.fragments_delivered;
      if (auto msg = s.to_slave.push(f)) {
        ++stats_.messages_delivered;
        if (s.link->on_message_) s.link->on_message_(*msg);
      }
    }
    for (int k = 0; k < cfg_.fragments_per_poll &&
                    slaves_.count(addr) != 0 && !s.link->tx_queue_.empty();
         ++k) {
      AclPayload f = std::move(s.link->tx_queue_.front());
      s.link->tx_queue_.pop_front();
      ++stats_.fragments_delivered;
      if (auto msg = s.from_slave.push(f)) {
        ++stats_.messages_delivered;
        if (on_message_) on_message_(addr, *msg);
      }
    }
  }

  for (BdAddr addr : lost) {
    ++stats_.link_losses;
    BIPS_DEBUG(now, "piconet %s: supervision timeout for %s",
               dev_.addr().to_string().c_str(), addr.to_string().c_str());
    SlaveState& ls = slaves_.at(addr);
    SlaveLink* link = ls.link;
    if (ls.position_listener >= 0) {
      link->dev_.remove_position_listener(ls.position_listener);
    }
    slaves_.erase(addr);
    link->master_ = nullptr;
    link->tx_queue_.clear();
    if (link->on_disconnected_) link->on_disconnected_();
    if (on_link_loss_) on_link_loss_(addr);
  }
  if (slaves_.empty()) {
    poll_timer_.stop();
    return;
  }

  // Quiescent fast-forward: park the poll loop if every round until some
  // future instant is a provable no-op (DESIGN.md section 5c).
  maybe_quiesce(now);
}

}  // namespace bips::baseband
