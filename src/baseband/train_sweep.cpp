#include "src/baseband/train_sweep.hpp"

#include <bit>
#include <utility>

#include "src/baseband/hopping.hpp"

namespace bips::baseband {

namespace {
/// A responder transmits 625 us after the start of the ID it heard; an FHS
/// lasts 366 us, so the response to the second ID of a TX slot ends
/// 1303.5 us after the slot began. Closing the response listens a hair later
/// keeps that reception alive without bleeding into the following RX slot.
constexpr Duration kResponseListenSpan = Duration::micros(1310);
constexpr Duration kIdAir = Duration::micros(68);
constexpr Duration kCadence = 2 * kSlot;  // one TX slot per two slots

/// IDs the exact path has sent in the first `n` slots of a park by `now`:
/// two per slot, but the last slot's second ID only once its half-slot has
/// struck (a same-instant ID loses to the earlier-scheduled reader or stop).
std::uint64_t ids_by(SimTime parked_at, std::uint64_t n, SimTime now) {
  const SimTime last = parked_at + (n - 1) * kCadence;
  return 2 * n - (last + kHalfSlot < now ? 0 : 1);
}
}  // namespace

TrainSweep::TrainSweep(Device& dev, int train_repetitions, bool switch_trains,
                       PacketHandler on_response)
    : dev_(dev),
      slots_per_train_(static_cast<std::uint64_t>(kTrainTxSlots) *
                       static_cast<std::uint64_t>(train_repetitions)),
      switch_trains_(switch_trains),
      on_response_(std::move(on_response)),
      slot_proc_(dev.sim(), [this] { tx_slot(); }),
      id2_proc_(dev.sim(), [this] { second_id(); }),
      close_procs_{{dev.sim(), [this] { close_pair(0); }},
                   {dev.sim(), [this] { close_pair(1); }}},
      vclock_(dev.sim(), kCadence),
      wake_proc_(dev.sim(), [this] { wake(); }) {
  BIPS_ASSERT(train_repetitions > 0);
}

void TrainSweep::start(std::uint32_t ns, std::uint32_t base,
                       const Packet& id_packet, SimTime at) {
  // Cross-set interference lets a transmission destroy packets on any other
  // hop or namespace, which no per-namespace occupancy index sees.
  const ChannelConfig& cfg = dev_.radio().config();
  exact_ = cfg.exact_slots || cfg.cross_set_interference > 0;
  ns_ = ns;
  base_ = base;
  train_slot_ = 0;
  id_packet_ = id_packet;
  slot_proc_.call_at(at);
}

void TrainSweep::pause() {
  if (vclock_.parked()) retire(dev_.sim().now());
  slot_proc_.cancel();
  id2_proc_.cancel();
}

void TrainSweep::stop() {
  pause();
  wake_proc_.cancel();
  close_procs_[0].cancel();
  close_procs_[1].cancel();
  close_pair(0);
  close_pair(1);
}

void TrainSweep::tx_slot() {
  const SimTime t0 = dev_.sim().now();

  // Virtual-slot park: with no trigger point on the current train's hops
  // that a skipped ID could reach, nothing this (or any following idle)
  // slot of the train transmits can be heard or interfere with anything
  // observable -- skip ahead. The pending close_procs_ of the previous slots
  // keep running: their listens are real and close on their own schedule.
  const HopMask hops = train_hops();
  if (!exact_ && !dev_.radio().occupied(ns_, hops, dev_.position())) {
    vclock_.park(t0);
    occ_sub_ = dev_.radio().subscribe_occupancy(
        ns_, hops, dev_.position(), [this](SimTime) {
          // Fired from inside a triggering registration: only schedule.
          occ_sub_ = kNoOccupancySub;
          wake_proc_.call_at(dev_.sim().now());
        });
    // The next train drums other hops: wake at its first slot, where
    // tx_slot() tests them.
    if (switch_trains_) {
      wake_proc_.call_at(t0 + (slots_per_train_ - train_slot_) * kCadence);
    }
    return;
  }

  // First ID now, second one half-slot later; the response listens open
  // now (before any response can start). Passive: a master's response
  // windows must not hold other masters awake (the responder side covers
  // committed responses with occupancy holds instead).
  second_channel_ = channel_at(0, 1);
  dev_.radio().transmit(&dev_, RfChannel{ns_, channel_at(0, 0)}, id_packet_);
  ++ids_sent_;
  id2_proc_.call_after(kHalfSlot);
  open_pair(0, t0);
  advance(1);
  slot_proc_.call_at(t0 + kCadence);
}

void TrainSweep::second_id() {
  dev_.radio().transmit(&dev_, RfChannel{ns_, second_channel_}, id_packet_);
  ++ids_sent_;
}

void TrainSweep::open_pair(std::uint64_t k, SimTime slot_t) {
  ListenId* pair = open_pairs_[close_rotor_];
  BIPS_ASSERT(pair[0] == kNoListen && pair[1] == kNoListen);
  for (std::uint32_t half = 0; half < 2; ++half) {
    pair[half] = dev_.radio().start_listen_backdated(
        &dev_, RfChannel{ns_, channel_at(k, half)}, slot_t, on_response_,
        ListenKind::kPassive);
  }
  close_procs_[close_rotor_].call_at(slot_t + kResponseListenSpan);
  close_rotor_ ^= 1;
}

void TrainSweep::close_pair(int k) {
  // Skipping closed slots keeps an idle sweep's stop() off the radio, so the
  // destructor is safe whichever of the sweep and its device goes first.
  for (ListenId& id : open_pairs_[k]) {
    if (id != kNoListen) dev_.radio().stop_listen(id);
    id = kNoListen;
  }
}

void TrainSweep::wake() {
  if (!vclock_.parked()) return;
  if (occ_sub_ != kNoOccupancySub) {  // woken by the train switch
    dev_.radio().unsubscribe_occupancy(ns_, occ_sub_);
    occ_sub_ = kNoOccupancySub;
  }
  const SimTime now = dev_.sim().now();
  const SimTime parked_at = vclock_.parked_at();
  const auto wk = vclock_.wake(now);
  const std::uint64_t n = wk.skipped;

  if (n > 0) {
    // At most the last two skipped slots' response windows (span 1310 us <
    // 2 x 1250 us) can still be open: reconstruct them as backdated listens.
    // Their close rotors are free: any real pre-park pair closed within
    // 60 us of the park.
    const SimTime p1 = wk.resume - kCadence;  // last skipped slot (k = n-1)
    const SimTime p2 = p1 - kCadence;
    const bool reopen_p2 = n >= 2 && p2 + kResponseListenSpan > now;
    if (reopen_p2) open_pair(n - 2, p2);
    open_pair(n - 1, p1);  // now <= resume = p1 + 1250 < p1 + span: open
    // The last slot's second ID is replayed for real when its half-slot has
    // not struck yet (somebody can hear it now), so it is not credited.
    const std::uint64_t ids = ids_by(parked_at, n, now);
    if (ids < 2 * n) {
      second_channel_ = channel_at(n - 1, 1);
      id2_proc_.call_at(p1 + kHalfSlot);
    }
    // Only the fully elapsed windows are credited here. The reopened ones
    // have t + span > now, so the lazy mid-park crediting (strictly-closed
    // windows only) never counted them either.
    end_park(now, parked_at, n, ids,
             2 * kResponseListenSpan *
                 static_cast<std::int64_t>(n - (reopen_p2 ? 2 : 1)));
  }
  slot_proc_.call_at(wk.resume);
}

void TrainSweep::retire(SimTime now) {
  const SimTime parked_at = vclock_.parked_at();
  const std::uint64_t n = vclock_.retire(now);
  wake_proc_.cancel();
  if (occ_sub_ != kNoOccupancySub) {
    dev_.radio().unsubscribe_occupancy(ns_, occ_sub_);
    occ_sub_ = kNoOccupancySub;
  }
  if (n == 0) return;
  // The exact path would have drummed n slots before this stop: credit the
  // IDs and the listen time its pairs would have accrued before the stop
  // closed them. Lazy mid-park reads only credited windows already fully
  // closed, each at full span; this figure includes those at full span too.
  const std::uint64_t full = n > 2 ? n - 2 : 0;
  Duration listen = 2 * kResponseListenSpan * static_cast<std::int64_t>(full);
  for (std::uint64_t k = full; k < n; ++k) {
    const Duration open = now - (parked_at + k * kCadence);
    listen += 2 * (open < kResponseListenSpan ? open : kResponseListenSpan);
  }
  end_park(now, parked_at, n, ids_by(parked_at, n, now), listen);
}

void TrainSweep::sync_park() const {
  if (!vclock_.parked()) return;
  const SimTime now = dev_.sim().now();
  const std::uint64_t n = vclock_.elided_before(now);
  if (n == 0) return;
  // The crediting wake()/retire() apply when the park ends, pinned to the
  // exact path's accounting instants: each ID at its transmit, each
  // response window at its close. Only windows *strictly* closed before
  // `now` count (a close event at exactly `now` has not fired yet under
  // FIFO order); still-open windows stay uncredited, matching EnergyMeter's
  // "open listens not yet credited" convention. Monotone in `now`, so
  // repeated reads only ever add the delta since the previous one.
  const std::int64_t fully_closed_span =
      (now - vclock_.parked_at() - kResponseListenSpan).ns();
  std::uint64_t closed =
      fully_closed_span > 0
          ? static_cast<std::uint64_t>(
                (fully_closed_span + kCadence.ns() - 1) / kCadence.ns())
          : 0;
  if (closed > n) closed = n;
  credit(ids_by(vclock_.parked_at(), n, now),
         2 * kResponseListenSpan * static_cast<std::int64_t>(closed));
}

std::uint64_t TrainSweep::train_switches() const {
  if (!switch_trains_ || !vclock_.parked()) return train_switches_;
  // The crossings advance() will add for the slots elided before now.
  return train_switches_ +
         (train_slot_ + vclock_.elided_before(dev_.sim().now())) /
             slots_per_train_;
}

void TrainSweep::end_park(SimTime now, SimTime parked_at, std::uint64_t n,
                          std::uint64_t ids, Duration listen) {
  credit(ids, listen);
  park_ids_ = 0;
  park_listen_ = Duration(0);
  advance(n);
  dev_.sim().obs().tracer.emit(now, obs::TraceKind::kRadioFf,
                               static_cast<std::uint32_t>(dev_.addr().raw()),
                               n, static_cast<std::uint64_t>(
                                      (now - parked_at).ns()));
}

void TrainSweep::credit(std::uint64_t ids, Duration listen) const {
  ids_sent_ += ids - park_ids_;
  dev_.account_tx(kIdAir * static_cast<std::int64_t>(ids - park_ids_));
  dev_.account_listen(listen - park_listen_);
  park_ids_ = ids;
  park_listen_ = listen;
}

std::uint32_t TrainSweep::channel_at(std::uint64_t k,
                                     std::uint32_t half) const {
  const std::uint64_t slot = train_slot_ + k;
  std::uint32_t base = base_;
  if (switch_trains_ && slot >= slots_per_train_ &&
      ((slot / slots_per_train_) & 1) != 0) {
    base += kTrainSize;
  }
  const auto ts = static_cast<std::uint32_t>(slot % kTrainTxSlots);
  return (base + 2 * ts + half) % kChannelsPerSet;
}

HopMask TrainSweep::train_hops() const {
  constexpr HopMask kTrain = (HopMask{1} << kTrainSize) - 1;
  return std::rotl(kTrain, static_cast<int>(base_));
}

void TrainSweep::advance(std::uint64_t n) {
  train_slot_ += n;
  if (train_slot_ < slots_per_train_) return;
  const std::uint64_t crossings = train_slot_ / slots_per_train_;
  train_slot_ %= slots_per_train_;
  if (!switch_trains_) return;
  train_switches_ += crossings;
  if ((crossings & 1) != 0) base_ = (base_ + kTrainSize) % kChannelsPerSet;
}

}  // namespace bips::baseband
