// The ID-train sweep both master discovery procedures drum.
//
// Inquiry and paging sweep the same pattern: on every even slot the master
// transmits two 68 us ID packets on consecutive channels of a 16-hop train
// (one per 312.5 us half-slot) and listens for responses on the two
// channels it just transmitted on (the response sets map one-to-one onto
// the ID sets; see inquiry_response_channel). After `train_repetitions`
// sweeps of a train it moves to the other 16 channels, if configured to.
// Inquirer drums the GIAC ID on namespace 0; Pager drums the target's
// addressed ID on the target's page namespace; each keeps only its own
// response handling.
//
// Phase: half h of TX slot ts is channel (base + 2*ts + h) mod 32, and a
// train switch adds 16 to base. For base 0 or 16 that is
// inquiry_tx_channel(); the pager's base is the train centred on the
// target's predicted scan channel.
//
// Virtual slots: unless ChannelConfig::exact_slots is set (or cross-set
// interference is on, which lets a skipped ID act on any hop), a sweep
// whose skipped IDs could reach no trigger point on the current train's 16
// hops (RadioChannel::occupied) parks on a VirtualClock and subscribes for
// occupancy with that hop mask. A park that would cross a train switch also
// wakes at the next train's first slot, where tx_slot() tests the new
// train's hops. On wake it advances the phase closed-form, credits the
// skipped IDs and response windows to the statistics and energy ledgers,
// reconstructs the (at most two) response-listen pairs still open as
// backdated listens, and replays the last skipped slot's second ID if its
// half-slot is still in the future. A park that ends without a wake (stop,
// pause) credits what the exact path would have drummed before it; a
// mid-park ids_sent() or train_switches() read counts it lazily. DESIGN.md
// section 5c derives why this is byte-equivalent to drumming every slot.
#pragma once

#include <cstdint>

#include "src/baseband/device.hpp"
#include "src/baseband/radio.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/virtual_clock.hpp"

namespace bips::baseband {

class TrainSweep {
 public:
  /// `on_response` receives every packet heard in a response window.
  TrainSweep(Device& dev, int train_repetitions, bool switch_trains,
             PacketHandler on_response);
  ~TrainSweep() { stop(); }
  TrainSweep(const TrainSweep&) = delete;
  TrainSweep& operator=(const TrainSweep&) = delete;

  /// Starts drumming `id_packet` on namespace `ns` from the train whose
  /// first index is `base`, with the first TX slot at `at` (an even slot
  /// boundary of the device's clock).
  void start(std::uint32_t ns, std::uint32_t base, const Packet& id_packet,
             SimTime at);
  /// Ends the sweep now: events cancelled, response listens closed.
  void stop();
  /// Freezes the sweep at its current phase. Open response listens close on
  /// their own schedule.
  void pause();
  /// Continues a paused sweep at `at` (an even slot boundary).
  void resume(SimTime at) { slot_proc_.call_at(at); }

  /// IDs sent over the sweep's life. Mode-invariant: while parked, the IDs
  /// the exact path would have sent by now are credited lazily, and so is
  /// the energy of the elided TX and response-window time.
  std::uint64_t ids_sent() const {
    sync_park();
    return ids_sent_;
  }
  /// Train switches over the sweep's life. Mode-invariant like ids_sent():
  /// while parked, the switches of the slots the exact path would have
  /// drummed by now are counted lazily.
  std::uint64_t train_switches() const;

 private:
  void tx_slot();
  void second_id();
  /// Opens the response pair of the TX slot `k` slots after the current
  /// phase, which began at `slot_t` (<= now).
  void open_pair(std::uint64_t k, SimTime slot_t);
  void close_pair(int k);
  void wake();
  /// Ends a park with no resume slot, crediting what the exact path would
  /// have drummed before `now`.
  void retire(SimTime now);
  /// Credits the current park's IDs and response windows up to now without
  /// ending it.
  void sync_park() const;
  /// Brings the current park's credit to `ids` IDs and `listen` of response
  /// windows; the ledgers receive the difference from the last credit.
  void credit(std::uint64_t ids, Duration listen) const;
  /// Channel index of half `half` of the TX slot `k` slots after the
  /// current phase.
  std::uint32_t channel_at(std::uint64_t k, std::uint32_t half) const;
  /// The 16 hops of the current train, as an occupancy hop mask.
  HopMask train_hops() const;
  /// Advances the phase by `n` TX slots.
  void advance(std::uint64_t n);
  /// Ends the park's crediting at `ids` IDs and `listen` of response
  /// windows, and advances the phase past its `n` slots.
  void end_park(SimTime now, SimTime parked_at, std::uint64_t n,
                std::uint64_t ids, Duration listen);

  Device& dev_;
  std::uint64_t slots_per_train_;
  bool switch_trains_;
  PacketHandler on_response_;

  // Drums every slot: ChannelConfig::exact_slots, or cross-set
  // interference on; snapshotted at start().
  bool exact_ = true;
  std::uint32_t ns_ = 0;
  std::uint32_t base_ = 0;         // first index of the current train
  std::uint64_t train_slot_ = 0;  // TX slots into the current train
  // Fixed per-sweep state the processes read instead of capturing: the ID
  // packet and the channel of the half-slot-delayed second ID. Every even
  // slot re-arms the same three process bodies with no per-slot closure.
  Packet id_packet_;
  std::uint32_t second_channel_ = 0;
  sim::Process slot_proc_;
  sim::Process id2_proc_;
  // Response listens of consecutive TX slots overlap by ~60 us, so up to
  // two close processes are pending at once; they (and the listen pairs
  // they close) rotate through these two.
  sim::Process close_procs_[2];
  ListenId open_pairs_[2][2] = {{kNoListen, kNoListen},
                                {kNoListen, kNoListen}};
  int close_rotor_ = 0;
  // Fast-forward state: the parked cadence (one activation per two slots),
  // the wake process (armed by the occupancy callback, which may only
  // schedule, and at the next train's first slot), and the pending
  // subscription, if any.
  sim::VirtualClock vclock_;
  sim::Process wake_proc_;
  OccupancySubId occ_sub_ = kNoOccupancySub;
  std::uint64_t train_switches_ = 0;
  // Mutable for sync_park(): a const ids_sent() read mid-park credits the
  // elided IDs lazily. The park_* fields are what the current park has
  // already credited (IDs, and with them 68 us of TX each; response-window
  // listen time), reset to zero when the park ends.
  mutable std::uint64_t ids_sent_ = 0;
  mutable std::uint64_t park_ids_ = 0;
  mutable Duration park_listen_;
};

}  // namespace bips::baseband
