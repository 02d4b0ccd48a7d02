// Piconet data plane: master-side link manager and slave-side link.
//
// Includes PARK mode: a piconet has at most 7 *active* slaves (the AM_ADDR
// limit) but may hold many more parked ones. A parked slave keeps its clock
// synchronisation by listening to the master's beacon (modelled as the poll
// round) and stays tracked, but exchanges no data until unparked. Traffic
// to or from a parked slave unparks it automatically when an active slot is
// free; park_idlest() frees a slot by parking the active slave that has
// been quiet the longest. This is how a BIPS room serves more than seven
// enrolled users.
//
// Modelling boundary (documented in DESIGN.md): once a connection is
// established, master and slave hop a channel sequence derived from the
// master's clock, which makes intra-piconet traffic collision-free and
// cross-piconet interference rare. The paper's measurements concern the
// *inquiry/page* phases only, so the connection-state data plane is modelled
// at message granularity instead of slot granularity: the master polls its
// active slaves every poll interval and queued messages ride the next poll.
// Radio range still applies -- a slave that walks out of range trips the
// supervision timeout and both sides observe a link loss, which is how a
// BIPS workstation detects departures between inquiry rounds.
//
// Supervised quiesce (DESIGN.md section 5c): unless ChannelConfig::
// exact_slots is set, a master whose poll rounds are provable no-ops (all
// queues drained, and every slave's range-check outcome pinned by a speed
// bound over the park horizon) stops the poll timer and advances the
// supervision clock arithmetically -- it parks until the earliest instant
// at which a round could do observable work (a supervision deadline firing
// or a slave crossing the range boundary), and wakes early for traffic,
// membership changes, discrete position writes, or a pause. On wake the
// elided rounds are credited closed-form (stats_.polls, piconet.elided_polls,
// kernel.skipped_slots) and per-slave last_reachable is reconstructed to
// the last elided round, so every observable -- including the simulated
// instant of a supervision disconnect -- is byte-identical to the exact
// slot-by-slot path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/baseband/config.hpp"
#include "src/baseband/device.hpp"
#include "src/sim/virtual_clock.hpp"
#include "src/util/fifo.hpp"

namespace bips::baseband {

/// Opaque application payload carried over an ACL link.
using AclPayload = std::vector<std::uint8_t>;
/// DM5-sized fragments awaiting the poll loop. Every handheld's link and
/// every live connection keeps one, mostly empty: no heap while empty.
using AclQueue = Fifo<AclPayload>;

class PiconetMaster;

/// Slave side of an ACL connection.
class SlaveLink {
 public:
  using MessageCallback = std::function<void(const AclPayload&)>;
  using DisconnectCallback = std::function<void()>;

  explicit SlaveLink(Device& dev) : dev_(dev) {}
  SlaveLink(const SlaveLink&) = delete;
  SlaveLink& operator=(const SlaveLink&) = delete;
  /// Leaves the master's roster quietly (no disconnect callback) so the
  /// master never reaches through a dangling link.
  ~SlaveLink();

  Device& device() { return dev_; }
  bool connected() const { return master_ != nullptr; }
  /// True while the link is in the park state (connected but inactive).
  bool parked() const;
  BdAddr master_addr() const;

  void set_on_message(MessageCallback cb) { on_message_ = std::move(cb); }
  void set_on_disconnected(DisconnectCallback cb) {
    on_disconnected_ = std::move(cb);
  }

  /// Queues a payload for the master; fragmented into DM5-sized pieces that
  /// ride the following polls. Returns false when not connected.
  bool send_to_master(AclPayload payload);

 private:
  friend class PiconetMaster;

  Device& dev_;
  PiconetMaster* master_ = nullptr;
  MessageCallback on_message_;
  DisconnectCallback on_disconnected_;
  std::uint16_t next_msg_id_ = 1;
  AclQueue tx_queue_;  // fragments, drained by the poll loop
};

/// Master side: owns up to 7 active slaves (AM_ADDR limit) and the poll loop.
class PiconetMaster {
 public:
  struct Config {
    int max_active_slaves = 7;
    /// Parked membership cap (spec: up to 255 PM_ADDRs).
    int max_parked_slaves = 255;
    /// One full poll round trip per slave per interval.
    Duration poll_interval = Duration::millis(25);
    /// A slave unreachable (out of range) this long is declared lost
    /// (applies to parked slaves too, via the beacon). Duration(0) disables
    /// supervision entirely; with supervision off the poll loop's only duty
    /// is moving queued traffic, so (unless ChannelConfig::exact_slots) a
    /// fully drained piconet quiesces indefinitely: the timer stops and the
    /// elided no-op rounds are credited closed-form when traffic resumes or
    /// stats are read. An enabled supervision timeout makes range checks
    /// genuine work, so the quiesce is bounded instead: the master parks
    /// only until the earliest round whose outcome the ff_max_speed_mps
    /// horizon cannot pin (see the header comment).
    Duration supervision_timeout = Duration::from_seconds(2.0);
    /// Upper bound on how fast any endpoint of this piconet can move
    /// (m/s); the supervised quiesce uses twice this value as the closing
    /// speed when proving future range-check outcomes. Must dominate the
    /// mobility model (RandomWaypointAgent caps at 1.5 m/s). Discrete
    /// set_position() writes are exempt -- they fire a wake instead. <= 0
    /// disables the supervised quiesce (the T == 0 quiesce is unaffected).
    double ff_max_speed_mps = 2.0;
    /// ACL payloads ride DM5-sized fragments (spec payload: 224 bytes)...
    std::size_t max_fragment_payload = 224;
    /// ...and each poll round moves at most this many fragments per slave
    /// per direction, so a large transfer takes several polls -- the slot
    /// budget a real master would spend on it.
    int fragments_per_poll = 4;
  };

  using MessageCallback =
      std::function<void(BdAddr from, const AclPayload& payload)>;
  using LinkLossCallback = std::function<void(BdAddr slave)>;

  // No default argument for cfg: a nested class's default member
  // initializers are only complete at the end of the enclosing class, so
  // `Config cfg = {}` would be ill-formed here. Pass Config{} explicitly.
  PiconetMaster(Device& dev, Config cfg);
  ~PiconetMaster();
  PiconetMaster(const PiconetMaster&) = delete;
  PiconetMaster& operator=(const PiconetMaster&) = delete;

  void set_on_message(MessageCallback cb) { on_message_ = std::move(cb); }
  void set_on_link_loss(LinkLossCallback cb) { on_link_loss_ = std::move(cb); }

  /// Admits a freshly paged slave. Returns false if the piconet is full or
  /// the slave is already attached.
  bool attach(SlaveLink& slave);
  /// Graceful detach (both sides notified; no link-loss event).
  void detach(BdAddr slave);

  /// Moves an active slave to the park state, freeing its AM_ADDR. False
  /// if unknown, already parked, or the parked set is full.
  bool park(BdAddr slave);
  /// Reactivates a parked slave. False if unknown, not parked, or no
  /// active slot is free.
  bool unpark(BdAddr slave);
  /// Parks the active slave that has exchanged no traffic for the longest
  /// time (never the one in `except`). Returns the parked address, or a
  /// null address if nobody was parkable.
  BdAddr park_idlest(BdAddr except = BdAddr());

  Device& device() { return dev_; }
  const Device& device() const { return dev_; }
  const Config& config() const { return cfg_; }

  bool has_slave(BdAddr a) const { return slaves_.count(a) != 0; }
  bool is_parked(BdAddr a) const;
  std::size_t slave_count() const { return slaves_.size(); }
  std::size_t active_count() const;
  std::size_t parked_count() const { return slave_count() - active_count(); }
  std::vector<BdAddr> slave_addrs() const;

  /// Queues a payload toward a slave; false if not attached.
  bool send(BdAddr to, AclPayload payload);

  /// Suspends the poll loop (the master is dedicating its radio to inquiry;
  /// queued traffic accumulates). resume() restarts it.
  void pause();
  void resume();
  bool paused() const { return paused_; }

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t messages_delivered = 0;   // complete reassembled messages
    std::uint64_t fragments_delivered = 0;  // DM5-sized pieces moved
    std::uint64_t link_losses = 0;
    std::uint64_t attach_rejected_full = 0;
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
  };
  const Stats& stats() const {
    sync_poll_stat();  // fold in rounds elided by a quiescent fast-forward
    return stats_;
  }

 private:
  /// Reassembles a fragment stream back into messages. Fragments arrive
  /// reliably and in order (the link layer guarantees it), so this only
  /// validates sequencing.
  class Reassembler {
   public:
    /// Feeds one fragment; returns the completed message when the last
    /// fragment of a sequence arrives.
    std::optional<AclPayload> push(const AclPayload& fragment);

   private:
    std::uint16_t msg_id_ = 0;
    std::uint16_t next_index_ = 0;
    std::uint16_t total_ = 0;
    AclPayload buf_;
  };

  struct SlaveState {
    SlaveLink* link = nullptr;
    SimTime last_reachable;
    AclQueue tx_queue;  // master -> slave, fragments
    bool parked = false;
    SimTime last_activity;  // last data exchange (park-victim selection)
    std::uint16_t next_msg_id = 1;
    Reassembler from_slave;  // slave -> master reassembly
    Reassembler to_slave;    // master -> slave reassembly (lives here so a
                             // detach drops both directions atomically)
    // Supervised-quiesce state: whether the park's speed horizon proved
    // this slave in range for every elided round (drives last_reachable
    // reconstruction at settle), and the token of the position listener
    // registered on the slave's device.
    bool ff_in_range = false;
    int position_listener = -1;
  };

  friend class SlaveLink;  // ~SlaveLink erases itself from slaves_

  // Why a supervised quiesce ended (indices into deadlines_).
  enum WakeReason : std::size_t {
    kWakeSupervision = 0,  // scheduled: a supervision deadline is due
    kWakeRange = 1,        // scheduled: a range transition is possible
    kWakeTraffic = 2,      // send()/send_to_master() queued a fragment
    kWakeAttach = 3,       // a new slave joined (fresh supervision clock)
    kWakeDetach = 4,       // the roster emptied under the park
    kWakePosition = 5,     // a discrete position write (teleport)
    kWakePause = 6,        // pause() froze the loop
  };

  void poll_round();
  bool slave_in_range(const SlaveState& s) const;
  double range_m() const;
  /// Restarts a quiesced poll loop on the exact-path round lattice (first
  /// fire = the round the exact path would run next).
  void wake_polls(WakeReason reason = kWakeTraffic);
  /// Credits poll rounds the quiescent fast-forward has elided so far and
  /// advances the lattice anchor; no-op when not quiesced. Const (and the
  /// touched members mutable) so stats() reads are always exact-equivalent.
  void sync_poll_stat() const;
  /// Ends a quiesce without restarting the timer: folds in the elided
  /// rounds, reconstructs last_reachable for slaves the park proved in
  /// range, cancels the pending deadline wake and records the reason.
  void settle_quiesce(WakeReason reason);
  /// Parks the poll loop if every round until some future instant is a
  /// provable no-op; called at the end of a real round.
  void maybe_quiesce(SimTime now);
  /// Body of wake_proc_: the scheduled end of a supervised park.
  void deadline_wake();
  /// Position-listener body (master or any slave teleported).
  void on_position_write();

  Device& dev_;
  Config cfg_;
  MessageCallback on_message_;
  LinkLossCallback on_link_loss_;
  std::unordered_map<BdAddr, SlaveState> slaves_;
  sim::PeriodicTimer poll_timer_;
  bool paused_ = false;
  // Quiescent fast-forward state: quiesce_round_ anchors the round lattice
  // at the last (real or credited) round time.
  bool quiesced_ = false;
  mutable SimTime quiesce_round_;
  SimTime park_started_;  // first elided round of the current quiesce
  mutable Stats stats_;
  // Supervised-quiesce state: the scheduled deadline wake, the competing
  // end-of-park candidates with per-reason wake counters, the master's own
  // position-listener token, and the elision counters
  // (piconet.elided_polls + the simulator-wide kernel.skipped_slots).
  sim::Process wake_proc_;
  sim::DeadlineSet deadlines_;
  int position_listener_ = -1;
  obs::Counter* c_elided_polls_;
  obs::Counter* c_skipped_slots_;
  obs::Counter* c_quiesce_parks_;
  // Scratch membership snapshot reused across poll rounds (message
  // callbacks may attach/detach slaves mid-round).
  std::vector<BdAddr> poll_snapshot_;
};

}  // namespace bips::baseband
