// Page (connection-establishment) state machines.
//
// After discovery the master knows the target's BD_ADDR and a clock sample
// from its FHS, so it can predict which page-scan channel the slave will
// listen on and sweep a 16-channel train around that estimate (two 68 us ID
// packets per even slot, exactly like inquiry). The slave's page scan
// mirrors inquiry scan (default window 11.25 ms every 1.28 s, the values
// the paper quotes in section 3.2).
//
// Exchange once the trains meet, all on the contact channel:
//
//   master ID(target)  ->  slave hears in its window
//   slave  ID(target)  ->  625 us after the master ID began
//   master FHS         ->  625 us after the slave response began
//   slave  ID(target)  ->  625 us after the FHS began (the ack)
//
// after which both sides report the connection. There is no response
// backoff in paging: the ID is addressed, so only one device ever answers
// (page responses cannot collide the way inquiry responses do).
//
// The master's train sweep, and its virtual-slot fast-forward, is a
// TrainSweep on the target's page namespace (DESIGN.md section 5c): only
// the target can answer an addressed ID, so the sweep parks while no
// target scan window is in reach, and the scanner side covers its
// committed response/ack flights with occupancy holds.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "src/baseband/config.hpp"
#include "src/baseband/device.hpp"
#include "src/baseband/train_sweep.hpp"
#include "src/sim/simulator.hpp"

namespace bips::baseband {

/// Master side: pages one target at a time.
class Pager {
 public:
  using SuccessCallback = std::function<void(BdAddr slave, SimTime when)>;
  using FailureCallback = std::function<void(BdAddr slave)>;

  Pager(Device& dev, PageConfig cfg);
  ~Pager() { cancel(); }
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  void set_on_success(SuccessCallback cb) { on_success_ = std::move(cb); }
  void set_on_failure(FailureCallback cb) { on_failure_ = std::move(cb); }

  /// Starts paging `target`. `clock_sample` is the CLKN the target reported
  /// in its FHS at simulated time `sample_time`; pass sample_time = now and
  /// a random clock to model paging without an estimate (cold page).
  /// Only one page may be in flight; cancel() or completion frees the pager.
  void page(BdAddr target, std::uint32_t clock_sample, SimTime sample_time);

  void cancel();
  bool active() const { return active_; }
  BdAddr target() const { return target_; }

  struct Stats {
    std::uint64_t pages_started = 0;
    std::uint64_t pages_succeeded = 0;
    std::uint64_t pages_failed = 0;
    std::uint64_t ids_sent = 0;
  };
  /// Mode-invariant: while parked, the IDs the exact path would have sent
  /// by now are credited lazily (see Inquirer::stats).
  const Stats& stats() const {
    stats_.ids_sent = sweep_.ids_sent();
    return stats_;
  }

 private:
  /// Estimated CLKN of the target at time t, extrapolated from the sample.
  std::uint32_t estimated_clkn(SimTime t) const;
  void send_fhs();
  void ack_timed_out();
  void on_response(const Packet& p, RfChannel ch, SimTime end);
  void on_ack(const Packet& p, SimTime end);
  void fail();
  void cleanup();

  Device& dev_;
  PageConfig cfg_;
  SuccessCallback on_success_;
  FailureCallback on_failure_;

  bool active_ = false;
  bool awaiting_ack_ = false;  // the sweep is paused mid-exchange
  BdAddr target_;
  std::uint32_t clock_sample_ = 0;
  SimTime sample_time_;

  // The contact channel the response arrived on, which the processes read
  // instead of capturing.
  RfChannel contact_ch_;
  sim::Process fhs_proc_;
  sim::Process ack_timeout_proc_;
  sim::Process page_timeout_proc_;
  ListenId ack_listen_ = kNoListen;
  mutable Stats stats_;  // ids_sent is copied in from the sweep on read
  TrainSweep sweep_;
};

/// Slave side: periodically listens for pages addressed to it.
class PageScanner {
 public:
  /// master + the FHS clock needed to join the piconet hopping.
  using ConnectedCallback =
      std::function<void(BdAddr master, std::uint32_t master_clock,
                         SimTime when)>;

  PageScanner(Device& dev, ScanConfig cfg);
  ~PageScanner() { stop(); }
  PageScanner(const PageScanner&) = delete;
  PageScanner& operator=(const PageScanner&) = delete;

  void set_on_connected(ConnectedCallback cb) {
    on_connected_ = std::move(cb);
  }

  /// Starts the periodic page-scan schedule (random phase unless given).
  void start();
  void start_with_phase(Duration phase);
  void stop();
  bool running() const { return running_; }

  struct Stats {
    std::uint64_t windows_opened = 0;
    std::uint64_t pages_heard = 0;
    std::uint64_t connections = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void open_window();
  void close_window();
  void end_listen();
  void send_response();
  void send_ack();
  void on_page_id(const Packet& p, RfChannel ch, SimTime end);
  void on_fhs(const Packet& p, RfChannel ch, SimTime end);

  Device& dev_;
  ScanConfig cfg_;
  ConnectedCallback on_connected_;

  bool running_ = false;
  bool window_open_ = false;
  bool responding_ = false;  // mid-exchange; suppress window churn
  std::uint64_t window_index_ = 0;
  ListenId listen_ = kNoListen;

  // Mid-exchange state the processes read instead of capturing: the contact
  // channel and the master identity from its FHS.
  RfChannel contact_ch_;
  BdAddr pending_master_;
  std::uint32_t pending_master_clock_ = 0;
  sim::Process window_open_proc_;
  sim::Process window_close_proc_;
  sim::Process respond_proc_;
  sim::Process fhs_timeout_proc_;
  sim::Process ack_proc_;

  Stats stats_;
};

}  // namespace bips::baseband
