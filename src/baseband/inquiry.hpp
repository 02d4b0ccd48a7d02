// Master-side inquiry (device discovery) state machine.
//
// While active, the master sweeps the 16-hop inquiry trains on namespace 0
// with the anonymous GIAC ID (TrainSweep: two IDs per even slot, FHS
// responses heard on the paired response channels, a train switch after
// N_inquiry repetitions, 2.56 s, if configured to). This class keeps only
// the per-session bookkeeping of the responses: which addresses already
// answered. TrainSweep also owns the virtual-slot fast-forward (DESIGN.md
// section 5c).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "src/baseband/config.hpp"
#include "src/baseband/device.hpp"
#include "src/baseband/train_sweep.hpp"

namespace bips::baseband {

class Inquirer {
 public:
  /// Called on every *first* FHS received from a given address within one
  /// start()..stop() inquiry session.
  using ResponseCallback = std::function<void(const InquiryResponse&)>;

  Inquirer(Device& dev, InquiryConfig cfg, ResponseCallback on_response);
  ~Inquirer() { stop(); }
  Inquirer(const Inquirer&) = delete;
  Inquirer& operator=(const Inquirer&) = delete;

  /// Enters the inquiry state at the device's next even slot boundary.
  /// Restarting while active is a no-op.
  void start();
  /// Leaves the inquiry state immediately (listens closed, events cancelled).
  void stop();

  bool active() const { return active_; }

  struct Stats {
    std::uint64_t ids_sent = 0;
    std::uint64_t fhs_received = 0;     // all, including duplicates
    std::uint64_t unique_responses = 0; // distinct addresses this session
    std::uint64_t train_switches = 0;
  };
  /// Mode-invariant: while parked, the IDs and train switches the exact
  /// path would have made by now are counted lazily, so a mid-park reader
  /// sees the same counts in both modes.
  const Stats& stats() const {
    stats_.ids_sent = sweep_.ids_sent();
    stats_.train_switches = sweep_.train_switches();
    return stats_;
  }

 private:
  void on_fhs(const Packet& p, SimTime end);

  Device& dev_;
  InquiryConfig cfg_;
  ResponseCallback on_response_;

  bool active_ = false;
  std::unordered_set<BdAddr> seen_;
  mutable Stats stats_;  // the sweep's two counters are copied in on read
  TrainSweep sweep_;
};

}  // namespace bips::baseband
