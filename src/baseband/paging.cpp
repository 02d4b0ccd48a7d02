#include "src/baseband/paging.hpp"

#include "src/baseband/hopping.hpp"
#include "src/util/log.hpp"

namespace bips::baseband {

namespace {
/// How long either side waits for the counterpart's next packet mid-exchange
/// before declaring the attempt dead and resuming its sweep/scan.
constexpr Duration kExchangeTimeout = 4 * kSlot;
}  // namespace

// ---------------------------------------------------------------- Pager ---

Pager::Pager(Device& dev, PageConfig cfg)
    : dev_(dev),
      cfg_(cfg),
      fhs_proc_(dev.sim(), [this] { send_fhs(); }),
      ack_timeout_proc_(dev.sim(), [this] { ack_timed_out(); }),
      page_timeout_proc_(dev.sim(), [this] { fail(); }),
      sweep_(dev, cfg.train_repetitions, cfg.switch_trains,
             [this](const Packet& p, RfChannel ch, SimTime end) {
               on_response(p, ch, end);
             }) {}

std::uint32_t Pager::estimated_clkn(SimTime t) const {
  const auto elapsed_ticks =
      static_cast<std::uint64_t>((t - sample_time_).ns()) / 312'500;
  return static_cast<std::uint32_t>((clock_sample_ + elapsed_ticks) &
                                    ((1u << 28) - 1));
}

void Pager::page(BdAddr target, std::uint32_t clock_sample,
                 SimTime sample_time) {
  BIPS_ASSERT_MSG(!active_, "Pager supports one page at a time");
  BIPS_ASSERT(!target.is_null());
  active_ = true;
  awaiting_ack_ = false;
  target_ = target;
  clock_sample_ = clock_sample;
  sample_time_ = sample_time;
  ++stats_.pages_started;
  dev_.sim().obs().tracer.emit(dev_.sim().now(), obs::TraceKind::kPageStart,
                               static_cast<std::uint32_t>(dev_.addr().raw()),
                               target.raw());

  // Centre the first train on the channel the estimate predicts the slave
  // will scan, so a good estimate connects at the slave's first window.
  const std::uint32_t predicted =
      predicted_page_index(estimated_clkn(dev_.sim().now()));
  Packet id;
  id.type = PacketType::kId;
  id.sender = dev_.addr();
  id.access_code = target_;  // page IDs are addressed
  sweep_.start(page_namespace(target_),
               (predicted + kChannelsPerSet - kTrainSize / 2) % kChannelsPerSet,
               id, dev_.clock().next_even_slot(dev_.sim().now()));
  if (cfg_.timeout > Duration(0)) {
    page_timeout_proc_.call_after(cfg_.timeout);
  }
}

void Pager::cancel() {
  if (!active_) return;
  cleanup();
}

void Pager::cleanup() {
  active_ = false;
  awaiting_ack_ = false;
  sweep_.stop();
  fhs_proc_.cancel();
  ack_timeout_proc_.cancel();
  page_timeout_proc_.cancel();
  dev_.radio().stop_listen(ack_listen_);
  ack_listen_ = kNoListen;
}

void Pager::fail() {
  if (!active_) return;
  const BdAddr t = target_;
  ++stats_.pages_failed;
  dev_.sim().obs().tracer.emit(dev_.sim().now(), obs::TraceKind::kPageFail,
                               static_cast<std::uint32_t>(dev_.addr().raw()),
                               t.raw());
  cleanup();
  if (on_failure_) on_failure_(t);
}

void Pager::on_response(const Packet& p, RfChannel ch, SimTime end) {
  if (!active_ || awaiting_ack_) return;
  if (p.type != PacketType::kId || p.access_code != target_) return;
  // Target answered: freeze the sweep and send the FHS 625 us after the
  // response began. (A response while parked is unreachable -- the
  // scanner's occupancy hold wakes the sweep before its response lands --
  // but pause() would credit and end the park if one ever slipped through.)
  sweep_.pause();
  awaiting_ack_ = true;

  contact_ch_ = ch;
  const SimTime resp_start = end - p.duration();
  fhs_proc_.call_at(resp_start + kSlot);
}

void Pager::send_fhs() {
  if (!active_) return;
  Packet fhs;
  fhs.type = PacketType::kFhs;
  fhs.sender = dev_.addr();
  fhs.access_code = target_;
  fhs.clock = dev_.clock().clkn(dev_.sim().now());
  dev_.radio().transmit(&dev_, contact_ch_, fhs);

  // Await the final ID ack on the same channel. Passive: the scanner's
  // committed ack is covered by its own occupancy hold.
  ack_listen_ = dev_.radio().start_listen(
      &dev_, contact_ch_,
      [this](const Packet& q, RfChannel, SimTime e) { on_ack(q, e); },
      ListenKind::kPassive);
  ack_timeout_proc_.call_after(kExchangeTimeout);
}

void Pager::ack_timed_out() {
  // Ack lost: resume the sweep where it left off.
  if (!active_) return;
  dev_.radio().stop_listen(ack_listen_);
  ack_listen_ = kNoListen;
  awaiting_ack_ = false;
  sweep_.resume(dev_.clock().next_even_slot(dev_.sim().now()));
}

void Pager::on_ack(const Packet& p, SimTime end) {
  if (!active_) return;
  if (p.type != PacketType::kId || p.access_code != target_) return;
  const BdAddr t = target_;
  ++stats_.pages_succeeded;
  dev_.sim().obs().tracer.emit(end, obs::TraceKind::kPageOk,
                               static_cast<std::uint32_t>(dev_.addr().raw()),
                               t.raw());
  cleanup();
  BIPS_TRACE(end, "pager %s: connected to %s",
             dev_.addr().to_string().c_str(), t.to_string().c_str());
  if (on_success_) on_success_(t, end);
}

// ---------------------------------------------------------- PageScanner ---

PageScanner::PageScanner(Device& dev, ScanConfig cfg)
    : dev_(dev),
      cfg_(cfg),
      window_open_proc_(dev.sim(), [this] { open_window(); }),
      window_close_proc_(dev.sim(), [this] { close_window(); }),
      respond_proc_(dev.sim(), [this] { send_response(); }),
      fhs_timeout_proc_(dev.sim(),
                        [this] {
                          // Master vanished (or its FHS collided): back to
                          // normal scanning.
                          end_listen();
                          responding_ = false;
                        }),
      ack_proc_(dev.sim(), [this] { send_ack(); }) {
  BIPS_ASSERT(cfg_.window > Duration(0));
  BIPS_ASSERT(cfg_.interval >= cfg_.window);
}

void PageScanner::start() {
  const Duration phase = Duration::nanos(static_cast<std::int64_t>(
      dev_.rng().uniform(static_cast<std::uint64_t>(cfg_.interval.ns()))));
  start_with_phase(phase);
}

void PageScanner::start_with_phase(Duration phase) {
  BIPS_ASSERT(!running_);
  running_ = true;
  window_index_ = 0;
  responding_ = false;
  window_open_proc_.call_after(phase);
}

void PageScanner::stop() {
  if (!running_) return;
  running_ = false;
  window_open_proc_.cancel();
  window_close_proc_.cancel();
  respond_proc_.cancel();
  fhs_timeout_proc_.cancel();
  ack_proc_.cancel();
  end_listen();
  window_open_ = false;
  responding_ = false;
}

void PageScanner::open_window() {
  if (!running_) return;
  ++stats_.windows_opened;
  ++window_index_;
  window_open_ = true;
  window_close_proc_.call_after(cfg_.window);
  window_open_proc_.call_after(cfg_.interval);
  if (responding_) return;  // mid-exchange; skip this window

  // The page-scan channel is a function of the device's own clock (CLKN
  // 16-12), which is exactly what the pager predicts from the FHS sample.
  const std::uint32_t idx = dev_.clock().scan_phase(dev_.sim().now());
  listen_ = dev_.radio().start_listen(
      &dev_, page_scan_channel(dev_.addr(), idx),
      [this](const Packet& p, RfChannel ch, SimTime end) {
        on_page_id(p, ch, end);
      });
}

void PageScanner::close_window() {
  window_open_ = false;
  if (!responding_) end_listen();
}

void PageScanner::end_listen() {
  dev_.radio().stop_listen(listen_);
  listen_ = kNoListen;
}

void PageScanner::on_page_id(const Packet& p, RfChannel ch, SimTime end) {
  if (p.type != PacketType::kId || p.access_code != dev_.addr()) return;
  ++stats_.pages_heard;
  end_listen();
  responding_ = true;

  contact_ch_ = ch;
  const SimTime id_start = end - p.duration();
  respond_proc_.call_at(id_start + kSlot);
  // The window listen just closed, but the committed 68 us ID response is
  // still in flight: hold the occupancy so a parked pager keeps drumming
  // exactly until it lands.
  dev_.radio().occupancy_hold(ch, dev_.position(),
                              id_start + kSlot + Duration::micros(68));
}

void PageScanner::send_response() {
  if (!running_) return;
  Packet resp;
  resp.type = PacketType::kId;
  resp.sender = dev_.addr();
  resp.access_code = dev_.addr();
  dev_.radio().transmit(&dev_, contact_ch_, resp);

  // Await the master's FHS on the same channel.
  listen_ = dev_.radio().start_listen(
      &dev_, contact_ch_, [this](const Packet& q, RfChannel c, SimTime e) {
        on_fhs(q, c, e);
      });
  fhs_timeout_proc_.call_after(kExchangeTimeout);
}

void PageScanner::on_fhs(const Packet& p, RfChannel ch, SimTime end) {
  if (p.type != PacketType::kFhs || p.access_code != dev_.addr()) return;
  fhs_timeout_proc_.cancel();
  end_listen();

  contact_ch_ = ch;
  pending_master_ = p.sender;
  pending_master_clock_ = p.clock;
  const SimTime fhs_start = end - p.duration();
  ack_proc_.call_at(fhs_start + kSlot);
  // Same as on_page_id: cover the committed ack's flight time.
  dev_.radio().occupancy_hold(ch, dev_.position(),
                              fhs_start + kSlot + Duration::micros(68));
}

void PageScanner::send_ack() {
  if (!running_) return;
  Packet ack;
  ack.type = PacketType::kId;
  ack.sender = dev_.addr();
  ack.access_code = dev_.addr();
  dev_.radio().transmit(&dev_, contact_ch_, ack);
  ++stats_.connections;
  const SimTime when = dev_.sim().now();
  const BdAddr master = pending_master_;
  const std::uint32_t master_clock = pending_master_clock_;
  BIPS_TRACE(when, "scanner %s: connected to master %s",
             dev_.addr().to_string().c_str(), master.to_string().c_str());
  // Entering the connection state ends page scanning; the link layer
  // restarts it after a detach.
  auto cb = on_connected_;
  stop();
  if (cb) cb(master, master_clock, when);
}

}  // namespace bips::baseband
