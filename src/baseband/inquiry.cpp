#include "src/baseband/inquiry.hpp"

#include <utility>

#include "src/baseband/hopping.hpp"
#include "src/util/log.hpp"

namespace bips::baseband {

Inquirer::Inquirer(Device& dev, InquiryConfig cfg, ResponseCallback on_response)
    : dev_(dev),
      cfg_(cfg),
      on_response_(std::move(on_response)),
      sweep_(dev, cfg.train_repetitions, cfg.switch_trains,
             [this](const Packet& p, RfChannel, SimTime end) {
               on_fhs(p, end);
             }) {}

void Inquirer::start() {
  if (active_) return;
  active_ = true;
  seen_.clear();
  Packet id;
  id.type = PacketType::kId;
  id.sender = dev_.addr();
  id.access_code = BdAddr();  // GIAC: anonymous general inquiry
  sweep_.start(0, train_base(cfg_.starting_train), id,
               dev_.clock().next_even_slot(dev_.sim().now()));
}

void Inquirer::stop() {
  if (!active_) return;
  active_ = false;
  sweep_.stop();
}

void Inquirer::on_fhs(const Packet& p, SimTime end) {
  if (p.type != PacketType::kFhs) return;
  ++stats_.fhs_received;
  if (!seen_.insert(p.sender).second) return;  // duplicate this session
  ++stats_.unique_responses;
  dev_.sim().obs().tracer.emit(end, obs::TraceKind::kInquiryResp,
                               static_cast<std::uint32_t>(dev_.addr().raw()),
                               p.sender.raw(), 0, p.rssi_dbm);
  BIPS_TRACE(end, "inquirer %s: FHS from %s", dev_.addr().to_string().c_str(),
             p.sender.to_string().c_str());
  if (on_response_) {
    on_response_(InquiryResponse{p.sender, p.clock, end, p.rssi_dbm});
  }
}

}  // namespace bips::baseband
