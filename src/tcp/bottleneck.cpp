#include "tcp/bottleneck.h"

#include <utility>

#include "util/logging.h"

namespace hsr::tcp {

Bottleneck::Bottleneck(sim::Simulator& sim, net::LinkConfig downlink,
                       net::LinkConfig uplink)
    : sim_(sim), downlink_(sim, std::move(downlink)), uplink_(sim, std::move(uplink)) {}

void Bottleneck::add_flow(FlowId flow, const TcpConfig& config,
                          std::unique_ptr<net::ChannelModel> down_channel,
                          std::unique_ptr<net::ChannelModel> up_channel,
                          net::LinkTap* down_tap, net::LinkTap* up_tap) {
  HSR_CHECK_MSG(config.delayed_ack_b >= 1, "delayed_ack_b must be >= 1");
  Flow f;
  f.id = flow;
  f.mss_bytes = config.mss_bytes;

  // Every closure below captures one or two pointers; the asserts keep them
  // inside the callback SBOs, so attaching a flow never heap-allocates for
  // its wiring and per-packet delivery never does.
  auto ack_tx = [this](net::Packet p) { uplink_.send(std::move(p)); };
  static_assert(PacketSendFn::holds_inline<decltype(ack_tx)>(),
                "ACK send closure outgrew the PacketSendFn SBO");
  f.receiver = std::make_unique<TcpReceiver>(sim_, config, flow, std::move(ack_tx));
  auto data_tx = [this](net::Packet p) { downlink_.send(std::move(p)); };
  static_assert(PacketSendFn::holds_inline<decltype(data_tx)>(),
                "data send closure outgrew the PacketSendFn SBO");
  f.sender = std::make_unique<TcpSender>(sim_, config, flow, std::move(data_tx));

  auto data_endpoint = [r = f.receiver.get()](const net::Packet& p) { r->on_data(p); };
  static_assert(net::Link::Receiver::holds_inline<decltype(data_endpoint)>(),
                "data endpoint outgrew the Link::Receiver SBO; "
                "per-packet delivery would heap-allocate");
  downlink_.register_endpoint(flow, std::move(down_channel), std::move(data_endpoint),
                              down_tap);
  auto ack_endpoint = [s = f.sender.get()](const net::Packet& p) { s->on_ack(p); };
  static_assert(net::Link::Receiver::holds_inline<decltype(ack_endpoint)>(),
                "ACK endpoint outgrew the Link::Receiver SBO; "
                "per-packet delivery would heap-allocate");
  uplink_.register_endpoint(flow, std::move(up_channel), std::move(ack_endpoint),
                            up_tap);

  flows_.push_back(std::move(f));
}

void Bottleneck::start() {
  for (Flow& f : flows_) f.sender->start();
}

double Bottleneck::goodput_segments_per_s(std::size_t i) const {
  const double elapsed = sim_.now().to_seconds();
  if (elapsed <= 0.0) return 0.0;
  const ReceiverStats& r = receiver(i).stats();
  // The receiver cannot deliver more unique data than the sender put on the
  // wire — a violation means the stats plumbing (every figure's input) broke.
  HSR_DCHECK_MSG(r.unique_segments <= sender(i).stats().segments_sent,
                 "receiver delivered more unique segments than were sent");
  return static_cast<double>(r.unique_segments) / elapsed;
}

double Bottleneck::goodput_bps(std::size_t i) const {
  return goodput_segments_per_s(i) * static_cast<double>(flows_.at(i).mss_bytes) * 8.0;
}

}  // namespace hsr::tcp
