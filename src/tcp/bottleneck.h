// The one way a TCP flow is attached to its links: a downlink/uplink Link
// pair carrying N sender/receiver stacks, demuxed by FlowId.
//
// This mirrors the paper's measurement setup: a server (sender) pushing bulk
// data to a phone (receiver) on the train; the downlink carries data, the
// uplink carries ACKs. With one flow it is a plain TCP connection; with N
// flows it is the shared cell every passenger's flow crosses — one DropTail
// queue and transmitter per direction, while each flow keeps its own TCP
// state, its own channel pair (private radio randomness and scripted
// faults), its own capture taps and its own per-flow LinkStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace hsr::tcp {

class Bottleneck {
 public:
  Bottleneck(sim::Simulator& sim, net::LinkConfig downlink, net::LinkConfig uplink);

  Bottleneck(const Bottleneck&) = delete;
  Bottleneck& operator=(const Bottleneck&) = delete;

  // Builds flow `flow`'s receiver and sender and registers them as that
  // flow's endpoints: data crosses the downlink through `down_channel`,
  // ACKs cross the uplink through `up_channel`. The optional taps record
  // the flow's packets on each link (wireshark stand-ins). Setup-time only:
  // call before the first packet of the flow is sent. The accessors below
  // take the flow's index: 0 for the first flow added, 1 for the next, ...
  void add_flow(FlowId flow, const TcpConfig& config,
                std::unique_ptr<net::ChannelModel> down_channel,
                std::unique_ptr<net::ChannelModel> up_channel,
                net::LinkTap* down_tap = nullptr, net::LinkTap* up_tap = nullptr);

  // Starts every flow's sender at the current simulation time.
  void start();

  TcpSender& sender(std::size_t i = 0) { return *flows_.at(i).sender; }
  const TcpSender& sender(std::size_t i = 0) const { return *flows_.at(i).sender; }
  TcpReceiver& receiver(std::size_t i = 0) { return *flows_.at(i).receiver; }
  const TcpReceiver& receiver(std::size_t i = 0) const {
    return *flows_.at(i).receiver;
  }
  net::Link& downlink() { return downlink_; }
  net::Link& uplink() { return uplink_; }
  // Flow i's share of each link's aggregate stats().
  const net::LinkStats& downlink_stats(std::size_t i = 0) const {
    return downlink_.endpoint_stats(flows_.at(i).id);
  }
  const net::LinkStats& uplink_stats(std::size_t i = 0) const {
    return uplink_.endpoint_stats(flows_.at(i).id);
  }

  // Flow i's application goodput over [0, now]: unique segments delivered
  // per second, and the same in bits per second.
  double goodput_segments_per_s(std::size_t i = 0) const;
  double goodput_bps(std::size_t i = 0) const;

 private:
  // Heap-owned stacks: the endpoint closures capture a stable raw pointer
  // while the vector of flows grows.
  struct Flow {
    FlowId id = 0;
    std::uint32_t mss_bytes = 0;
    std::unique_ptr<TcpReceiver> receiver;
    std::unique_ptr<TcpSender> sender;
  };

  sim::Simulator& sim_;
  net::Link downlink_;
  net::Link uplink_;
  std::vector<Flow> flows_;
};

}  // namespace hsr::tcp
