// Fig. 5: the two mechanism cases where ACK loss triggers a (spurious)
// timeout, reproduced as deterministic scripted scenarios:
//   (a) every ACK of a round is lost -> the sender mistakes ACK loss for
//       data loss and retransmits after T;
//   (b) some ACKs survive, the window slides, the next round shrinks to a
//       single ACK — losing that one ACK also triggers a timeout.
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "util/rng.h"

using namespace hsr;

namespace {

// Runs a scenario whose uplink drops ACKs per `drop_nth` (called with the
// 1-based ACK index; return true to drop).
void run_case(const char* title, std::function<bool(int)> drop_nth) {
  sim::Simulator sim;
  tcp::TcpConfig tcfg;
  tcfg.receiver_window = 6;  // the 6-packet round of the paper's figure
  tcfg.delayed_ack_b = 1;    // paper: "if delayed ACKs are not used"
  tcfg.initial_cwnd = 6.0;
  tcfg.total_segments = 40;
  net::LinkConfig link;  // both directions
  link.rate_bps = 10e6;
  link.prop_delay = util::Duration::millis(20);

  int ack_index = 0;
  auto up = std::make_unique<net::FunctionalChannel>(
      [&ack_index, drop_nth](const net::Packet&, util::TimePoint) {
        return drop_nth(++ack_index) ? 1.0 : 0.0;
      },
      [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
      util::Rng(1));

  tcp::Bottleneck conn(sim, link, link);
  conn.add_flow(1, tcfg, std::make_unique<net::PerfectChannel>(), std::move(up));
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(10));

  std::cout << title << "\n";
  std::cout << "  data delivered (unique): " << conn.receiver().stats().unique_segments
            << ", data lost: " << conn.downlink().stats().dropped_total() << "\n";
  std::cout << "  ACKs sent: " << conn.uplink().stats().sent << ", ACKs lost: "
            << conn.uplink().stats().dropped_total() << "\n";
  std::cout << "  timeouts: " << conn.sender().stats().timeouts
            << ", duplicate payloads at receiver: "
            << conn.receiver().stats().duplicate_segments << "\n";
  for (const auto& e : conn.sender().events()) {
    if (e.type == tcp::SenderEventType::kTimeout) {
      std::cout << "  -> spurious RTO at t=" << e.when.to_seconds() << " s for seq "
                << e.seq << " (timer " << e.rto_value.to_seconds() << " s)\n";
    }
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  bench::header("Fig. 5: two cases where ACK loss triggers a timeout");

  // Case (a): the whole first round of 6 ACKs is lost; no data loss at all.
  run_case("case (a): all 6 ACKs of round k lost",
           [](int ack) { return ack <= 6; });

  // Case (b): 5 of 6 ACKs of round k lost -> window slides by what the one
  // surviving (cumulative) ACK covers; the follow-up round's ACKs are then
  // all lost, stalling the sender into a timeout.
  run_case("case (b): one ACK of round k survives, the next round's are lost",
           [](int ack) { return ack != 3 && ack <= 9; });

  std::cout << "expected: both cases end with >= 1 timeout and duplicate\n"
               "payloads at the receiver, with ZERO data-packet loss —\n"
               "ACK (burst) loss alone finished the CA phase.\n";
  return 0;
}
