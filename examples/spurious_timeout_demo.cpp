// Walk-through of the paper's core mechanism: how ACK burst loss turns into
// a spurious retransmission timeout, and why a single surviving cumulative
// ACK prevents it (paper Figs. 5 and 11).
//
// Builds a tiny deterministic scenario — perfect data path, a scripted
// FaultPlan on the ACK path — and narrates every transport-layer event,
// including the fault audit trail that explains each ACK's death.
//
//   $ ./spurious_timeout_demo
#include <iostream>
#include <memory>

#include "fault/fault.h"
#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "trace/capture.h"

using namespace hsr;

namespace {

void narrate(const char* title, fault::FaultPlan plan) {
  std::cout << "=== " << title << " ===\n";

  sim::Simulator sim;
  tcp::TcpConfig tcfg;
  tcfg.receiver_window = 6;
  tcfg.delayed_ack_b = 1;
  tcfg.initial_cwnd = 6.0;
  tcfg.total_segments = 18;
  net::LinkConfig link;  // both directions
  link.rate_bps = 10e6;
  link.prop_delay = util::Duration::millis(20);

  // Perfect channels everywhere; only the scripted plan kills packets, and
  // every kill is audited into the capture.
  trace::FlowCapture capture;
  capture.flow = 1;
  auto uplink = std::make_unique<fault::FaultInjector>(
      std::move(plan), std::make_unique<net::PerfectChannel>());
  uplink->set_audit(&capture.faults, 'A');

  tcp::Bottleneck conn(sim, link, link);
  conn.add_flow(1, tcfg, std::make_unique<net::PerfectChannel>(), std::move(uplink));
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(6));

  std::cout << "  round of 6 data packets sent; all DELIVERED (data path is perfect)\n";
  std::cout << "  ACKs lost on the uplink: " << conn.uplink().stats().dropped_total()
            << " of " << conn.uplink().stats().sent << "\n";
  for (const auto& f : capture.faults) {
    std::cout << "  t=" << f.when.to_seconds() << " s  scripted kill of ACK "
              << f.seq << "  [" << f.label << "]\n";
  }
  for (const auto& e : conn.sender().events()) {
    switch (e.type) {
      case tcp::SenderEventType::kTimeout:
        std::cout << "  t=" << e.when.to_seconds() << " s  RETRANSMISSION TIMEOUT for seq "
                  << e.seq << " — spurious: the receiver already has it\n";
        break;
      case tcp::SenderEventType::kRecoveryExit:
        std::cout << "  t=" << e.when.to_seconds()
                  << " s  cumulative ACK " << e.seq << " arrives; recovery over\n";
        break;
      default:
        break;
    }
  }
  std::cout << "  duplicate payloads seen by the receiver: "
            << conn.receiver().stats().duplicate_segments << "\n";
  std::cout << "  total timeouts: " << conn.sender().stats().timeouts << "\n\n";
}

}  // namespace

int main() {
  std::cout << "The paper's §III-B mechanism, step by step.\n\n";

  // Case 1: every ACK of the first round dies. The first round's ACKs reach
  // the uplink around t = 40 ms; killing everything before 100 ms wipes the
  // round while sparing the post-RTO recovery ACK.
  fault::FaultPlan kill_all;
  kill_all.kill_acks(util::TimePoint::zero(), util::TimePoint::from_seconds(0.1));
  narrate("Case 1 (Fig. 5a): ALL six ACKs of the round are lost",
          std::move(kill_all));

  // Case 2: ACKs 2..6 die but the round's LAST cumulative ACK (ack_next = 7)
  // survives — and acknowledges the whole round on its own.
  fault::FaultPlan kill_most;
  kill_most.kill_ack_range(2, 6);
  narrate("Case 2 (Fig. 11): the LAST ACK of the round survives",
          std::move(kill_most));

  std::cout
      << "Takeaway: one surviving cumulative ACK acknowledges the whole round\n"
         "(\"ACKs are precious\"); only the loss of EVERY ACK in a round —\n"
         "probability P_a in the enhanced model — produces the spurious RTO.\n";
  return 0;
}
