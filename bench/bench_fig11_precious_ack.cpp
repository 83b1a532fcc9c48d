// Fig. 11: "ACKs are precious" — thanks to cumulative acknowledgements, a
// single surviving ACK in a round is enough to prevent the spurious timeout.
// Scripted counterpart of Fig. 5: same round, but one ACK survives.
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "util/rng.h"

using namespace hsr;

namespace {

struct Outcome {
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delivered = 0;
};

Outcome run_round(bool keep_last_ack) {
  sim::Simulator sim;
  tcp::TcpConfig tcfg;
  tcfg.receiver_window = 6;
  tcfg.delayed_ack_b = 1;
  tcfg.initial_cwnd = 6.0;
  tcfg.total_segments = 60;
  net::LinkConfig link;  // both directions
  link.rate_bps = 10e6;
  link.prop_delay = util::Duration::millis(20);

  int ack_index = 0;
  auto up = std::make_unique<net::FunctionalChannel>(
      [&ack_index, keep_last_ack](const net::Packet&, util::TimePoint) {
        ++ack_index;
        if (ack_index > 6) return 0.0;            // later rounds unharmed
        if (keep_last_ack && ack_index == 6) return 0.0;  // the "precious" ACK a
        return 1.0;                               // the rest of the round dies
      },
      [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
      util::Rng(1));

  tcp::Bottleneck conn(sim, link, link);
  conn.add_flow(1, tcfg, std::make_unique<net::PerfectChannel>(), std::move(up));
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(10));
  return Outcome{conn.sender().stats().timeouts,
                 conn.receiver().stats().duplicate_segments,
                 conn.receiver().stats().unique_segments};
}

}  // namespace

int main() {
  bench::header("Fig. 11: one surviving ACK avoids the timeout");

  const Outcome all_lost = run_round(/*keep_last_ack=*/false);
  const Outcome one_kept = run_round(/*keep_last_ack=*/true);

  std::cout << "round of 6 with ALL ACKs lost:      timeouts=" << all_lost.timeouts
            << "  duplicate payloads=" << all_lost.duplicates << "\n";
  std::cout << "round of 6 with ONE cumulative ACK: timeouts=" << one_kept.timeouts
            << "  duplicate payloads=" << one_kept.duplicates << "\n\n";

  bench::compare_row("timeouts with full ACK burst loss", 1, all_lost.timeouts, "");
  bench::compare_row("timeouts when ACK 'a' survives", 0, one_kept.timeouts, "");
  const bool ok = all_lost.timeouts >= 1 && one_kept.timeouts == 0;
  std::cout << (ok ? "[OK] the cumulative ACK rescued the round\n"
                   : "[FAIL] mechanism not reproduced\n");
  return ok ? 0 : 1;
}
