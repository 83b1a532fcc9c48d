// Figs. 7-9: the window-evolution pictures behind the model derivation —
//   Fig. 7: a CA phase ended by data loss vs ended by ACK burst loss,
//   Fig. 8: the CA-sequence / timeout-sequence cycle structure,
//   Fig. 9: evolution under the receiver window limit W_m.
// We print the analytic expectations (E[X], E[W], E[U], E[V]) across the
// regimes and dump a simulated cwnd trace that exhibits each shape.
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "model/enhanced.h"
#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "util/csv.h"
#include "util/rng.h"

using namespace hsr;

namespace {

void print_breakdown(const char* label, const model::EnhancedInputs& in) {
  const model::EnhancedBreakdown bd = model::enhanced_model(in);
  std::cout << std::left << std::setw(38) << label << " E[X]=" << std::setw(8)
            << bd.e_x << " E[W]=" << std::setw(8) << bd.e_w
            << (bd.window_limited
                    ? " (window-limited: E[U]=" + std::to_string(bd.e_u) +
                          ", E[V]=" + std::to_string(bd.e_v) + ")"
                    : "")
            << " TP=" << bd.throughput_pps << " seg/s\n";
}

}  // namespace

int main() {
  bench::header("Figs. 7-9: window evolution in the model and the simulator");

  model::EnhancedInputs base;
  base.p_d = 0.0075;
  base.q = 0.3;
  base.path = model::PathParams{0.1, 0.5, 2.0, 1000.0};

  std::cout << "--- Fig. 7: CA phase shapes (analytic) ---\n";
  model::EnhancedInputs no_burst = base;
  no_burst.P_a = 0.0;
  print_breakdown("(a) no ACK burst loss (P_a=0)", no_burst);
  model::EnhancedInputs with_burst = base;
  with_burst.P_a = 0.05;
  print_breakdown("(b) ACK burst loss cuts phases (P_a=.05)", with_burst);
  std::cout << "expected: (b) has fewer rounds per phase (smaller E[X], E[W]).\n\n";

  std::cout << "--- Fig. 9: window limitation (analytic) ---\n";
  model::EnhancedInputs limited = base;
  limited.P_a = 0.01;
  limited.p_d = 5e-4;
  limited.path.w_m = 30.0;
  print_breakdown("W_m=30, small p_d", limited);
  std::cout << "expected: the window saturates at W_m for E[V] rounds.\n\n";

  // --- Fig. 8: simulated cwnd trace with both loss indications ------------
  sim::Simulator sim;
  tcp::TcpConfig tcfg;
  tcfg.receiver_window = 64;
  net::LinkConfig link;  // both directions
  link.rate_bps = 20e6;
  link.prop_delay = util::Duration::millis(30);
  tcp::Bottleneck conn(sim, link, link);
  conn.add_flow(
      1, tcfg, std::make_unique<net::BernoulliChannel>(0.004, util::Rng(5)),
      std::make_unique<net::FunctionalChannel>(
          [](const net::Packet&, util::TimePoint now) {
            // Two ACK blackouts produce the timeout sequences of Fig. 8.
            const double t = now.to_seconds();
            return ((t >= 12.0 && t < 14.0) || (t >= 25.0 && t < 27.5)) ? 1.0 : 0.0;
          },
          [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
          util::Rng(6)));
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(40));

  auto csv = bench::open_csv("fig8_cwnd_trace.csv");
  util::CsvWriter w(csv);
  w.row("t_s", "cwnd_segments");
  for (const auto& [t, cwnd] : conn.sender().cwnd_trace()) {
    w.row(t.to_seconds(), cwnd);
  }
  std::cout << "--- Fig. 8: simulated cycle structure ---\n";
  std::cout << "cwnd samples dumped: " << conn.sender().cwnd_trace().size() << "\n";
  std::cout << "fast retransmits (TD indications): "
            << conn.sender().stats().fast_retransmits << "\n";
  std::cout << "timeout sequences (TO indications): at least "
            << (conn.sender().stats().timeouts > 0 ? 2 : 0)
            << " (from the two scripted ACK blackouts); timeouts="
            << conn.sender().stats().timeouts << "\n";
  std::cout << "expected: sawtooth CA sequences interrupted by cwnd=1 cliffs at\n"
               "t~12-14 s and t~25-27.5 s, then slow-start ramps (Fig. 8).\n";
  return 0;
}
