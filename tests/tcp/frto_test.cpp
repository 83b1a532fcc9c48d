// Tests for the F-RTO spurious-timeout response (RFC 5682, SACK-less) and
// the adaptive delayed-ACK extension — the two §V-motivated mitigations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "util/rng.h"

namespace hsr::tcp {
namespace {

net::Packet ack(SeqNo ack_next) {
  net::Packet p;
  p.id = net::allocate_packet_id();
  p.kind = net::PacketKind::kAck;
  p.ack_next = ack_next;
  return p;
}

class FrtoFixture : public testing::Test {
 protected:
  TcpSender make_sender(bool frto, double cwnd = 6.0) {
    TcpConfig cfg;
    cfg.enable_frto = frto;
    cfg.initial_cwnd = cwnd;
    return TcpSender(sim_, cfg, 1,
                     [this](net::Packet p) { sent_.push_back(std::move(p)); });
  }

  sim::Simulator sim_;
  std::vector<net::Packet> sent_;
};

TEST_F(FrtoFixture, SpuriousRtoDetectedAndUndone) {
  TcpSender snd = make_sender(true);
  snd.start();  // 1..6 in flight
  const double pre_rto_cwnd = snd.cwnd();

  // Total ACK silence -> RTO. F-RTO retransmits snd_una but does NOT pull
  // snd_next back.
  sim_.run_until(util::TimePoint::from_seconds(1));
  EXPECT_EQ(snd.stats().timeouts, 1u);
  EXPECT_TRUE(snd.frto_probing());
  EXPECT_EQ(snd.snd_next(), 7u);

  // The receiver had everything: a cumulative ACK for the whole window.
  sent_.clear();
  snd.on_ack(ack(7));
  EXPECT_TRUE(snd.frto_probing());
  // Probe with NEW data (7, 8), not retransmissions.
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].seq, 7u);
  EXPECT_EQ(sent_[1].seq, 8u);
  EXPECT_FALSE(sent_[0].is_retransmission);

  // Second advancing ACK: spurious confirmed, congestion state restored.
  snd.on_ack(ack(9));
  EXPECT_FALSE(snd.frto_probing());
  EXPECT_EQ(snd.frto_spurious_detected(), 1u);
  EXPECT_NEAR(snd.cwnd(), pre_rto_cwnd, 1e-9);
  EXPECT_FALSE(snd.in_timeout_recovery());
  // Exactly one retransmission happened in total (the RTO probe of seq 1).
  EXPECT_EQ(snd.stats().retransmissions, 1u);
}

TEST_F(FrtoFixture, GenuineLossFallsBackToGoBackN) {
  TcpSender snd = make_sender(true);
  snd.start();  // 1..6; pretend 2..6 were lost, 1 arrived late via the retx
  sim_.run_until(util::TimePoint::from_seconds(1));  // RTO, retx of 1
  ASSERT_TRUE(snd.frto_probing());

  snd.on_ack(ack(2));  // retx of 1 delivered; window advances -> probe phase
  ASSERT_TRUE(snd.frto_probing());

  // A duplicate ACK (receiver still stuck at 2): the timeout was genuine.
  sent_.clear();
  snd.on_ack(ack(2));
  EXPECT_FALSE(snd.frto_probing());
  // The hole was retransmitted immediately and go-back-N resumed.
  ASSERT_FALSE(sent_.empty());
  EXPECT_EQ(sent_[0].seq, 2u);
  EXPECT_TRUE(sent_[0].is_retransmission);
  EXPECT_EQ(snd.snd_next(), 3u);
  EXPECT_EQ(snd.frto_spurious_detected(), 0u);
}

TEST_F(FrtoFixture, DisabledByDefaultKeepsClassicBehavior) {
  TcpSender snd = make_sender(false);
  snd.start();
  sim_.run_until(util::TimePoint::from_seconds(1));
  EXPECT_FALSE(snd.frto_probing());
  EXPECT_EQ(snd.snd_next(), 2u);  // classic go-back-N pullback
}

TEST_F(FrtoFixture, SecondTimeoutDisablesProbe) {
  TcpSender snd = make_sender(true, 1.0);
  snd.start();  // one segment, never acked
  // First RTO at 1 s arms the probe; second at 3 s (backoff) must fall back.
  sim_.run_until(util::TimePoint::from_seconds(3));
  EXPECT_EQ(snd.stats().timeouts, 2u);
  EXPECT_FALSE(snd.frto_probing());
  EXPECT_EQ(snd.snd_next(), 2u);
}

TEST_F(FrtoFixture, EndToEndFrtoRecoversWindowAfterShortAckBlackout) {
  // A short ACK blackout — long enough to starve the timer, short enough
  // that the post-RTO probe ACKs get through — with and without F-RTO: the
  // F-RTO flow detects the spurious timeout, restores its window, and
  // delivers at least as much data.
  struct Outcome {
    std::uint64_t unique = 0;
    std::uint64_t spurious_detected = 0;
  };
  auto run_variant = [](bool frto) {
    sim::Simulator sim;
    TcpConfig tcp;
    tcp.receiver_window = 64;
    tcp.enable_frto = frto;
    net::LinkConfig link;  // both directions
    link.rate_bps = 10e6;
    link.prop_delay = util::Duration::millis(20);
    auto blackout = std::make_unique<net::FunctionalChannel>(
        [](const net::Packet&, util::TimePoint now) {
          return (now >= util::TimePoint::from_seconds(5.0) &&
                  now < util::TimePoint::from_seconds(5.2))
                     ? 1.0
                     : 0.0;
        },
        [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
        util::Rng(1));
    Bottleneck conn(sim, link, link);
    conn.add_flow(1, tcp, std::make_unique<net::PerfectChannel>(), std::move(blackout));
    conn.start();
    sim.run_until(util::TimePoint::from_seconds(20));
    return Outcome{conn.receiver().stats().unique_segments,
                   conn.sender().frto_spurious_detected()};
  };

  const Outcome classic = run_variant(false);
  const Outcome frto = run_variant(true);
  EXPECT_EQ(classic.spurious_detected, 0u);
  EXPECT_GE(frto.spurious_detected, 1u);
  EXPECT_GE(frto.unique, classic.unique);
}

class AdaptiveDelackFixture : public testing::Test {
 protected:
  TcpReceiver make_receiver(bool adaptive) {
    TcpConfig cfg;
    cfg.delayed_ack_b = 2;
    cfg.adaptive_delack = adaptive;
    cfg.quickack_segments = 4;
    return TcpReceiver(sim_, cfg, 1,
                       [this](net::Packet p) { acks_.push_back(std::move(p)); });
  }

  net::Packet data(SeqNo seq) {
    net::Packet p;
    p.id = net::allocate_packet_id();
    p.kind = net::PacketKind::kData;
    p.seq = seq;
    return p;
  }

  sim::Simulator sim_;
  std::vector<net::Packet> acks_;
};

TEST_F(AdaptiveDelackFixture, QuickAcksAfterReordering) {
  TcpReceiver rcv = make_receiver(true);
  rcv.on_data(data(1));
  rcv.on_data(data(2));  // normal delayed ACK pair
  acks_.clear();
  rcv.on_data(data(4));  // hole -> trigger quickack budget
  rcv.on_data(data(3));  // fills hole
  rcv.on_data(data(5));
  rcv.on_data(data(6));
  // Adaptive: every in-order arrival inside the budget is acked at once.
  EXPECT_EQ(acks_.size(), 4u);
}

TEST_F(AdaptiveDelackFixture, BudgetDrainsBackToBatching) {
  TcpReceiver rcv = make_receiver(true);
  rcv.on_data(data(2));  // out of order: arms a quick-ACK budget of 4
  // Segments 1, 3, 4, 5 each consume one unit of the budget (instant ACKs).
  rcv.on_data(data(1));
  for (SeqNo s = 3; s <= 5; ++s) rcv.on_data(data(s));
  acks_.clear();
  rcv.on_data(data(6));  // budget exhausted: back to b=2 batching
  EXPECT_TRUE(acks_.empty());
  rcv.on_data(data(7));
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 8u);
}

TEST_F(AdaptiveDelackFixture, NonAdaptiveDoesNotQuickAckAfterReordering) {
  TcpReceiver rcv = make_receiver(false);
  rcv.on_data(data(2));  // immediate dup ACK (standard), but no budget armed
  acks_.clear();
  rcv.on_data(data(1));  // fills the hole: only 1 in-order credit -> delayed
  EXPECT_TRUE(acks_.empty());
  rcv.on_data(data(3));  // completes the b=2 batch
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 4u);
}

}  // namespace
}  // namespace hsr::tcp
