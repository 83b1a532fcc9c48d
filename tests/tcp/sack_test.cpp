// Tests for the simplified SACK implementation (RFC 2018 reporting at the
// receiver; scoreboard + hole retransmission at the sender).
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

class SackReceiverFixture : public testing::Test {
 protected:
  TcpReceiver make_receiver(bool sack) {
    TcpConfig cfg;
    cfg.delayed_ack_b = 1;
    cfg.enable_sack = sack;
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

TEST_F(SackReceiverFixture, ReportsSingleBlock) {
  TcpReceiver rcv = make_receiver(true);
  rcv.on_data(data(1));
  acks_.clear();
  rcv.on_data(data(4));  // hole at 2,3
  rcv.on_data(data(5));
  ASSERT_EQ(acks_.size(), 2u);
  EXPECT_EQ(acks_[1].ack_next, 2u);
  ASSERT_EQ(acks_[1].sack_count, 1);
  EXPECT_EQ(acks_[1].sack[0], (std::pair<SeqNo, SeqNo>{4, 6}));
}

TEST_F(SackReceiverFixture, ReportsMultipleBlocks) {
  TcpReceiver rcv = make_receiver(true);
  rcv.on_data(data(3));
  rcv.on_data(data(5));
  rcv.on_data(data(6));
  acks_.clear();
  rcv.on_data(data(9));
  ASSERT_EQ(acks_.size(), 1u);
  ASSERT_EQ(acks_[0].sack_count, 3);
  EXPECT_EQ(acks_[0].sack[0], (std::pair<SeqNo, SeqNo>{3, 4}));
  EXPECT_EQ(acks_[0].sack[1], (std::pair<SeqNo, SeqNo>{5, 7}));
  EXPECT_EQ(acks_[0].sack[2], (std::pair<SeqNo, SeqNo>{9, 10}));
}

TEST_F(SackReceiverFixture, CapsAtThreeBlocks) {
  TcpReceiver rcv = make_receiver(true);
  for (SeqNo s : {2, 4, 6, 8, 10}) rcv.on_data(data(s));
  ASSERT_FALSE(acks_.empty());
  EXPECT_EQ(acks_.back().sack_count, 3);
}

TEST_F(SackReceiverFixture, NoBlocksWhenDisabledOrInOrder) {
  TcpReceiver off = make_receiver(false);
  off.on_data(data(3));
  EXPECT_EQ(acks_.back().sack_count, 0);
  acks_.clear();

  TcpReceiver on = make_receiver(true);
  on.on_data(data(1));
  on.on_data(data(2));
  for (const auto& a : acks_) EXPECT_EQ(a.sack_count, 0);
}

class SackSenderFixture : public testing::Test {
 protected:
  TcpSender make_sender(bool sack, double cwnd = 10.0) {
    TcpConfig cfg;
    cfg.enable_sack = sack;
    cfg.initial_cwnd = cwnd;
    return TcpSender(sim_, cfg, 1,
                     [this](net::Packet p) { sent_.push_back(std::move(p)); });
  }

  static net::Packet ack(SeqNo ack_next,
                         std::vector<std::pair<SeqNo, SeqNo>> blocks = {}) {
    net::Packet p;
    p.id = net::allocate_packet_id();
    p.kind = net::PacketKind::kAck;
    p.ack_next = ack_next;
    for (const auto& b : blocks) {
      p.sack[p.sack_count++] = b;
    }
    return p;
  }

  std::vector<SeqNo> retx_seqs() const {
    std::vector<SeqNo> out;
    for (const auto& p : sent_) {
      if (p.is_retransmission) out.push_back(p.seq);
    }
    return out;
  }

  sim::Simulator sim_;
  std::vector<net::Packet> sent_;
};

TEST_F(SackSenderFixture, FastRecoveryRetransmitsOnlyHoles) {
  TcpSender snd = make_sender(true);
  snd.start();  // 1..10; 1 and 4 lost, rest delivered
  // Three dup ACKs carrying SACK info: receiver has 2,3 and 5..10.
  for (int i = 0; i < 3; ++i) {
    snd.on_ack(ack(1, {{2, 4}, {5, 11}}));
  }
  ASSERT_TRUE(snd.in_fast_recovery());
  // Fast retransmit sent seq 1. The next dup ACK repairs hole 4 instead of
  // injecting new data.
  snd.on_ack(ack(1, {{2, 4}, {5, 11}}));
  const auto retx = retx_seqs();
  ASSERT_GE(retx.size(), 2u);
  EXPECT_EQ(retx[0], 1u);
  EXPECT_EQ(retx[1], 4u);
  // Seqs 2,3,5..10 were never retransmitted.
  for (SeqNo s : retx) {
    EXPECT_TRUE(s == 1 || s == 4);
  }
}

TEST_F(SackSenderFixture, PartialAckStaysInRecoveryAndRepairsNextHole) {
  TcpSender snd = make_sender(true);
  snd.start();
  for (int i = 0; i < 3; ++i) snd.on_ack(ack(1, {{2, 4}, {5, 11}}));
  ASSERT_TRUE(snd.in_fast_recovery());
  // Retx of 1 lands: cumulative jumps to 4 (receiver has 2,3), still below
  // the recovery point.
  snd.on_ack(ack(4, {{5, 11}}));
  EXPECT_TRUE(snd.in_fast_recovery());
  const auto retx = retx_seqs();
  EXPECT_EQ(retx.back(), 4u);  // the remaining hole
  // Full ACK ends recovery.
  snd.on_ack(ack(11));
  EXPECT_FALSE(snd.in_fast_recovery());
  EXPECT_EQ(snd.stats().timeouts, 0u);
}

TEST_F(SackSenderFixture, GoBackNSkipsSackedSegments) {
  TcpSender snd = make_sender(true, 6.0);
  snd.start();  // 1..6 in flight
  // Receiver reports 3..6 received while 1,2 (and all ACK progress) die:
  // one dup ACK with SACK info, then silence until the RTO.
  snd.on_ack(ack(1, {{3, 7}}));
  sim_.run_until(util::TimePoint::from_seconds(1));  // RTO
  EXPECT_EQ(snd.stats().timeouts, 1u);
  sent_.clear();
  // Recovery ACK for the retransmitted seq 1: go-back-N resumes but must
  // skip the SACKed 3..6 and resend only seq 2.
  snd.on_ack(ack(2, {{3, 7}}));
  std::vector<SeqNo> sent;
  for (const auto& p : sent_) sent.push_back(p.seq);
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0], 2u);
  for (SeqNo s : sent) {
    EXPECT_TRUE(s == 2 || s >= 7) << "resent SACKed segment " << s;
  }
}

TEST_F(SackSenderFixture, ScoreboardPrunedOnCumulativeAck) {
  TcpSender snd = make_sender(true);
  snd.start();
  snd.on_ack(ack(1, {{3, 5}}));
  snd.on_ack(ack(6));  // cumulative past the SACKed block
  // No stale state: new transmissions continue from snd_next.
  EXPECT_EQ(snd.snd_una(), 6u);
  EXPECT_LE(snd.snd_una(), snd.snd_next());
}

TEST(SackEndToEndTest, SackBeatsGoBackNAfterBurstLoss) {
  // A downlink micro-burst kills several segments of one window; SACK must
  // deliver fewer duplicate payloads than go-back-N at equal-or-better
  // goodput.
  auto run_variant = [](bool sack) {
    sim::Simulator sim;
    TcpConfig tcp;
    tcp.receiver_window = 64;
    tcp.enable_sack = sack;
    net::LinkConfig link;  // both directions
    link.rate_bps = 10e6;
    link.prop_delay = util::Duration::millis(20);
    auto bursty = std::make_unique<net::FunctionalChannel>(
        [](const net::Packet&, util::TimePoint now) {
          const double t = now.to_seconds();
          // A 40 ms full-loss burst every 2 seconds.
          return (t > 1.0 && std::fmod(t, 2.0) < 0.04) ? 1.0 : 0.0;
        },
        [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
        util::Rng(1));
    Bottleneck conn(sim, link, link);
    conn.add_flow(1, tcp, std::move(bursty), std::make_unique<net::PerfectChannel>());
    conn.start();
    sim.run_until(util::TimePoint::from_seconds(30));
    return std::pair<std::uint64_t, std::uint64_t>(
        conn.receiver().stats().unique_segments,
        conn.receiver().stats().duplicate_segments);
  };

  const auto [gbn_unique, gbn_dups] = run_variant(false);
  const auto [sack_unique, sack_dups] = run_variant(true);
  EXPECT_LE(sack_dups, gbn_dups);
  EXPECT_GE(sack_unique, gbn_unique * 95 / 100);
}

}  // namespace
}  // namespace hsr::tcp
