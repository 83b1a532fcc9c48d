#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace hsr::net {
namespace {

Packet data_packet(std::uint32_t size = 1000) {
  Packet p;
  p.id = allocate_packet_id();
  p.kind = PacketKind::kData;
  p.size_bytes = size;
  return p;
}

std::unique_ptr<ChannelModel> perfect() { return std::make_unique<PerfectChannel>(); }

class RecordingTap : public LinkTap {
 public:
  struct Drop {
    std::uint64_t id;
    DropCause cause;
    std::uint32_t slot;
  };
  // Hands out distinct tokens that are not record indices, so a test sees
  // whether each fate report carries back its own send's token.
  std::uint32_t on_send(const Packet& p, TimePoint) override {
    sends.push_back(p.id);
    tokens.push_back(1000 + 7 * static_cast<std::uint32_t>(tokens.size()));
    return tokens.back();
  }
  void on_drop(const Packet& p, TimePoint, const DropCause& c) override {
    drops.push_back({p.id, c, p.tap_slot});
  }
  void on_deliver(const Packet& p, TimePoint sent, TimePoint arrived) override {
    delivers.push_back(p.id);
    delivered_slots.push_back(p.tap_slot);
    transits.push_back(arrived - sent);
  }
  // The token on_send returned for packet `id`.
  std::uint32_t token_of(std::uint64_t id) const {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i] == id) return tokens[i];
    }
    ADD_FAILURE() << "packet " << id << " was never sent";
    return 0;
  }
  std::vector<std::uint64_t> sends, delivers;
  std::vector<std::uint32_t> tokens, delivered_slots;
  std::vector<Drop> drops;
  std::vector<Duration> transits;
};

// Plays back one verdict per packet, in send order; delivers plainly after.
class ScriptedChannel final : public ChannelModel {
 public:
  explicit ScriptedChannel(std::vector<ChannelVerdict> verdicts)
      : verdicts_(std::move(verdicts)) {}
  ChannelVerdict decide(const Packet&, TimePoint) override {
    return next_ < verdicts_.size() ? verdicts_[next_++] : ChannelVerdict::deliver();
  }

 private:
  std::vector<ChannelVerdict> verdicts_;
  std::size_t next_ = 0;
};

TEST(LinkTest, DeliversWithSerializationPlusPropagation) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = Duration::millis(10);
  Link link(sim, cfg);

  TimePoint arrival;
  link.register_endpoint(0, perfect(), [&](const Packet&) { arrival = sim.now(); });
  link.send(data_packet(1000));  // 1ms serialization
  sim.run();
  EXPECT_EQ(arrival, TimePoint::zero() + Duration::millis(11));
  EXPECT_EQ(link.stats().sent, 1u);
  EXPECT_EQ(link.stats().delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 1000u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);

  std::vector<TimePoint> arrivals;
  link.register_endpoint(0, perfect(),
                         [&](const Packet&) { arrivals.push_back(sim.now()); });
  link.send(data_packet(1000));  // finishes at 1ms
  link.send(data_packet(1000));  // finishes at 2ms
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], TimePoint::zero() + Duration::millis(1));
  EXPECT_EQ(arrivals[1], TimePoint::zero() + Duration::millis(2));
}

TEST(LinkTest, PreservesFifoOrderWithoutJitter) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.queue_capacity = 100;
  Link link(sim, cfg);

  std::vector<std::uint64_t> seen;
  link.register_endpoint(0, perfect(), [&](const Packet& p) { seen.push_back(p.seq); });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Packet p = data_packet();
    p.seq = i;
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(seen.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(LinkTest, DropTailOnQueueOverflow) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e3;  // 1ms per byte: long queue residence
  cfg.queue_capacity = 3;
  Link link(sim, cfg);
  RecordingTap tap;
  link.register_endpoint(0, perfect(), [](const Packet&) {}, &tap);

  for (int i = 0; i < 5; ++i) link.send(data_packet(100));
  sim.run();
  EXPECT_EQ(link.stats().sent, 5u);
  EXPECT_EQ(link.stats().dropped_queue(), 2u);
  EXPECT_EQ(link.stats().delivered, 3u);
  ASSERT_EQ(tap.drops.size(), 2u);
  EXPECT_EQ(tap.drops[0].cause.category, DropCategory::kQueueOverflow);
  EXPECT_TRUE(tap.drops[0].cause.is_queue());
  for (const auto& drop : tap.drops) EXPECT_EQ(drop.slot, tap.token_of(drop.id));
  EXPECT_EQ(tap.drops[0].slot, tap.tokens[3]);
  EXPECT_EQ(tap.drops[1].slot, tap.tokens[4]);
}

TEST(LinkTest, QueueDrainsOverTime) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.queue_capacity = 2;
  Link link(sim, cfg);
  link.register_endpoint(0, perfect(), [](const Packet&) {});

  link.send(data_packet(1000));
  link.send(data_packet(1000));
  EXPECT_EQ(link.queue_depth(), 2u);
  sim.run();
  EXPECT_EQ(link.queue_depth(), 0u);
  // Capacity is available again.
  link.send(data_packet(1000));
  sim.run();
  EXPECT_EQ(link.stats().dropped_queue(), 0u);
  EXPECT_EQ(link.stats().delivered, 3u);
}

TEST(LinkTest, ChannelLossCountsAndReportsToTap) {
  sim::Simulator sim;
  LinkConfig cfg;
  Link link(sim, cfg);
  RecordingTap tap;
  int received = 0;
  link.register_endpoint(0, std::make_unique<BernoulliChannel>(1.0, util::Rng(1)),
                         [&](const Packet&) { ++received; }, &tap);

  link.send(data_packet());
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.stats().dropped_channel(), 1u);
  EXPECT_EQ(link.stats().dropped_by(DropCategory::kBernoulli), 1u);
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0].cause.category, DropCategory::kBernoulli);
  EXPECT_TRUE(tap.drops[0].cause.is_channel());
  EXPECT_EQ(tap.drops[0].slot, tap.token_of(tap.drops[0].id));
  EXPECT_DOUBLE_EQ(link.stats().loss_rate(), 1.0);
}

TEST(LinkTest, ChannelDropsAmongDeliveriesCarryTheirOwnTokens) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  link.register_endpoint(
      0,
      std::make_unique<ScriptedChannel>(std::vector<ChannelVerdict>{
          ChannelVerdict::deliver(), ChannelVerdict::drop(DropCause::bernoulli()),
          ChannelVerdict::deliver(), ChannelVerdict::drop(DropCause::scripted(2))}),
      [](const Packet&) {}, &tap);
  for (int i = 0; i < 4; ++i) link.send(data_packet());
  sim.run();
  ASSERT_EQ(tap.drops.size(), 2u);
  EXPECT_EQ(tap.drops[0].slot, tap.tokens[1]);
  EXPECT_EQ(tap.drops[1].slot, tap.tokens[3]);
  EXPECT_EQ(tap.delivered_slots, (std::vector<std::uint32_t>{tap.tokens[0], tap.tokens[2]}));
}

TEST(LinkTest, EveryDuplicateCopyCarriesTheSendsToken) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  int received = 0;
  link.register_endpoint(
      0,
      std::make_unique<ScriptedChannel>(std::vector<ChannelVerdict>{
          ChannelVerdict::deliver(Duration::zero(), /*copies=*/2),
          ChannelVerdict::deliver(Duration::zero(), /*copies=*/1)}),
      [&](const Packet&) { ++received; }, &tap);
  link.send(data_packet());
  link.send(data_packet());
  sim.run();
  EXPECT_EQ(received, 5);
  ASSERT_EQ(tap.delivers.size(), 5u);
  for (std::size_t i = 0; i < tap.delivers.size(); ++i) {
    EXPECT_EQ(tap.delivered_slots[i], tap.token_of(tap.delivers[i])) << "copy " << i;
  }
  EXPECT_EQ(std::count(tap.delivered_slots.begin(), tap.delivered_slots.end(), tap.tokens[0]),
            3);
  EXPECT_EQ(std::count(tap.delivered_slots.begin(), tap.delivered_slots.end(), tap.tokens[1]),
            2);
}

TEST(LinkTest, ReorderedDeliveriesCarryTheirOwnTokens) {
  // Jitter delays the first two packets past the last two: arrival order
  // is 3, 4, 2, 1 while each delivery still names its own send.
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  link.register_endpoint(
      0,
      std::make_unique<ScriptedChannel>(std::vector<ChannelVerdict>{
          ChannelVerdict::deliver(Duration::millis(40)),
          ChannelVerdict::deliver(Duration::millis(20)), ChannelVerdict::deliver(),
          ChannelVerdict::deliver()}),
      [](const Packet&) {}, &tap);
  for (int i = 0; i < 4; ++i) link.send(data_packet());
  sim.run();
  ASSERT_EQ(tap.delivers.size(), 4u);
  EXPECT_EQ(tap.delivers, (std::vector<std::uint64_t>{tap.sends[2], tap.sends[3],
                                                      tap.sends[1], tap.sends[0]}));
  EXPECT_EQ(tap.delivered_slots, (std::vector<std::uint32_t>{tap.tokens[2], tap.tokens[3],
                                                             tap.tokens[1], tap.tokens[0]}));
}

TEST(LinkTest, StatsLossRateMixed) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.queue_capacity = 1000;
  Link link(sim, cfg);
  link.register_endpoint(0, std::make_unique<BernoulliChannel>(0.2, util::Rng(33)),
                         [](const Packet&) {});
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    link.send(data_packet(100));
    sim.run();  // drain each time so the queue never overflows
  }
  EXPECT_EQ(link.stats().sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(link.stats().loss_rate(), 0.2, 0.02);
  EXPECT_EQ(link.stats().dropped_queue(), 0u);
  EXPECT_EQ(link.stats().dropped_total(), link.stats().dropped_channel());
}

TEST(LinkTest, TapSeesEverySend) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  link.register_endpoint(0, perfect(), [](const Packet&) {}, &tap);
  for (int i = 0; i < 7; ++i) link.send(data_packet());
  sim.run();
  EXPECT_EQ(tap.sends.size(), 7u);
  EXPECT_EQ(tap.delivers.size(), 7u);
}

TEST(LinkTest, StampsSentAt) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  TimePoint stamped;
  link.register_endpoint(0, perfect(), [&](const Packet& p) { stamped = p.sent_at; });
  sim.after(Duration::millis(5), [&] { link.send(data_packet()); });
  sim.run();
  EXPECT_EQ(stamped, TimePoint::zero() + Duration::millis(5));
}

// --- per-flow endpoints ------------------------------------------------------

Packet flow_packet(FlowId flow, std::uint32_t size = 1000) {
  Packet p = data_packet(size);
  p.flow = flow;
  return p;
}

TEST(LinkEndpointTest, RoutesEachFlowToItsOwnReceiver) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  std::vector<FlowId> to_one, to_two;
  link.register_endpoint(1, perfect(),
                         [&](const Packet& p) { to_one.push_back(p.flow); });
  link.register_endpoint(2, perfect(),
                         [&](const Packet& p) { to_two.push_back(p.flow); });
  EXPECT_TRUE(link.has_endpoint(1));
  EXPECT_FALSE(link.has_endpoint(3));
  EXPECT_EQ(link.endpoint_count(), 2u);

  link.send(flow_packet(1));
  link.send(flow_packet(2));
  link.send(flow_packet(1));
  sim.run();
  EXPECT_EQ(to_one, (std::vector<FlowId>{1, 1}));
  EXPECT_EQ(to_two, (std::vector<FlowId>{2}));
}

TEST(LinkEndpointTest, EachFlowCrossesItsOwnChannel) {
  // Flow 1's channel kills everything, flow 2's is clean: only the owning
  // flow's channel decides a packet's fate.
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap1, tap2;
  link.register_endpoint(1, std::make_unique<BernoulliChannel>(1.0, util::Rng(1)),
                         [](const Packet&) {}, &tap1);
  link.register_endpoint(2, perfect(), [](const Packet&) {}, &tap2);

  link.send(flow_packet(1));
  link.send(flow_packet(2));
  sim.run();
  EXPECT_EQ(tap1.drops.size(), 1u);
  EXPECT_TRUE(tap1.delivers.empty());
  EXPECT_TRUE(tap2.drops.empty());
  EXPECT_EQ(tap2.delivers.size(), 1u);
  EXPECT_EQ(link.endpoint_stats(1).dropped_channel(), 1u);
  EXPECT_EQ(link.endpoint_stats(2).delivered, 1u);
}

TEST(LinkEndpointTest, ChannelVerdictReachesTheTapUntouched) {
  // The endpoint adds no attribution of its own: a drop reads exactly as the
  // flow's channel decided it (no composite component path), which keeps a
  // one-flow link bit-identical to the channel alone.
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  link.register_endpoint(1, std::make_unique<BernoulliChannel>(1.0, util::Rng(7)),
                         [](const Packet&) {}, &tap);
  link.send(flow_packet(1));
  sim.run();
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0].cause.category, DropCategory::kBernoulli);
  EXPECT_FALSE(tap.drops[0].cause.has_component());
}

TEST(LinkEndpointTest, EachFlowKeepsItsOwnChannelState) {
  // Two Bernoulli channels with the same seed stay in lockstep only if each
  // flow consumes its OWN randomness stream.
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.queue_capacity = 1000;
  Link link(sim, cfg);
  std::vector<SeqNo> got_one, got_two;
  link.register_endpoint(1, std::make_unique<BernoulliChannel>(0.5, util::Rng(11)),
                         [&](const Packet& p) { got_one.push_back(p.seq); });
  link.register_endpoint(2, std::make_unique<BernoulliChannel>(0.5, util::Rng(11)),
                         [&](const Packet& p) { got_two.push_back(p.seq); });
  for (SeqNo i = 1; i <= 64; ++i) {
    Packet a = flow_packet(1);
    a.seq = i;
    link.send(a);
    Packet b = flow_packet(2);
    b.seq = i;
    link.send(b);
  }
  sim.run();
  EXPECT_FALSE(got_one.empty());
  EXPECT_LT(got_one.size(), 64u);
  EXPECT_EQ(got_one, got_two);
}

TEST(LinkEndpointTest, SplitsStatsPerFlowAndSumsToAggregate) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  link.register_endpoint(1, perfect(), [](const Packet&) {});
  link.register_endpoint(2, perfect(), [](const Packet&) {});

  link.send(flow_packet(1, 500));
  link.send(flow_packet(1, 500));
  link.send(flow_packet(2, 700));
  sim.run();
  EXPECT_EQ(link.endpoint_stats(1).sent, 2u);
  EXPECT_EQ(link.endpoint_stats(1).delivered, 2u);
  EXPECT_EQ(link.endpoint_stats(1).bytes_delivered, 1000u);
  EXPECT_EQ(link.endpoint_stats(2).sent, 1u);
  EXPECT_EQ(link.endpoint_stats(2).bytes_delivered, 700u);
  EXPECT_EQ(link.stats().sent,
            link.endpoint_stats(1).sent + link.endpoint_stats(2).sent);
  EXPECT_EQ(link.stats().delivered,
            link.endpoint_stats(1).delivered + link.endpoint_stats(2).delivered);
}

TEST(LinkEndpointTest, TwoFlowsShareOneFifoQueue) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1ms per 1000-byte packet
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);
  std::vector<FlowId> order;
  link.register_endpoint(1, perfect(), [&](const Packet& p) { order.push_back(p.flow); });
  link.register_endpoint(2, perfect(), [&](const Packet& p) { order.push_back(p.flow); });

  // Interleaved arrivals serialize through the ONE transmitter in FIFO
  // order — flow 2's packet waits behind flow 1's, not on a private queue.
  link.send(flow_packet(1));
  link.send(flow_packet(2));
  link.send(flow_packet(1));
  link.send(flow_packet(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<FlowId>{1, 2, 1, 2}));
}

TEST(LinkEndpointTest, QueueOverflowDropsAttributeToTheArrivingFlow) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e3;  // slow: everything queues
  cfg.queue_capacity = 2;
  Link link(sim, cfg);
  RecordingTap tap1, tap2;
  link.register_endpoint(1, perfect(), [](const Packet&) {}, &tap1);
  link.register_endpoint(2, perfect(), [](const Packet&) {}, &tap2);

  // Flow 1 fills the shared queue; flow 2's arrivals are the ones tail-
  // dropped, and the drop lands in FLOW 2's stats and tap.
  link.send(flow_packet(1, 100));
  link.send(flow_packet(1, 100));
  link.send(flow_packet(2, 100));
  link.send(flow_packet(2, 100));
  sim.run();
  EXPECT_EQ(link.endpoint_stats(1).dropped_queue(), 0u);
  EXPECT_EQ(link.endpoint_stats(2).dropped_queue(), 2u);
  EXPECT_EQ(link.stats().dropped_queue(), 2u);
  EXPECT_TRUE(tap1.drops.empty());
  ASSERT_EQ(tap2.drops.size(), 2u);
  EXPECT_EQ(tap2.drops[0].cause.category, DropCategory::kQueueOverflow);
  EXPECT_EQ(link.endpoint_stats(1).delivered, 2u);
  EXPECT_EQ(link.endpoint_stats(2).delivered, 0u);
}

TEST(LinkEndpointDeathTest, RejectsDuplicateAndUnknownFlows) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  link.register_endpoint(1, perfect(), [](const Packet&) {});
  EXPECT_DEATH(link.register_endpoint(1, perfect(), [](const Packet&) {}),
               "already has an endpoint");
  EXPECT_DEATH(link.endpoint_stats(7), "unregistered flow");
  // A packet of a flow without an endpoint has nowhere to go.
  EXPECT_DEATH(link.send(flow_packet(9)), "no endpoint");
}

TEST(LinkEndpointDeathTest, RejectsNullChannelAndReceiver) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  EXPECT_DEATH(link.register_endpoint(1, nullptr, [](const Packet&) {}), "channel");
  EXPECT_DEATH(link.register_endpoint(1, perfect(), Link::Receiver{}), "receiver");
}

TEST(LinkDeathTest, RejectsBadConfig) {
  sim::Simulator sim;
  LinkConfig zero_rate;
  zero_rate.rate_bps = 0.0;
  EXPECT_DEATH(Link(sim, zero_rate), "rate");
  LinkConfig zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_DEATH(Link(sim, zero_queue), "queue");
}

}  // namespace
}  // namespace hsr::net
