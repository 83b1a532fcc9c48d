#include "trace/capture.h"

#include <gtest/gtest.h>

namespace hsr::trace {
namespace {

Packet data(std::uint64_t id, SeqNo seq) {
  Packet p;
  p.id = id;
  p.kind = net::PacketKind::kData;
  p.seq = seq;
  p.size_bytes = 1400;
  return p;
}

Packet ack(std::uint64_t id, SeqNo ack_next) {
  Packet p;
  p.id = id;
  p.kind = net::PacketKind::kAck;
  p.ack_next = ack_next;
  p.size_bytes = 52;
  return p;
}

// Records a send the way net::Link does: the tap slot on_send returns rides
// on the packet into its fate report.
Packet send(DirectionCapture& cap, Packet p, TimePoint when) {
  p.tap_slot = cap.on_send(p, when);
  return p;
}

TEST(DirectionCaptureTest, RecordsFates) {
  DirectionCapture cap;
  const Packet d1 = send(cap, data(1, 1), TimePoint::from_ns(100));
  cap.on_deliver(d1, TimePoint::from_ns(100), TimePoint::from_ns(400));
  const Packet d2 = send(cap, data(2, 2), TimePoint::from_ns(200));
  cap.on_drop(d2, TimePoint::from_ns(200), DropCause::bernoulli());

  ASSERT_EQ(cap.sent_count(), 2u);
  EXPECT_EQ(cap.lost_count(), 1u);
  EXPECT_DOUBLE_EQ(cap.loss_rate(), 0.5);

  const auto& txs = cap.transmissions();
  EXPECT_FALSE(txs[0].lost());
  EXPECT_EQ(txs[0].transit(), util::Duration::nanos(300));
  EXPECT_TRUE(txs[1].lost());
  EXPECT_EQ(*txs[1].drop_cause, DropCause::bernoulli());
}

TEST(DirectionCaptureTest, SlotsAreRecordIndicesWhateverTheIds) {
  // Ids are plain data: huge, repeated or descending ids cost nothing and
  // each fate lands on the record its slot names.
  DirectionCapture cap;
  const Packet a = send(cap, data(~std::uint64_t{0}, 1), TimePoint::from_ns(0));
  const Packet b = send(cap, data(7, 2), TimePoint::from_ns(10));
  const Packet c = send(cap, data(7, 3), TimePoint::from_ns(20));
  EXPECT_EQ(a.tap_slot, 0u);
  EXPECT_EQ(b.tap_slot, 1u);
  EXPECT_EQ(c.tap_slot, 2u);
  cap.on_drop(b, TimePoint::from_ns(10), DropCause::queue_overflow());
  cap.on_deliver(c, TimePoint::from_ns(20), TimePoint::from_ns(50));
  cap.on_deliver(a, TimePoint::from_ns(0), TimePoint::from_ns(90));

  const auto& txs = cap.transmissions();
  ASSERT_EQ(txs.size(), 3u);
  EXPECT_EQ(*txs[0].arrived, TimePoint::from_ns(90));
  EXPECT_TRUE(txs[1].lost());
  EXPECT_EQ(*txs[1].drop_cause, DropCause::queue_overflow());
  EXPECT_EQ(*txs[2].arrived, TimePoint::from_ns(50));
}

TEST(DirectionCaptureTest, MeanTransitOverDeliveredOnly) {
  DirectionCapture cap;
  cap.on_deliver(send(cap, data(1, 1), TimePoint::from_ns(0)), TimePoint::from_ns(0),
                 TimePoint::from_ns(100));
  cap.on_deliver(send(cap, data(2, 2), TimePoint::from_ns(0)), TimePoint::from_ns(0),
                 TimePoint::from_ns(300));
  cap.on_drop(send(cap, data(3, 3), TimePoint::from_ns(0)), TimePoint::from_ns(0),
              DropCause::queue_overflow());
  EXPECT_EQ(cap.mean_transit(), util::Duration::nanos(200));
}

TEST(DirectionCaptureTest, EmptyCaptureIsSafe) {
  DirectionCapture cap;
  EXPECT_EQ(cap.sent_count(), 0u);
  EXPECT_DOUBLE_EQ(cap.loss_rate(), 0.0);
  EXPECT_EQ(cap.mean_transit(), util::Duration::zero());
}

TEST(FlowCaptureTest, UniqueSegmentsCountsDistinctDeliveries) {
  FlowCapture cap;
  cap.data.on_deliver(send(cap.data, data(1, 5), TimePoint::from_ns(0)),
                      TimePoint::from_ns(0), TimePoint::from_ns(10));
  // Duplicate delivery of seq 5.
  cap.data.on_deliver(send(cap.data, data(2, 5), TimePoint::from_ns(20)),
                      TimePoint::from_ns(20), TimePoint::from_ns(30));
  cap.data.on_drop(send(cap.data, data(3, 6), TimePoint::from_ns(40)),
                   TimePoint::from_ns(40), DropCause::bernoulli());
  EXPECT_EQ(cap.unique_segments_delivered(), 1u);
  EXPECT_EQ(cap.highest_delivered_seq(), 5u);
}

TEST(FlowCaptureTest, SpanCoversBothDirections) {
  FlowCapture cap;
  cap.data.on_deliver(send(cap.data, data(1, 1), TimePoint::from_ns(100)),
                      TimePoint::from_ns(100), TimePoint::from_ns(250));
  cap.acks.on_deliver(send(cap.acks, ack(2, 2), TimePoint::from_ns(300)),
                      TimePoint::from_ns(300), TimePoint::from_ns(500));
  EXPECT_EQ(cap.span(), util::Duration::nanos(400));
}

TEST(FlowCaptureTest, EstimatedRttSumsDirections) {
  FlowCapture cap;
  cap.data.on_deliver(send(cap.data, data(1, 1), TimePoint::from_ns(0)),
                      TimePoint::from_ns(0), TimePoint::from_ns(1000));
  cap.acks.on_deliver(send(cap.acks, ack(2, 2), TimePoint::from_ns(1000)),
                      TimePoint::from_ns(1000), TimePoint::from_ns(1500));
  EXPECT_EQ(cap.estimated_rtt(), util::Duration::nanos(1500));
}

TEST(FlowCaptureTest, EmptySpanIsZero) {
  FlowCapture cap;
  EXPECT_EQ(cap.span(), util::Duration::zero());
  EXPECT_EQ(cap.unique_segments_delivered(), 0u);
  EXPECT_EQ(cap.highest_delivered_seq(), 0u);
}

TEST(DirectionCaptureDeathTest, DropForUnseenPacketAborts) {
  DirectionCapture cap;
  EXPECT_DEATH(cap.on_drop(data(99, 1), TimePoint::zero(), DropCause::bernoulli()),
               "unseen");
}

TEST(DirectionCaptureDeathTest, SlotNamingAnotherPacketAborts) {
  DirectionCapture cap;
  send(cap, data(1, 1), TimePoint::zero());
  Packet other = send(cap, data(2, 2), TimePoint::zero());
  other.tap_slot = 0;  // slot 0 holds packet 1
  EXPECT_DEATH(cap.on_deliver(other, TimePoint::zero(), TimePoint::from_ns(5)),
               "another packet's slot");
  EXPECT_DEATH(cap.on_drop(other, TimePoint::zero(), DropCause::bernoulli()),
               "another packet's slot");
}

}  // namespace
}  // namespace hsr::trace
