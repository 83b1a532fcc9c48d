// Packet capture: the simulation's substitute for the paper's wireshark /
// shark captures at the phone and the server.
//
// A DirectionCapture taps one link and records every transmission together
// with its fate (delivered at some time, or lost). A FlowCapture bundles the
// data direction and the ACK direction of one TCP flow. The analysis module
// consumes these records exactly as the paper's methodology consumes
// endpoint captures; it must not peek at the stack's internal state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "util/time.h"

namespace hsr::trace {

using net::DropCause;
using net::Packet;
using net::SeqNo;
using util::Duration;
using util::TimePoint;

// One scripted fault that fired on a packet (fault::FaultInjector audit
// trail). Stored alongside the transmissions so an archived trace explains
// WHY a packet died or stalled — a channel-loss drop caused by a scripted
// blackout is distinguishable from organic radio loss during re-analysis.
struct FaultRecord {
  TimePoint when;
  char direction = '?';          // 'D' data link, 'A' ACK link
  std::uint64_t packet_id = 0;
  SeqNo seq = 0;                 // seq for data packets, ack_next for ACKs
  net::PacketKind kind = net::PacketKind::kData;
  std::uint32_t directive = 0;   // index of the directive in the FaultPlan
  char action = 'X';             // 'X' drop, 'L' delay, '2' duplicate
  Duration delay;                // extra latency (delay actions only)
  std::string label;             // directive label (no whitespace)
};

// One packet put on the wire, with its observed fate.
struct Transmission {
  Packet packet;                       // header as sent
  TimePoint sent;
  std::optional<TimePoint> arrived;    // nullopt => lost
  // Structured attribution for lost packets: WHY the packet died (category
  // plus composite-component / scripted-directive indices). nullopt for
  // delivered packets and for packets still in flight at capture end.
  std::optional<DropCause> drop_cause;

  bool lost() const { return !arrived.has_value(); }
  // One-way transit time; only valid when delivered.
  Duration transit() const { return *arrived - sent; }
};

class DirectionCapture final : public net::LinkTap {
 public:
  // Pre-sizes the transmission log for an expected packet count, so
  // steady-state recording appends with no reallocation. Call once before
  // the simulation starts; growth beyond the reservation falls back to the
  // vector's own geometric resizing.
  void reserve(std::size_t expected_transmissions);

  // Appends the send record and returns its index as the tap slot; a fate
  // report finds the record through packet.tap_slot and CHECKs that it is
  // this packet's.
  std::uint32_t on_send(const Packet& packet, TimePoint when) override;
  void on_drop(const Packet& packet, TimePoint when, const DropCause& cause) override;
  void on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) override;

  const std::vector<Transmission>& transmissions() const { return txs_; }

  std::uint64_t sent_count() const { return txs_.size(); }
  std::uint64_t lost_count() const { return lost_; }
  double loss_rate() const {
    return txs_.empty() ? 0.0
                        : static_cast<double>(lost_) / static_cast<double>(txs_.size());
  }
  // Mean one-way transit time over delivered packets.
  Duration mean_transit() const;

 private:
  // The record a fate report names (checked).
  Transmission& record_of(const Packet& packet);

  std::vector<Transmission> txs_;
  std::uint64_t lost_ = 0;
};

// Dense index over the distinct seqs that one direction's transmissions
// carry: slot(seq) lies in [0, size()). The simulator numbers segments from
// 1 without gaps, so a capture's seqs span no more values than it holds
// transmissions and a slot is just seq - min. Seqs spread wider than twice
// the transmission count (a hand-written or hostile capture: seqs near
// 2^63) get a sorted table of the distinct seqs instead, so memory stays
// O(transmissions) whatever the span.
class SeqSlots {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit SeqSlots(const std::vector<Transmission>& txs);

  std::size_t size() const { return size_; }
  // Slot of a seq that some transmission carries.
  std::size_t slot(SeqNo seq) const {
    return sparse_.empty() ? static_cast<std::size_t>(seq - min_) : rank(seq);
  }
  // Slot of `seq` (dense: any seq in [min, min + size)), or kNone.
  std::size_t find(SeqNo seq) const;

 private:
  std::size_t rank(SeqNo seq) const;

  SeqNo min_ = 0;
  std::size_t size_ = 0;
  std::vector<SeqNo> sparse_;  // distinct seqs, ascending; empty when dense
};

// Both directions of one flow.
struct FlowCapture {
  net::FlowId flow = 0;
  DirectionCapture data;  // downlink: data segments
  DirectionCapture acks;  // uplink: acknowledgements
  // Scripted-fault audit trail, in trigger order (empty for organic runs).
  std::vector<FaultRecord> faults;

  // Flow-duration heuristic reserve: pre-sizes both directions for a flow
  // expected to run `duration` over a data link of `data_rate_bps`, sending
  // `mss_bytes` segments. The estimate assumes a saturated downlink (the
  // paper's bulk downloads), so it is an upper bound for loss- or
  // cwnd-limited flows — and it also bounds the ACK direction, since the
  // receiver never acknowledges more segments than arrived. The full
  // estimate is reserved up front (steady-state capture recording must not
  // reallocate — the zero-allocs-per-event contract), clamped to
  // [kMinReserveTx, kMaxReserveTx] so degenerate configs neither skip the
  // reserve nor overcommit memory.
  void reserve_for(Duration duration, double data_rate_bps,
                   std::uint32_t mss_bytes);

  static constexpr std::size_t kMinReserveTx = 1024;
  static constexpr std::size_t kMaxReserveTx = std::size_t{1} << 20;

  double data_loss_rate() const { return data.loss_rate(); }
  double ack_loss_rate() const { return acks.loss_rate(); }

  // Highest data segment number that reached the receiver at least once.
  SeqNo highest_delivered_seq() const;
  // Count of distinct data segments delivered at least once (goodput basis).
  std::uint64_t unique_segments_delivered() const;
  // Duration from first to last captured event.
  Duration span() const;
  // Estimated path RTT: mean data transit + mean ACK transit.
  Duration estimated_rtt() const;
};

}  // namespace hsr::trace
