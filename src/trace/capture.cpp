#include "trace/capture.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace hsr::trace {

void FlowCapture::reserve_for(Duration duration, double data_rate_bps,
                              std::uint32_t mss_bytes) {
  if (duration <= Duration::zero() || data_rate_bps <= 0.0 || mss_bytes == 0) {
    return;
  }
  const double segments =
      duration.to_seconds() * data_rate_bps / (8.0 * static_cast<double>(mss_bytes));
  // Full saturated-link estimate, clamped. (This used to reserve a quarter
  // tranche and let vector doubling absorb the rest; the growth that saved
  // memory up front cost reallocations mid-flow, which the steady-state
  // zero-allocation contract — FlowAllocTest, bench_hotpath — now forbids.)
  const std::size_t data_reserve = std::clamp(
      segments >= static_cast<double>(kMaxReserveTx)
          ? kMaxReserveTx
          : static_cast<std::size_t>(segments),
      kMinReserveTx, kMaxReserveTx);
  data.reserve(data_reserve);
  // ACK-direction upper bound: the receiver never sends more ACKs than it
  // received segments (quickack and the delack timer only close the gap
  // toward one-per-segment), so the data-side estimate covers ACKs too.
  acks.reserve(data_reserve);
}

void DirectionCapture::reserve(std::size_t expected_transmissions) {
  txs_.reserve(expected_transmissions);
}

// HSR_HOT_PATH_BEGIN — one append per send and one indexed write per fate:
// no lookup table, nothing keyed by packet id.
std::uint32_t DirectionCapture::on_send(const Packet& packet, TimePoint when) {
  HSR_CHECK_MSG(txs_.size() < std::numeric_limits<std::uint32_t>::max(),
                "capture direction outgrew its 32-bit tap slots");
  const auto slot = static_cast<std::uint32_t>(txs_.size());
  // Record in place: no Transmission temporary on the per-packet path.
  Transmission& tx = txs_.emplace_back();  // hsr-lint-ok: pre-sized by reserve_for
  tx.packet = packet;
  tx.sent = when;
  return slot;
}

Transmission& DirectionCapture::record_of(const Packet& packet) {
  HSR_CHECK_MSG(packet.tap_slot < txs_.size(), "fate report for unseen packet");
  Transmission& tx = txs_[packet.tap_slot];
  HSR_CHECK_MSG(tx.packet.id == packet.id, "fate report names another packet's slot");
  return tx;
}

void DirectionCapture::on_drop(const Packet& packet, TimePoint when,
                               const DropCause& cause) {
  (void)when;
  record_of(packet).drop_cause = cause;
  ++lost_;
}

void DirectionCapture::on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) {
  (void)sent;
  record_of(packet).arrived = arrived;
}
// HSR_HOT_PATH_END

Duration DirectionCapture::mean_transit() const {
  std::int64_t total_ns = 0;
  std::int64_t n = 0;
  for (const auto& tx : txs_) {
    if (tx.arrived) {
      total_ns += tx.transit().ns();
      ++n;
    }
  }
  if (n == 0) return Duration::zero();
  return Duration::nanos(total_ns / n);
}

SeqNo FlowCapture::highest_delivered_seq() const {
  SeqNo best = 0;
  for (const auto& tx : data.transmissions()) {
    if (tx.arrived) best = std::max(best, tx.packet.seq);
  }
  return best;
}

SeqSlots::SeqSlots(const std::vector<Transmission>& txs) {
  if (txs.empty()) return;
  SeqNo lo = txs.front().packet.seq;
  SeqNo hi = lo;
  for (const auto& tx : txs) {
    lo = std::min(lo, tx.packet.seq);
    hi = std::max(hi, tx.packet.seq);
  }
  min_ = lo;
  if (hi - lo < 2 * static_cast<std::uint64_t>(txs.size())) {
    size_ = static_cast<std::size_t>(hi - lo) + 1;
    return;
  }
  sparse_.resize(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) sparse_[i] = txs[i].packet.seq;
  std::sort(sparse_.begin(), sparse_.end());
  sparse_.erase(std::unique(sparse_.begin(), sparse_.end()), sparse_.end());
  size_ = sparse_.size();
}

std::size_t SeqSlots::rank(SeqNo seq) const {
  return static_cast<std::size_t>(
      std::lower_bound(sparse_.begin(), sparse_.end(), seq) - sparse_.begin());
}

std::size_t SeqSlots::find(SeqNo seq) const {
  if (sparse_.empty()) {
    const SeqNo offset = seq - min_;  // wraps above size_ when seq < min_
    return offset < size_ ? static_cast<std::size_t>(offset) : kNone;
  }
  const std::size_t r = rank(seq);
  return r < size_ && sparse_[r] == seq ? r : kNone;
}

std::uint64_t FlowCapture::unique_segments_delivered() const {
  const auto& txs = data.transmissions();
  const SeqSlots slots(txs);
  std::vector<std::uint8_t> delivered(slots.size(), 0);
  std::uint64_t unique = 0;
  // HSR_HOT_PATH_BEGIN — one slot lookup and one byte per transmission.
  for (const auto& tx : txs) {
    if (!tx.arrived) continue;
    std::uint8_t& seen = delivered[slots.slot(tx.packet.seq)];
    if (seen == 0) ++unique;
    seen = 1;
  }
  // HSR_HOT_PATH_END
  return unique;
}

Duration FlowCapture::span() const {
  TimePoint first = TimePoint::max();
  TimePoint last = TimePoint::zero();
  auto scan = [&](const DirectionCapture& dir) {
    for (const auto& tx : dir.transmissions()) {
      first = std::min(first, tx.sent);
      last = std::max(last, tx.sent);
      if (tx.arrived) last = std::max(last, *tx.arrived);
    }
  };
  scan(data);
  scan(acks);
  if (first == TimePoint::max()) return Duration::zero();
  return last - first;
}

Duration FlowCapture::estimated_rtt() const {
  return data.mean_transit() + acks.mean_transit();
}

}  // namespace hsr::trace
