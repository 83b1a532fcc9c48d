#include "analysis/flow_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/logging.h"

namespace hsr::analysis {

namespace {

struct AckArrival {
  TimePoint when;
  SeqNo ack_next;
};

// Index of the first arrival with when > t.
std::size_t first_arrival_after(const std::vector<AckArrival>& arrivals, TimePoint t) {
  return static_cast<std::size_t>(
      std::upper_bound(arrivals.begin(), arrivals.end(), t,
                       [](TimePoint value, const AckArrival& a) { return value < a.when; }) -
      arrivals.begin());
}

std::size_t count_arrived(const std::vector<trace::Transmission>& txs) {
  return static_cast<std::size_t>(std::count_if(
      txs.begin(), txs.end(), [](const trace::Transmission& tx) { return !tx.lost(); }));
}

// Classification of every data transmission.
enum class TxClass : std::uint8_t { kFirstSend, kRtoRetx, kFastRetx, kAckDrivenResend };

// Per data transmission: its TxClass in the low bits, plus two marks.
constexpr std::uint8_t kClassMask = 3;
constexpr std::uint8_t kEarlierCopyArrived = 4;  // an earlier send of the seq was delivered
constexpr std::uint8_t kConsumed = 8;            // counted in a timeout sequence already

// Per seq slot while the sends are walked in capture order.
constexpr std::uint8_t kSlotSent = 1;
constexpr std::uint8_t kSlotArrived = 2;

// Index tables over one capture, built in linear passes (DESIGN.md §6e).
// Every data seq owns a slot (trace::SeqSlots); the sends of a slot and the
// arrivals of ACKs naming it are grouped by counting-sort offsets (CSR).
struct FlowTables {
  const std::vector<trace::Transmission>& txs;
  trace::SeqSlots slots;
  std::vector<std::uint32_t> slot_of;     // per data transmission
  std::vector<std::uint32_t> send_begin;  // per slot + 1: offsets into sends
  std::vector<std::uint32_t> sends;       // data tx indices by slot, capture order
  std::vector<std::uint8_t> slot_state;   // per slot: kSlotSent | kSlotArrived
  std::vector<std::uint8_t> tx_flags;     // per data transmission: TxClass + marks
  std::vector<AckArrival> arrivals;       // ACKs that reached the sender, by arrival time
  // Per slot + 1: offsets into ack_times, which holds the arrival times of
  // the ACKs whose ack_next names the slot's seq, in time order. Only slots
  // sent more than once need them (duplicate-ACK counts between two sends).
  std::vector<std::uint32_t> ack_begin;
  std::vector<TimePoint> ack_times;
  std::uint64_t first_sends = 0;
  std::uint64_t first_sends_lost = 0;
  std::size_t rto_count = 0;
  unsigned fast_count = 0;

  FlowTables(const trace::FlowCapture& capture, const AnalysisConfig& cfg)
      : txs(capture.data.transmissions()),
        slots(txs),
        slot_of(txs.size()),
        send_begin(slots.size() + 1, 0),
        sends(txs.size()),
        slot_state(slots.size(), 0),
        tx_flags(txs.size(), 0),
        arrivals(count_arrived(capture.acks.transmissions())),
        ack_begin(slots.size() + 1, 0),
        ack_times(arrivals.size()) {
    constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
    HSR_CHECK_MSG(slots.size() < kMaxIndex && txs.size() < kMaxIndex &&
                      arrivals.size() < kMaxIndex,
                  "capture too large for 32-bit table indices");
    group_sends_and_arrivals(capture.acks.transmissions());
    classify(cfg);
  }

  TxClass class_of(std::size_t i) const {
    return static_cast<TxClass>(tx_flags[i] & kClassMask);
  }

  // Duplicate ACKs for `slot` arriving in (after, until].
  std::size_t dupacks(std::size_t slot, TimePoint after, TimePoint until) const {
    if (!(after < until)) return 0;
    const auto b = ack_times.begin() + ack_begin[slot];
    const auto e = ack_times.begin() + ack_begin[slot + 1];
    return static_cast<std::size_t>(std::upper_bound(b, e, until) -
                                    std::upper_bound(b, e, after));
  }

  // Position of data tx `i` among the sends of its slot.
  std::size_t position_of(std::size_t i) const {
    const std::size_t slot = slot_of[i];
    const auto b = sends.begin() + send_begin[slot];
    const auto e = sends.begin() + send_begin[slot + 1];
    return static_cast<std::size_t>(
        std::lower_bound(b, e, static_cast<std::uint32_t>(i)) - sends.begin());
  }

 private:
  void group_sends_and_arrivals(const std::vector<trace::Transmission>& acks);
  void classify(const AnalysisConfig& cfg);
};

// Per-round ACK tallies for estimate_ack_burst_loss.
struct AckRound {
  std::int64_t round;
  bool lost;
};

// Turns per-slot counts at offsets[slot + 1] into start offsets.
void counts_to_offsets(std::vector<std::uint32_t>& offsets) {
  for (std::size_t s = 1; s < offsets.size(); ++s) offsets[s] += offsets[s - 1];
}

// After a fill that advanced offsets[slot] to the slot's end, shifts the
// offsets back to the slots' starts.
void rewind_offsets(std::vector<std::uint32_t>& offsets) {
  for (std::size_t s = offsets.size() - 1; s > 0; --s) offsets[s] = offsets[s - 1];
  offsets[0] = 0;
}

// HSR_HOT_PATH_BEGIN — the per-transmission passes of the §III reduction:
// every table above is sized before they run.
void FlowTables::group_sends_and_arrivals(const std::vector<trace::Transmission>& acks) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto slot = static_cast<std::uint32_t>(slots.slot(txs[i].packet.seq));
    slot_of[i] = slot;
    ++send_begin[slot + 1];
  }
  std::size_t k = 0;
  for (const auto& tx : acks) {
    if (tx.arrived) arrivals[k++] = {*tx.arrived, tx.packet.ack_next};
  }
  const auto by_time = [](const AckArrival& a, const AckArrival& b) { return a.when < b.when; };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), by_time)) {
    std::sort(arrivals.begin(), arrivals.end(), by_time);
  }
  // send_begin still holds per-slot send counts here.
  const auto resent_slot = [this](SeqNo ack_next) {
    const std::size_t slot = slots.find(ack_next);
    return slot != trace::SeqSlots::kNone && send_begin[slot + 1] > 1 ? slot
                                                                       : trace::SeqSlots::kNone;
  };
  for (const AckArrival& a : arrivals) {
    const std::size_t slot = resent_slot(a.ack_next);
    if (slot != trace::SeqSlots::kNone) ++ack_begin[slot + 1];
  }
  counts_to_offsets(ack_begin);
  for (const AckArrival& a : arrivals) {
    const std::size_t slot = resent_slot(a.ack_next);
    if (slot != trace::SeqSlots::kNone) ack_times[ack_begin[slot]++] = a.when;
  }
  rewind_offsets(ack_begin);
  counts_to_offsets(send_begin);
}

// One pass in capture order: fills the sends table and classifies each
// re-send against the previous send of its seq.
void FlowTables::classify(const AnalysisConfig& cfg) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const std::uint32_t slot = slot_of[i];
    const std::uint8_t state = slot_state[slot];
    const std::uint32_t pos = send_begin[slot]++;
    sends[pos] = static_cast<std::uint32_t>(i);
    const TimePoint t = txs[i].sent;
    TxClass cls = TxClass::kFirstSend;
    if ((state & kSlotSent) == 0) {
      ++first_sends;
      if (txs[i].lost()) ++first_sends_lost;
    } else {
      // Timer-driven unless some ACK arrived in (t - window, t].
      const std::size_t after = first_arrival_after(arrivals, t);
      if (after == 0 || !(arrivals[after - 1].when > t - cfg.ack_trigger_window)) {
        cls = TxClass::kRtoRetx;
        ++rto_count;
      } else {
        // ACK-driven: fast retransmit iff enough duplicate ACKs for the seq
        // arrived since its previous send.
        const TimePoint prev_t = txs[sends[pos - 1]].sent;
        if (dupacks(slot, prev_t, t) >= cfg.dupack_threshold) {
          cls = TxClass::kFastRetx;
          ++fast_count;
        } else {
          cls = TxClass::kAckDrivenResend;
        }
      }
    }
    tx_flags[i] = static_cast<std::uint8_t>(
        static_cast<unsigned>(cls) | ((state & kSlotArrived) != 0 ? kEarlierCopyArrived : 0u));
    slot_state[slot] = static_cast<std::uint8_t>(state | kSlotSent |
                                                 (txs[i].arrived ? kSlotArrived : 0u));
  }
  rewind_offsets(send_begin);
}

// Groups RTO retransmissions into timeout sequences, in capture order of
// their first retransmission; fills `out` (sized to t.rto_count, an upper
// bound) and returns how many it holds.
std::size_t collect_timeout_sequences(FlowTables& t, std::vector<TimeoutSequence>& out) {
  const auto& txs = t.txs;
  std::size_t n = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (t.class_of(i) != TxClass::kRtoRetx || (t.tx_flags[i] & kConsumed) != 0) continue;

    const SeqNo s = txs[i].packet.seq;
    TimeoutSequence& seq_info = out[n++];
    seq_info.seq = s;
    seq_info.first_retx = txs[i].sent;

    // The previous transmission of s is the original whose timer expired.
    const std::size_t pos = t.position_of(i);
    HSR_CHECK(pos > t.send_begin[t.slot_of[i]]);
    seq_info.ca_end = txs[t.sends[pos - 1]].sent;

    // Spurious iff any copy of s put on the wire before the first RTO
    // retransmission actually reached the receiver.
    seq_info.spurious = (t.tx_flags[i] & kEarlierCopyArrived) != 0;

    // Recovery: first ACK arriving after the first retransmission that
    // acknowledges past s.
    TimePoint recovered = TimePoint::max();
    for (std::size_t k = first_arrival_after(t.arrivals, seq_info.first_retx);
         k < t.arrivals.size(); ++k) {
      if (t.arrivals[k].ack_next > s) {
        recovered = t.arrivals[k].when;
        break;
      }
    }
    seq_info.recovered_observed = recovered != TimePoint::max();
    seq_info.recovered = seq_info.recovered_observed
                             ? recovered
                             : txs.back().sent;  // trace truncated mid-recovery

    // All RTO retransmissions of s within [first_retx, recovered] belong to
    // this sequence; count their fates.
    TimePoint second_retx = TimePoint::max();
    const std::size_t end = t.send_begin[t.slot_of[i] + 1];
    for (std::size_t p = pos; p < end; ++p) {
      const std::size_t idx = t.sends[p];
      if (txs[idx].sent > seq_info.recovered) break;
      if (t.class_of(idx) != TxClass::kRtoRetx) continue;
      t.tx_flags[idx] |= kConsumed;
      ++seq_info.num_timeouts;
      ++seq_info.retx_sent;
      if (seq_info.num_timeouts == 2) second_retx = txs[idx].sent;
      if (txs[idx].lost()) ++seq_info.retx_lost;
    }
    if (second_retx != TimePoint::max()) {
      seq_info.backoff_gap = second_retx - seq_info.first_retx;
    }
  }
  return n;
}

// Share of the RTT-sized rounds holding at least one ACK in which every ACK
// was lost; `rounds` is scratch space, one entry per ACK.
double all_lost_round_share(const std::vector<trace::Transmission>& acks, Duration rtt,
                            std::vector<AckRound>& rounds) {
  // Rounds are anchored at the first ACK's send time.
  const TimePoint origin = acks.front().sent;
  for (std::size_t k = 0; k < acks.size(); ++k) {
    rounds[k] = {(acks[k].sent - origin).ns() / rtt.ns(), acks[k].lost()};
  }
  // A chronological capture yields its rounds in order already.
  const auto by_round = [](const AckRound& a, const AckRound& b) { return a.round < b.round; };
  if (!std::is_sorted(rounds.begin(), rounds.end(), by_round)) {
    std::sort(rounds.begin(), rounds.end(), by_round);
  }
  std::uint64_t with_acks = 0;
  std::uint64_t all_lost = 0;
  for (std::size_t k = 0; k < rounds.size();) {
    bool every_lost = true;
    const std::int64_t round = rounds[k].round;
    for (; k < rounds.size() && rounds[k].round == round; ++k) every_lost &= rounds[k].lost;
    ++with_acks;
    if (every_lost) ++all_lost;
  }
  return static_cast<double>(all_lost) / static_cast<double>(with_acks);
}

}  // namespace

LossBreakdown loss_breakdown(const trace::FlowCapture& capture) {
  LossBreakdown out;
  auto tally = [](const trace::DirectionCapture& dir, std::uint64_t& sent,
                  std::uint64_t& lost,
                  std::array<std::uint64_t, net::kDropCategoryCount>& by_category,
                  std::uint64_t& unattributed, std::uint64_t& scripted) {
    for (const auto& tx : dir.transmissions()) {
      ++sent;
      if (!tx.lost()) continue;
      ++lost;
      if (!tx.drop_cause) {
        ++unattributed;
        continue;
      }
      ++by_category[static_cast<std::size_t>(tx.drop_cause->category)];
      if (tx.drop_cause->is_scripted()) ++scripted;
    }
  };
  tally(capture.data, out.data_sent, out.data_lost, out.data_by_category,
        out.data_unattributed, out.scripted_drops);
  tally(capture.acks, out.ack_sent, out.ack_lost, out.ack_by_category,
        out.ack_unattributed, out.scripted_drops);
  return out;
}

// HSR_HOT_PATH_END

std::vector<std::size_t> find_rto_retransmissions(const trace::FlowCapture& capture,
                                                  AnalysisConfig config) {
  const FlowTables t(capture, config);
  std::vector<std::size_t> out;
  out.reserve(t.rto_count);
  for (std::size_t i = 0; i < t.txs.size(); ++i) {
    if (t.class_of(i) == TxClass::kRtoRetx) out.push_back(i);
  }
  return out;
}

unsigned count_fast_retransmissions(const trace::FlowCapture& capture,
                                    AnalysisConfig config) {
  return FlowTables(capture, config).fast_count;
}

double estimate_ack_burst_loss(const trace::FlowCapture& capture, Duration rtt) {
  if (rtt <= Duration::zero()) return 0.0;
  const auto& txs = capture.acks.transmissions();
  if (txs.empty()) return 0.0;

  std::vector<AckRound> rounds(txs.size());
  return all_lost_round_share(txs, rtt, rounds);
}

FlowAnalysis analyze_flow(const trace::FlowCapture& capture, AnalysisConfig config) {
  FlowAnalysis out;
  FlowTables t(capture, config);

  out.data_loss_rate = capture.data.loss_rate();
  out.ack_loss_rate = capture.acks.loss_rate();
  // First-transmission loss rate: the first send of each distinct segment.
  out.first_tx_loss_rate = t.first_sends == 0 ? 0.0
                                              : static_cast<double>(t.first_sends_lost) /
                                                    static_cast<double>(t.first_sends);
  out.first_transmissions = t.first_sends;
  out.unique_segments = capture.unique_segments_delivered();
  out.span = capture.span();
  out.mean_rtt = capture.estimated_rtt();
  out.goodput_pps = out.span > Duration::zero()
                        ? static_cast<double>(out.unique_segments) / out.span.to_seconds()
                        : 0.0;
  out.mean_window_segments = out.goodput_pps * out.mean_rtt.to_seconds();
  out.ack_burst_loss_probability = estimate_ack_burst_loss(capture, out.mean_rtt);

  out.fast_retransmits = t.fast_count;

  // --- Timeout sequences -----------------------------------------------------
  out.timeout_sequences.resize(t.rto_count);
  out.timeout_sequences.resize(collect_timeout_sequences(t, out.timeout_sequences));
  std::sort(out.timeout_sequences.begin(), out.timeout_sequences.end(),
            [](const TimeoutSequence& a, const TimeoutSequence& b) {
              return a.first_retx < b.first_retx;
            });

  // --- Aggregates ------------------------------------------------------------
  unsigned total_retx = 0;
  unsigned total_retx_lost = 0;
  unsigned spurious = 0;
  std::int64_t recovery_ns = 0;
  std::int64_t all_recovery_ns = 0;  // completed + truncated sequences
  std::int64_t first_rto_ns = 0;
  std::int64_t backoff_gap_ns = 0;
  unsigned with_backoff_gap = 0;
  unsigned completed = 0;
  for (const auto& ts : out.timeout_sequences) {
    total_retx += ts.retx_sent;
    total_retx_lost += ts.retx_lost;
    if (ts.spurious) ++spurious;
    first_rto_ns += (ts.first_retx - ts.ca_end).ns();
    if (ts.backoff_gap > Duration::zero()) {
      backoff_gap_ns += ts.backoff_gap.ns();
      ++with_backoff_gap;
    }
    all_recovery_ns += ts.duration().ns();
    if (ts.recovered_observed) {
      recovery_ns += ts.duration().ns();
      ++completed;
    }
  }
  const auto n_seq = out.timeout_sequences.size();
  out.recovery_retx_loss_rate =
      total_retx == 0 ? 0.0
                      : static_cast<double>(total_retx_lost) / static_cast<double>(total_retx);
  out.spurious_fraction =
      n_seq == 0 ? 0.0 : static_cast<double>(spurious) / static_cast<double>(n_seq);
  out.mean_recovery_duration =
      completed == 0 ? Duration::zero() : Duration::nanos(recovery_ns / completed);
  if (with_backoff_gap > 0) {
    // gap between the 1st and 2nd retransmission is 2T under backoff.
    out.mean_first_rto =
        Duration::nanos(backoff_gap_ns / (2 * static_cast<std::int64_t>(with_backoff_gap)));
  } else {
    out.mean_first_rto =
        n_seq == 0 ? Duration::zero()
                   : Duration::nanos(first_rto_ns / static_cast<std::int64_t>(n_seq));
  }
  out.total_recovery_time = Duration::nanos(all_recovery_ns);
  out.recovery_time_fraction =
      out.span > Duration::zero()
          ? std::min(1.0, out.total_recovery_time.to_seconds() / out.span.to_seconds())
          : 0.0;
  out.loss_indications = static_cast<unsigned>(n_seq) + out.fast_retransmits;
  out.timeout_probability =
      out.loss_indications == 0
          ? 0.0
          : static_cast<double>(n_seq) / static_cast<double>(out.loss_indications);

  if (out.first_transmissions > 0) {
    const double n_first = static_cast<double>(out.first_transmissions);
    unsigned non_spurious = 0;
    for (const auto& ts : out.timeout_sequences) {
      if (!ts.spurious) ++non_spurious;
    }
    out.loss_event_rate_all = static_cast<double>(out.loss_indications) / n_first;
    out.loss_event_rate_data =
        static_cast<double>(out.fast_retransmits + non_spurious) / n_first;
  }

  // Episode-calibrated P̂_a: invert 1-(1-P_a)^X_P = spurious share of loss
  // indications, with X_P from the measured data-loss rate (model Eq. 1).
  if (out.loss_indications > 0 && spurious > 0 && out.loss_event_rate_data > 0.0) {
    const double frac = static_cast<double>(spurious) /
                        static_cast<double>(out.loss_indications);
    const double b_est = 2.0;  // inversion is insensitive to b; see Eq. 1
    const double k = (2.0 + b_est) / 6.0;
    const double x_p =
        k + std::sqrt(2.0 * b_est * (1.0 - out.loss_event_rate_data) /
                          (3.0 * out.loss_event_rate_data) +
                      k * k);
    out.ack_burst_loss_episode =
        1.0 - std::pow(1.0 - std::min(frac, 0.999), 1.0 / x_p);
  }
  return out;
}

}  // namespace hsr::analysis
