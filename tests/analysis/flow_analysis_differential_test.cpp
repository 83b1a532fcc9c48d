// Differential tests for the §III reduction (flow_analysis.cpp) against the
// node-based implementation it replaced: std::map/std::set tables keyed by
// seq, a window scan for duplicate ACKs and a std::map of ACK rounds. The
// reference below is that implementation with its comments trimmed.
// Seeded random captures (repeated seqs with RTO chains and dup-ACK bursts,
// equal timestamps, non-chronological sends, ack_next values outside the
// data seqs, empty directions, seqs spread towards 2^63) and real run_flow
// captures of every provider must give bitwise-equal results, doubles
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/flow_analysis.h"
#include "radio/profiles.h"
#include "util/logging.h"
#include "workload/scenario.h"

namespace hsr::analysis {
namespace {

using trace::FlowCapture;

// --- Reference implementation -------------------------------------------------

namespace reference {

struct AckArrival {
  TimePoint when;
  SeqNo ack_next;
};

std::vector<AckArrival> collect_ack_arrivals(const FlowCapture& capture) {
  std::vector<AckArrival> arrivals;
  for (const auto& tx : capture.acks.transmissions()) {
    if (tx.arrived) arrivals.push_back({*tx.arrived, tx.packet.ack_next});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const AckArrival& a, const AckArrival& b) { return a.when < b.when; });
  return arrivals;
}

std::size_t first_arrival_after(const std::vector<AckArrival>& arrivals, TimePoint t) {
  return static_cast<std::size_t>(
      std::upper_bound(arrivals.begin(), arrivals.end(), t,
                       [](TimePoint value, const AckArrival& a) { return value < a.when; }) -
      arrivals.begin());
}

bool ack_arrived_just_before(const std::vector<AckArrival>& arrivals, TimePoint t,
                             Duration window) {
  const std::size_t after = first_arrival_after(arrivals, t);
  if (after == 0) return false;
  return arrivals[after - 1].when > t - window;
}

enum class TxClass { kFirstSend, kRtoRetx, kFastRetx, kAckDrivenResend };

std::vector<TxClass> classify_transmissions(const FlowCapture& capture,
                                            const std::vector<AckArrival>& arrivals,
                                            const AnalysisConfig& cfg) {
  const auto& txs = capture.data.transmissions();
  std::vector<TxClass> classes(txs.size(), TxClass::kFirstSend);
  std::map<SeqNo, std::size_t> last_send_of;

  for (std::size_t i = 0; i < txs.size(); ++i) {
    const SeqNo s = txs[i].packet.seq;
    const TimePoint t = txs[i].sent;
    const auto prev = last_send_of.find(s);
    if (prev != last_send_of.end()) {
      if (!ack_arrived_just_before(arrivals, t, cfg.ack_trigger_window)) {
        classes[i] = TxClass::kRtoRetx;
      } else {
        const TimePoint prev_t = txs[prev->second].sent;
        unsigned dupacks = 0;
        for (std::size_t k = first_arrival_after(arrivals, prev_t);
             k < arrivals.size() && arrivals[k].when <= t; ++k) {
          if (arrivals[k].ack_next == s) ++dupacks;
        }
        classes[i] = dupacks >= cfg.dupack_threshold ? TxClass::kFastRetx
                                                     : TxClass::kAckDrivenResend;
      }
    }
    last_send_of[s] = i;
  }
  return classes;
}

std::vector<std::size_t> find_rto_retransmissions(const FlowCapture& capture,
                                                  AnalysisConfig config) {
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (classes[i] == TxClass::kRtoRetx) out.push_back(i);
  }
  return out;
}

unsigned count_fast_retransmissions(const FlowCapture& capture, AnalysisConfig config) {
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);
  unsigned n = 0;
  for (const TxClass c : classes) {
    if (c == TxClass::kFastRetx) ++n;
  }
  return n;
}

double estimate_ack_burst_loss(const FlowCapture& capture, Duration rtt) {
  if (rtt <= Duration::zero()) return 0.0;
  const auto& txs = capture.acks.transmissions();
  if (txs.empty()) return 0.0;
  const TimePoint origin = txs.front().sent;
  std::map<std::int64_t, std::pair<unsigned, unsigned>> rounds;
  for (const auto& tx : txs) {
    const std::int64_t round = (tx.sent - origin).ns() / rtt.ns();
    auto& [sent, lost] = rounds[round];
    ++sent;
    if (tx.lost()) ++lost;
  }
  unsigned with_acks = 0;
  unsigned all_lost = 0;
  for (const auto& [round, counts] : rounds) {
    (void)round;
    ++with_acks;
    if (counts.second == counts.first) ++all_lost;
  }
  return with_acks == 0 ? 0.0
                        : static_cast<double>(all_lost) / static_cast<double>(with_acks);
}

std::uint64_t unique_segments_delivered(const FlowCapture& capture) {
  std::set<SeqNo> seen;
  for (const auto& tx : capture.data.transmissions()) {
    if (tx.arrived) seen.insert(tx.packet.seq);
  }
  return seen.size();
}

FlowAnalysis analyze_flow(const FlowCapture& capture, AnalysisConfig config) {
  FlowAnalysis out;
  const auto& data_txs = capture.data.transmissions();
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);

  out.data_loss_rate = capture.data.loss_rate();
  out.ack_loss_rate = capture.acks.loss_rate();
  {
    std::map<SeqNo, bool> seen_first;
    std::uint64_t firsts = 0, firsts_lost = 0;
    for (const auto& tx : data_txs) {
      auto [it2, inserted] = seen_first.emplace(tx.packet.seq, true);
      (void)it2;
      if (!inserted) continue;
      ++firsts;
      if (tx.lost()) ++firsts_lost;
    }
    out.first_tx_loss_rate =
        firsts == 0 ? 0.0 : static_cast<double>(firsts_lost) / static_cast<double>(firsts);
    out.first_transmissions = firsts;
  }
  out.unique_segments = unique_segments_delivered(capture);
  out.span = capture.span();
  out.mean_rtt = capture.estimated_rtt();
  out.goodput_pps = out.span > Duration::zero()
                        ? static_cast<double>(out.unique_segments) / out.span.to_seconds()
                        : 0.0;
  out.mean_window_segments = out.goodput_pps * out.mean_rtt.to_seconds();
  out.ack_burst_loss_probability = estimate_ack_burst_loss(capture, out.mean_rtt);

  for (const TxClass c : classes) {
    if (c == TxClass::kFastRetx) ++out.fast_retransmits;
  }

  std::map<SeqNo, std::vector<std::size_t>> sends_of;
  for (std::size_t i = 0; i < data_txs.size(); ++i) {
    sends_of[data_txs[i].packet.seq].push_back(i);
  }

  std::vector<bool> consumed(data_txs.size(), false);
  for (std::size_t i = 0; i < data_txs.size(); ++i) {
    if (classes[i] != TxClass::kRtoRetx || consumed[i]) continue;

    const SeqNo s = data_txs[i].packet.seq;
    TimeoutSequence seq_info;
    seq_info.seq = s;
    seq_info.first_retx = data_txs[i].sent;

    const auto& sends = sends_of[s];
    const auto it = std::find(sends.begin(), sends.end(), i);
    HSR_CHECK(it != sends.begin() && it != sends.end());
    const std::size_t original_idx = *(it - 1);
    seq_info.ca_end = data_txs[original_idx].sent;

    for (auto jt = sends.begin(); jt != it; ++jt) {
      if (data_txs[*jt].arrived) {
        seq_info.spurious = true;
        break;
      }
    }

    TimePoint recovered = TimePoint::max();
    for (std::size_t k = first_arrival_after(arrivals, seq_info.first_retx);
         k < arrivals.size(); ++k) {
      if (arrivals[k].ack_next > s) {
        recovered = arrivals[k].when;
        break;
      }
    }
    seq_info.recovered_observed = recovered != TimePoint::max();
    seq_info.recovered =
        seq_info.recovered_observed ? recovered : (data_txs.back().sent);

    TimePoint second_retx = TimePoint::max();
    for (auto jt = it; jt != sends.end(); ++jt) {
      const std::size_t idx = *jt;
      if (data_txs[idx].sent > seq_info.recovered) break;
      if (classes[idx] != TxClass::kRtoRetx) continue;
      consumed[idx] = true;
      ++seq_info.num_timeouts;
      ++seq_info.retx_sent;
      if (seq_info.num_timeouts == 2) second_retx = data_txs[idx].sent;
      if (data_txs[idx].lost()) ++seq_info.retx_lost;
    }
    if (second_retx != TimePoint::max()) {
      seq_info.backoff_gap = second_retx - seq_info.first_retx;
    }
    out.timeout_sequences.push_back(std::move(seq_info));
  }

  std::sort(out.timeout_sequences.begin(), out.timeout_sequences.end(),
            [](const TimeoutSequence& a, const TimeoutSequence& b) {
              return a.first_retx < b.first_retx;
            });

  unsigned total_retx = 0;
  unsigned total_retx_lost = 0;
  unsigned spurious = 0;
  std::int64_t recovery_ns = 0;
  std::int64_t all_recovery_ns = 0;
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

  if (out.loss_indications > 0 && spurious > 0 && out.loss_event_rate_data > 0.0) {
    const double frac = static_cast<double>(spurious) /
                        static_cast<double>(out.loss_indications);
    const double b_est = 2.0;
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

}  // namespace reference

// --- Comparison ---------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define EXPECT_SAME_DOUBLE(field) \
  EXPECT_EQ(bits(got.field), bits(want.field)) << #field ": " << got.field << " vs " << want.field

void expect_same(const FlowAnalysis& got, const FlowAnalysis& want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_SAME_DOUBLE(data_loss_rate);
  EXPECT_SAME_DOUBLE(first_tx_loss_rate);
  EXPECT_SAME_DOUBLE(ack_loss_rate);
  EXPECT_SAME_DOUBLE(recovery_retx_loss_rate);
  EXPECT_SAME_DOUBLE(loss_event_rate_all);
  EXPECT_SAME_DOUBLE(loss_event_rate_data);
  EXPECT_EQ(got.first_transmissions, want.first_transmissions);
  EXPECT_EQ(got.fast_retransmits, want.fast_retransmits);
  EXPECT_EQ(got.loss_indications, want.loss_indications);
  EXPECT_SAME_DOUBLE(timeout_probability);
  EXPECT_SAME_DOUBLE(spurious_fraction);
  EXPECT_EQ(got.mean_recovery_duration, want.mean_recovery_duration);
  EXPECT_EQ(got.total_recovery_time, want.total_recovery_time);
  EXPECT_SAME_DOUBLE(recovery_time_fraction);
  EXPECT_EQ(got.mean_first_rto, want.mean_first_rto);
  EXPECT_EQ(got.mean_rtt, want.mean_rtt);
  EXPECT_SAME_DOUBLE(mean_window_segments);
  EXPECT_SAME_DOUBLE(ack_burst_loss_probability);
  EXPECT_SAME_DOUBLE(ack_burst_loss_episode);
  EXPECT_SAME_DOUBLE(goodput_pps);
  EXPECT_EQ(got.unique_segments, want.unique_segments);
  EXPECT_EQ(got.span, want.span);
  ASSERT_EQ(got.timeout_sequences.size(), want.timeout_sequences.size());
  for (std::size_t k = 0; k < got.timeout_sequences.size(); ++k) {
    SCOPED_TRACE("timeout sequence " + std::to_string(k));
    const TimeoutSequence& g = got.timeout_sequences[k];
    const TimeoutSequence& w = want.timeout_sequences[k];
    EXPECT_EQ(g.seq, w.seq);
    EXPECT_EQ(g.ca_end, w.ca_end);
    EXPECT_EQ(g.first_retx, w.first_retx);
    EXPECT_EQ(g.recovered, w.recovered);
    EXPECT_EQ(g.recovered_observed, w.recovered_observed);
    EXPECT_EQ(g.num_timeouts, w.num_timeouts);
    EXPECT_EQ(g.retx_sent, w.retx_sent);
    EXPECT_EQ(g.retx_lost, w.retx_lost);
    EXPECT_EQ(g.spurious, w.spurious);
    EXPECT_EQ(g.backoff_gap, w.backoff_gap);
  }
}

// Every public entry point of flow_analysis.h that the rewrite touched,
// under the default and a tighter configuration.
void expect_matches_reference(const FlowCapture& capture, const std::string& what) {
  AnalysisConfig tight;
  tight.ack_trigger_window = Duration::micros(500);
  tight.dupack_threshold = 1;
  for (const AnalysisConfig& cfg : {AnalysisConfig{}, tight}) {
    const std::string tag = what + " threshold=" + std::to_string(cfg.dupack_threshold);
    expect_same(analyze_flow(capture, cfg), reference::analyze_flow(capture, cfg), tag);
    EXPECT_EQ(find_rto_retransmissions(capture, cfg),
              reference::find_rto_retransmissions(capture, cfg))
        << tag;
    EXPECT_EQ(count_fast_retransmissions(capture, cfg),
              reference::count_fast_retransmissions(capture, cfg))
        << tag;
  }
  for (const Duration rtt : {Duration::nanos(1), Duration::millis(7), Duration::millis(120),
                             Duration::seconds(1000)}) {
    EXPECT_EQ(bits(estimate_ack_burst_loss(capture, rtt)),
              bits(reference::estimate_ack_burst_loss(capture, rtt)))
        << what << " rtt=" << rtt.ns();
  }
  EXPECT_EQ(capture.unique_segments_delivered(),
            reference::unique_segments_delivered(capture))
      << what;
}

// --- Random captures ----------------------------------------------------------

struct CaptureShape {
  std::size_t data_sends = 400;
  std::size_t acks = 300;
  // Seqs are base + stride * k for a small k; a huge stride spreads them
  // towards 2^63.
  SeqNo seq_base = 1;
  SeqNo seq_stride = 1;
  // Share of sends that go back to an already-sent seq.
  double resend_share = 0.3;
  // Share of send times that step backwards instead of forwards.
  double backwards_share = 0.0;
  // Send times fall on this grid, so coarse grids produce equal timestamps.
  Duration tick = Duration::micros(250);
};

// Writes one random capture: data sends that repeat seqs (RTO chains when
// no ACK precedes them, dup-ACK bursts when ACKs naming the seq arrive in
// between), ACKs naming data seqs or values outside them, and every fate
// (delivered, dropped, still in flight).
FlowCapture random_capture(std::mt19937_64& rng, const CaptureShape& shape) {
  FlowCapture cap;
  std::uint64_t next_id = 1;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto seq_of = [&](std::uint64_t k) { return shape.seq_base + shape.seq_stride * k; };
  const auto step = [&](std::int64_t t) {
    const std::int64_t ticks = 1 + static_cast<std::int64_t>(rng() % 4);
    const std::int64_t d = ticks * shape.tick.ns() - (rng() % 3 == 0 ? shape.tick.ns() : 0);
    return unit(rng) < shape.backwards_share ? t - 3 * d : t + d;
  };
  const auto fate = [&](trace::DirectionCapture& dir, net::Packet p, TimePoint sent) {
    p.tap_slot = dir.on_send(p, sent);
    const double r = unit(rng);
    if (r < 0.7) {
      const std::int64_t transit = static_cast<std::int64_t>(rng() % 8) * shape.tick.ns();
      dir.on_deliver(p, sent, sent + Duration::nanos(transit));
    } else if (r < 0.95) {
      dir.on_drop(p, sent, net::DropCause::bernoulli());
    }  // else: still in flight at capture end
  };

  std::uint64_t highest = 0;
  std::int64_t t = 1'000'000'000;
  for (std::size_t i = 0; i < shape.data_sends; ++i) {
    std::uint64_t k = highest;
    if (highest > 0 && unit(rng) < shape.resend_share) {
      k = highest - 1 - rng() % std::min<std::uint64_t>(highest, 6);
    } else {
      ++highest;
    }
    net::Packet p;
    p.id = next_id++;
    p.kind = net::PacketKind::kData;
    p.seq = seq_of(k);
    p.size_bytes = 1400;
    fate(cap.data, p, TimePoint::from_ns(t));
    t = step(t);
  }

  t = 1'000'000'000 + static_cast<std::int64_t>(rng() % 4) * shape.tick.ns();
  for (std::size_t i = 0; i < shape.acks; ++i) {
    net::Packet p;
    p.id = next_id++;
    p.kind = net::PacketKind::kAck;
    const double r = unit(rng);
    const std::uint64_t k = highest == 0 ? 0 : rng() % (highest + 2);
    if (r < 0.05) {
      p.ack_next = 0;
    } else if (r < 0.08) {
      p.ack_next = ~SeqNo{0} - rng() % 3;
    } else if (r < 0.12) {
      p.ack_next = seq_of(k) + 1 + rng() % 2;  // between or beside data seqs
    } else {
      p.ack_next = seq_of(k);
    }
    p.size_bytes = 52;
    // Bursts of ACKs naming the same seq at one instant stress the
    // duplicate-ACK counts and equal-time ordering.
    const int burst = unit(rng) < 0.1 ? 4 : 1;
    for (int b = 0; b < burst && i < shape.acks; ++b) {
      if (b > 0) {
        p.id = next_id++;
        ++i;
      }
      fate(cap.acks, p, TimePoint::from_ns(t));
    }
    t = step(t);
  }
  return cap;
}

TEST(FlowAnalysisDifferentialTest, RandomDenseCaptures) {
  std::mt19937_64 rng(0x5eed2016ULL);
  // What the captures exercised, so the comparison cannot pass vacuously.
  std::size_t sequences = 0, chains = 0, spurious = 0, unrecovered = 0;
  unsigned fast = 0;
  for (int round = 0; round < 150; ++round) {
    CaptureShape shape;
    shape.data_sends = 1 + rng() % 600;
    shape.acks = rng() % 500;
    shape.resend_share = 0.05 + 0.5 * static_cast<double>(rng() % 100) / 100.0;
    shape.tick = round % 3 == 0 ? Duration::millis(1) : Duration::micros(250);
    const FlowCapture capture = random_capture(rng, shape);
    expect_matches_reference(capture, "dense round " + std::to_string(round));
    if (HasFailure()) return;
    const FlowAnalysis want = reference::analyze_flow(capture, AnalysisConfig{});
    fast += want.fast_retransmits;
    for (const auto& ts : want.timeout_sequences) {
      ++sequences;
      if (ts.num_timeouts >= 2) ++chains;
      if (ts.spurious) ++spurious;
      if (!ts.recovered_observed) ++unrecovered;
    }
  }
  EXPECT_GT(sequences, 100u);
  EXPECT_GT(chains, 10u);
  EXPECT_GT(spurious, 10u);
  EXPECT_GT(unrecovered, 0u);
  EXPECT_GT(fast, 4u);
}

TEST(FlowAnalysisDifferentialTest, EqualTimestamps) {
  // A coarse clock: every send and arrival lands on a 10 ms grid, so most
  // events share their timestamp with others.
  std::mt19937_64 rng(0x7135ULL);
  for (int round = 0; round < 60; ++round) {
    CaptureShape shape;
    shape.data_sends = 50 + rng() % 300;
    shape.acks = 50 + rng() % 300;
    shape.tick = Duration::millis(10);
    expect_matches_reference(random_capture(rng, shape), "ties round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

TEST(FlowAnalysisDifferentialTest, NonChronologicalSends) {
  std::mt19937_64 rng(0xbac4ULL);
  for (int round = 0; round < 80; ++round) {
    CaptureShape shape;
    shape.data_sends = 20 + rng() % 400;
    shape.acks = rng() % 400;
    shape.backwards_share = 0.1 + 0.3 * static_cast<double>(rng() % 100) / 100.0;
    expect_matches_reference(random_capture(rng, shape),
                             "non-chronological round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

TEST(FlowAnalysisDifferentialTest, EmptyDirections) {
  std::mt19937_64 rng(0xe3b7ULL);
  expect_matches_reference(FlowCapture{}, "both empty");
  CaptureShape no_acks;
  no_acks.acks = 0;
  expect_matches_reference(random_capture(rng, no_acks), "no acks");
  CaptureShape no_data;
  no_data.data_sends = 0;
  no_data.acks = 200;
  expect_matches_reference(random_capture(rng, no_data), "no data");
  CaptureShape one;
  one.data_sends = 1;
  one.acks = 1;
  expect_matches_reference(random_capture(rng, one), "one each");
}

TEST(FlowAnalysisDifferentialTest, SparseSeqsSpanningTowardsTwoToThe63) {
  std::mt19937_64 rng(0x263ULL);
  for (int round = 0; round < 40; ++round) {
    CaptureShape shape;
    shape.data_sends = 1 + rng() % 300;
    shape.acks = rng() % 300;
    shape.seq_base = round % 2 == 0 ? 1 : (SeqNo{1} << 62) - 7;
    // ~300 distinct seqs at this stride reach about 2^63 past the base.
    shape.seq_stride = (SeqNo{1} << 63) / 512 + 3;
    expect_matches_reference(random_capture(rng, shape), "sparse round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

TEST(FlowAnalysisDifferentialTest, RealFlowsOfEveryProvider) {
  std::vector<radio::ProviderProfile> profiles = radio::all_highspeed_profiles();
  for (const auto& hs : radio::all_highspeed_profiles()) {
    profiles.push_back(radio::stationary_of(hs));
  }
  std::uint64_t seed = 2016;
  for (const auto& profile : profiles) {
    workload::FlowRunConfig cfg;
    cfg.profile = profile;
    cfg.duration = Duration::seconds(30);
    cfg.seed = seed++;
    const auto run = workload::run_flow(cfg);
    ASSERT_GT(run.capture.data.sent_count(), 0u) << profile.name;
    expect_matches_reference(run.capture, profile.name);
  }
}

}  // namespace
}  // namespace hsr::analysis
