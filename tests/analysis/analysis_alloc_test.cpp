// Allocation and memory pins for the §III reduction (analyze_flow). This TU
// installs the counting global operator new/delete (alloc_probe), so it
// lives in its own test binary: the replacement is binary-wide and must not
// leak into the other suites.
#define HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS
#include "util/alloc_probe.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/flow_analysis.h"
#include "radio/profiles.h"
#include "workload/scenario.h"

namespace hsr::analysis {
namespace {

using util::AllocProbe;
using util::Duration;
using util::TimePoint;

struct Probed {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  FlowAnalysis analysis;
};

Probed probe_analyze(const trace::FlowCapture& capture) {
  Probed out;
  const AllocProbe::Scope scope;
  out.analysis = analyze_flow(capture);
  out.allocs = scope.news_delta();
  out.bytes = scope.bytes_delta();
  return out;
}

trace::FlowCapture run(const radio::ProviderProfile& profile, Duration duration,
                       std::uint64_t seed) {
  workload::FlowRunConfig cfg;
  cfg.profile = profile;
  cfg.duration = duration;
  cfg.seed = seed;
  return workload::run_flow(cfg).capture;
}

TEST(AnalysisAllocTest, AllocationCountDoesNotGrowWithFlowLength) {
  // The reduction allocates its index tables once per flow: the count is
  // the same for a 60 s flow and a 240 s flow with nearly three times the
  // transmissions and four times the timeout sequences.
  const auto short_flow = run(radio::mobile_lte_highspeed(), Duration::seconds(60), 2016);
  const auto long_flow = run(radio::mobile_lte_highspeed(), Duration::seconds(240), 2017);
  ASSERT_GT(long_flow.data.sent_count(), 2 * short_flow.data.sent_count());

  const Probed a = probe_analyze(short_flow);
  const Probed b = probe_analyze(long_flow);
  ASSERT_TRUE(a.analysis.has_timeouts());
  ASSERT_TRUE(b.analysis.has_timeouts());
  ASSERT_GT(b.analysis.timeout_sequences.size(), a.analysis.timeout_sequences.size());
  EXPECT_EQ(a.allocs, b.allocs);
  EXPECT_LE(a.allocs, 16u);
}

TEST(AnalysisAllocTest, SparseSeqSpanCostsMemoryByTransmissionsNotBySpan) {
  // A hostile capture: 2000 data sends whose seqs span nearly 2^63, and
  // ACKs naming seqs across the whole 64-bit range. A table indexed by
  // seq - min would need ~2^63 slots.
  trace::FlowCapture cap;
  std::uint64_t id = 1;
  constexpr std::uint64_t kStride = (std::uint64_t{1} << 63) / 1000;
  std::int64_t t = 1'000'000;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    net::Packet p;
    p.id = id++;
    p.seq = 1 + kStride * (i % 1000);  // every seq sent twice
    const TimePoint sent = TimePoint::from_ns(t += 1'000'000);
    p.tap_slot = cap.data.on_send(p, sent);
    if (i % 3 != 0) cap.data.on_deliver(p, sent, sent + Duration::millis(20));
  }
  for (std::uint64_t i = 0; i < 1500; ++i) {
    net::Packet p;
    p.id = id++;
    p.kind = net::PacketKind::kAck;
    p.ack_next = i % 2 == 0 ? 1 + kStride * (i % 1000) : ~std::uint64_t{0} - i;
    const TimePoint sent = TimePoint::from_ns(t += 700'000);
    p.tap_slot = cap.acks.on_send(p, sent);
    if (i % 4 != 0) cap.acks.on_deliver(p, sent, sent + Duration::millis(20));
  }
  const std::uint64_t transmissions = cap.data.sent_count() + cap.acks.sent_count();

  const Probed probed = probe_analyze(cap);
  EXPECT_GT(probed.analysis.first_transmissions, 0u);
  // Every byte requested counts, so this bounds the peak as well.
  EXPECT_LE(probed.bytes, 128 * transmissions)
      << probed.bytes << " bytes for " << transmissions << " transmissions";
}

}  // namespace
}  // namespace hsr::analysis
