#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/flow_analysis.h"
#include "radio/environment.h"
#include "sim/simulator.h"
#include "tcp/bottleneck.h"
#include "util/rng.h"
#include "workload/multi_flow.h"

namespace hsr::workload {
namespace {

TEST(RunFlowTest, ProducesCaptureAndGroundTruth) {
  FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.duration = Duration::seconds(20);
  cfg.seed = 123;
  const FlowRunResult run = run_flow(cfg);

  EXPECT_GT(run.sender_stats.segments_sent, 100u);
  EXPECT_GT(run.receiver_stats.unique_segments, 100u);
  EXPECT_GT(run.goodput_pps, 0.0);
  EXPECT_EQ(run.capture.data.sent_count(), run.sender_stats.segments_sent);
  EXPECT_EQ(run.capture.acks.sent_count(), run.receiver_stats.acks_sent);
  EXPECT_GT(run.bytes_captured, 0u);
  EXPECT_NEAR(run.goodput_bps, run.goodput_pps * cfg.tcp.mss_bytes * 8, 1.0);
}

TEST(RunFlowTest, DeterministicForSameSeed) {
  FlowRunConfig cfg;
  cfg.profile = radio::unicom_3g_highspeed();
  cfg.duration = Duration::seconds(15);
  cfg.seed = 77;
  const FlowRunResult a = run_flow(cfg);
  const FlowRunResult b = run_flow(cfg);
  EXPECT_EQ(a.receiver_stats.unique_segments, b.receiver_stats.unique_segments);
  EXPECT_EQ(a.sender_stats.timeouts, b.sender_stats.timeouts);
  EXPECT_EQ(a.bytes_captured, b.bytes_captured);
}

TEST(RunFlowTest, DifferentSeedsDiffer) {
  FlowRunConfig cfg;
  cfg.profile = radio::unicom_3g_highspeed();
  cfg.duration = Duration::seconds(15);
  cfg.seed = 1;
  const auto a = run_flow(cfg);
  cfg.seed = 2;
  const auto b = run_flow(cfg);
  EXPECT_NE(a.receiver_stats.unique_segments, b.receiver_stats.unique_segments);
}

TEST(RunFlowTest, StationaryOutperformsHighSpeed) {
  FlowRunConfig hs;
  hs.profile = radio::unicom_3g_highspeed();
  hs.duration = Duration::seconds(40);
  hs.seed = 5;
  FlowRunConfig st = hs;
  st.profile = radio::stationary_of(hs.profile);
  EXPECT_GT(run_flow(st).goodput_pps, run_flow(hs).goodput_pps);
}

TEST(RunFlowTest, HighSpeedFlowShowsHsrPathologies) {
  FlowRunConfig cfg;
  cfg.profile = radio::telecom_3g_highspeed();
  cfg.duration = Duration::seconds(60);
  cfg.seed = 11;
  const FlowRunResult run = run_flow(cfg);
  EXPECT_GE(run.sender_stats.timeouts, 1u);
  EXPECT_GT(run.receiver_stats.duplicate_segments, 0u);
  EXPECT_GE(run.handoffs, 1u);
}

TEST(TcpConfigForTest, ReflectsProfileAndOverrides) {
  FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.tcp.delayed_ack_b = 3;
  cfg.tcp.min_rto = Duration::millis(300);
  const tcp::TcpConfig t = tcp_config_for(cfg);
  EXPECT_EQ(t.delayed_ack_b, 3u);
  EXPECT_EQ(t.receiver_window, cfg.profile.receiver_window_segments);
  EXPECT_EQ(t.rto.min_rto, Duration::millis(300));
}

TEST(MptcpComparisonTest, MptcpBeatsSinglePathOnHsr) {
  const MptcpComparison cmp = run_mptcp_comparison(
      radio::unicom_3g_highspeed(), Duration::seconds(40), 7, mptcp::Mode::kDuplex);
  EXPECT_GT(cmp.tcp_pps, 0.0);
  EXPECT_GT(cmp.mptcp_pps, cmp.tcp_pps);
  EXPECT_GT(cmp.improvement, 0.0);
}

TEST(MptcpComparisonTest, BackupModeRescues) {
  const MptcpComparison cmp = run_mptcp_comparison(
      radio::telecom_3g_highspeed(), Duration::seconds(60), 3, mptcp::Mode::kBackup);
  EXPECT_GE(cmp.rescues, 1u);
}

TEST(FixedTransferTest, CompletionIsTheArrivalOfTheLastSegment) {
  // Fig. 12 scores a fixed transfer by segments over completion time, and
  // completion is the virtual instant the receiver first holds every
  // segment — not the end of a polling step.
  const radio::ProviderProfile profile = radio::telecom_3g_highspeed();
  const MptcpComparison cmp = run_fixed_transfer_comparison(profile, 3000, 2015);
  ASSERT_GT(cmp.tcp_pps, 0.0);
  const double completion_s = 3000.0 / cmp.tcp_pps;

  // The same large flow wired independently (seed 2015, forks "radio", "d"
  // and "u"): its 3000th unique segment arrives at the completion time.
  net::reset_packet_ids();
  sim::Simulator sim;
  util::Rng rng(2015);
  radio::RadioEnvironment env(profile.radio, rng.fork("radio"));
  FlowRunConfig fc;
  fc.profile = profile;
  tcp::TcpConfig tcfg = tcp_config_for(fc);
  tcfg.total_segments = 3000;
  tcp::Bottleneck path(sim, downlink_config(profile), uplink_config(profile));
  path.add_flow(1, tcfg, env.make_channel(radio::Direction::kDownlink, rng.fork("d")),
                env.make_channel(radio::Direction::kUplink, rng.fork("u")));
  path.start();
  sim.run_until(TimePoint::from_seconds(1800));
  const std::vector<TimePoint>& arrivals = path.receiver().delivery_times();
  ASSERT_EQ(arrivals.size(), 3000u);
  EXPECT_NEAR(completion_s, arrivals.back().to_seconds(), 1e-9);

  // Not quantized to a polling step: a 0.5 s step scores this transfer at
  // exactly 135.0 s.
  EXPECT_LT(completion_s, 135.0);
  EXPECT_NE(std::fmod(completion_s, 0.5), 0.0);
}

}  // namespace
}  // namespace hsr::workload
