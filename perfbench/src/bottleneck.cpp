// `bottleneck`: shared-bottleneck scenarios — N concurrent senders on the
// mobile_lte_highspeed profile through one DropTail queue, with a scripted
// handoff-burst blackout on every flow's access stub — each followed by its
// fairness report and its capture archive. It stresses net::Link demux, a
// deep event queue and per-flow capture id tables that span the shared id
// space: a capture-memory or event-queue change shows here and barely
// moves `campaign`.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fairness.h"
#include "radio/profiles.h"
#include "trace/trace_binary.h"
#include "util/alloc_probe.h"
#include "util/crc32c.h"
#include "workload/multi_flow.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hsr::util::Duration;
using hsr::util::Status;
using hsr::util::TimePoint;

// 100 s scenarios run well past the burst and need ~380 MB of heap. N = 32
// for 300 s needs ~1.1 GB and spends a third of its time faulting pages
// in; N = 64 for 600 s needs 1.7 GB, too much for a shared machine. All flows
// ride one train, so one scenario's traffic swings by ~25 % with its radio
// environment; a repetition runs twelve scenarios (one at a time) to
// average that out.
constexpr unsigned kFlows = 32;
constexpr std::size_t kScenarios = 12;
constexpr double kDurationS = 100.0;
constexpr double kBurstBeginS = 40.0;
constexpr double kBurstEndS = 43.0;

constexpr const char* kRoot = "bottleneck.scenario";
constexpr const char* kSimulate = "sim.run_multi_flow";
constexpr const char* kFairness = "analysis.fairness_report";
constexpr const char* kEncode = "trace.write_capture_archive";

// Scenario s runs at seed `seed + 101 * s` (the sweep's seed stride).
hsr::workload::MultiFlowSweepSpec sweep(std::size_t scenarios, std::uint64_t seed) {
  hsr::workload::MultiFlowSweepSpec spec;
  spec.profile = hsr::radio::mobile_lte_highspeed();
  spec.flow_counts.assign(scenarios, kFlows);
  spec.duration = Duration::from_seconds(kDurationS);
  spec.base_seed = seed;
  spec.burst_begin = TimePoint::from_seconds(kBurstBeginS);
  spec.burst_end = TimePoint::from_seconds(kBurstEndS);
  return spec;
}

class Bottleneck final : public Workload {
 public:
  explicit Bottleneck(const RunOptions& options)
      : sweep_(sweep(kScenarios, options.seed)),
        warmup_(sweep(1, options.seed + 101 * kScenarios).scenario(0)) {}

  // Set-up runs one full-size scenario at the seed after the timed ones. It
  // warms the caches and faults in the heap the repetitions reuse.
  Status setup(int /*attempt*/) override {
    const auto result = hsr::workload::run_multi_flow(warmup_);
    if (!result.status.is_ok()) return result.status;
    std::ostringstream archive;
    hsr::trace::write_capture_archive(archive, result.captures);
    return hsr::analysis::fairness_report(result.captures, warmup_.duration).flows.size() ==
                   kFlows
               ? Status::ok()
               : Status::internal("warm-up fairness report lost flows");
  }

  RepResult run(Tracer* tracer) override {
    RepResult rep;
    std::uint64_t retransmissions = 0, timeouts = 0, queue_drops = 0;
    std::uint64_t scheduled = 0, tombstones = 0, sim_allocs = 0, capture_bytes = 0;
    std::string figures;
    std::uint32_t archive_crc = 0;
    double wall_s = 0.0;

    for (std::size_t s = 0; s < kScenarios; ++s) {
      const hsr::workload::MultiFlowSpec spec = sweep_.scenario(s);
      const auto tag = static_cast<std::int64_t>(s);
      const int root = tracer != nullptr ? tracer->open(kRoot, tag) : -1;
      const std::int64_t t0 = now_ns();
      const hsr::util::AllocProbe::Scope sim_probe;
      const auto result = [&] {
        SpanScope span(tracer, kSimulate, tag);
        return hsr::workload::run_multi_flow(spec);
      }();
      sim_allocs += sim_probe.news_delta();
      const auto report = [&] {
        SpanScope span(tracer, kFairness, tag);
        return hsr::analysis::fairness_report(result.captures, spec.duration);
      }();
      std::ostringstream archive;
      {
        SpanScope span(tracer, kEncode, tag);
        hsr::trace::write_capture_archive(archive, result.captures);
      }
      wall_s += static_cast<double>(now_ns() - t0) * 1e-9;
      if (tracer != nullptr) tracer->close(root);

      // Checks and bookkeeping, outside the timed part.
      const std::string bytes = archive.str();
      archive_crc = hsr::util::crc32c(archive_crc, bytes.data(), bytes.size());
      rep.b2_bytes += bytes.size();
      rep.flows += result.flows.size();
      rep.sim_events += result.sim_events;
      scheduled += result.sim_scheduled;
      tombstones += result.sim_tombstones;
      for (const auto& flow : result.flows) {
        retransmissions += flow.sender_stats.retransmissions;
        timeouts += flow.sender_stats.timeouts;
      }
      std::uint64_t scenario_capture_bytes = 0;
      for (const auto& capture : result.captures) {
        rep.transmissions += capture.data.sent_count() + capture.acks.sent_count();
        scenario_capture_bytes += (capture.data.transmissions().capacity() +
                                   capture.acks.transmissions().capacity()) *
                                  sizeof(hsr::trace::Transmission);
      }
      capture_bytes = std::max(capture_bytes, scenario_capture_bytes);
      queue_drops += result.downlink_aggregate.dropped_queue() +
                     result.uplink_aggregate.dropped_queue();

      if (!result.status.is_ok()) {
        rep.errors.push_back("run_multi_flow: " + result.status.to_string());
        rep.failed_flows += kFlows;
      }
      if (report.flows.size() != kFlows || result.captures.size() != kFlows) {
        rep.errors.push_back("fairness report covers " + std::to_string(report.flows.size()) +
                             " of " + std::to_string(kFlows) + " flows");
      }
      if (!(report.jain >= 1.0 / kFlows && report.jain <= 1.0)) {
        rep.errors.push_back("Jain index outside [1/N, 1]");
      }
      for (const double v : {report.jain, report.aggregate_goodput_pps,
                             report.aggregate_retransmission_rate}) {
        append_bits(figures, v);
      }
      for (const auto& f : report.flows) {
        append_bits(figures, f.goodput_pps);
        append_bits(figures, f.retransmission_rate);
      }
    }
    rep.wall_s = wall_s;

    char digest[320];
    std::snprintf(digest, sizeof(digest),
                  "flows=%" PRIu64 " archive_bytes=%" PRIu64
                  " archive_crc=%08x fairness_crc=%08x sim_events=%" PRIu64
                  " retransmissions=%" PRIu64 " timeouts=%" PRIu64 " queue_drops=%" PRIu64,
                  rep.flows, rep.b2_bytes, archive_crc, hsr::util::crc32c(figures),
                  rep.sim_events, retransmissions, timeouts, queue_drops);
    rep.digest = digest;

    sim_events_ = rep.sim_events;
    retransmissions_ = retransmissions;
    timeouts_ = timeouts;
    queue_drops_ = queue_drops;
    if (tracer != nullptr) {
      ++traced_reps_;
      events_ += rep.sim_events;
      scheduled_ += scheduled;
      tombstones_ += tombstones;
      sim_allocs_ += sim_allocs;
      transmissions_ += rep.transmissions;
      archive_bytes_ += rep.b2_bytes;
      capture_bytes_ = std::max(capture_bytes_, capture_bytes);
    }
    return rep;
  }

  std::map<std::string, double> layers(const Tracer& tracer) const override {
    std::map<std::string, double> out;
    if (traced_reps_ == 0) return out;
    const auto total = total_seconds_by_name(tracer.spans());
    out["sim.ns_per_event"] = per_unit(seconds_of(total, kSimulate), events_, 1e9);
    out["sim.tombstone_ratio"] = per_unit(static_cast<double>(tombstones_), scheduled_);
    out["sim.allocs_per_event"] = per_unit(static_cast<double>(sim_allocs_), events_);
    out["sim.events"] = static_cast<double>(sim_events_);
    out["sim.retransmissions"] = static_cast<double>(retransmissions_);
    out["sim.timeouts"] = static_cast<double>(timeouts_);
    out["sim.queue_drops"] = static_cast<double>(queue_drops_);
    out["trace.encode_ns_per_tx"] = per_unit(seconds_of(total, kEncode), transmissions_, 1e9);
    out["trace.bytes_per_tx"] = per_unit(static_cast<double>(archive_bytes_), transmissions_);
    out["trace.capture_mb"] = static_cast<double>(capture_bytes_) / 1e6;
    out["analysis.fairness_ns_per_tx"] =
        per_unit(seconds_of(total, kFairness), transmissions_, 1e9);
    return out;
  }

 private:
  const hsr::workload::MultiFlowSweepSpec sweep_;
  const hsr::workload::MultiFlowSpec warmup_;

  // Latest repetition's simulated counters (identical across repetitions).
  std::uint64_t sim_events_ = 0, retransmissions_ = 0, timeouts_ = 0, queue_drops_ = 0;
  // Sums over the traced repetitions.
  std::uint64_t traced_reps_ = 0, events_ = 0, scheduled_ = 0, tombstones_ = 0;
  std::uint64_t sim_allocs_ = 0, transmissions_ = 0, archive_bytes_ = 0, capture_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bottleneck(const RunOptions& options) {
  return std::make_unique<Bottleneck>(options);
}

}  // namespace perfbench
