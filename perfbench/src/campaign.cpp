// `campaign`: the job users run. A streaming Table-I-mix campaign at paper
// flow durations, one worker thread, committed in several chunks and merged
// into one hsrtrace-b2 corpus. Every layer is on its critical path.
//
// The traced repetition splits the campaign's wall time into phases from
// the dataset hooks and the Fs seam: `simulate` runs from configure_flow to
// observe_flow, `reduce` (analysis, stats sample, encode and the chunk
// appends) from observe_flow to the next flow or to the chunk's first
// fsync, `commit` from that fsync (chunk rename and manifest rewrite) to the
// next flow, and `merge` from the opening of the corpus file to the end.
// What no phase covers — planning and the work-directory set-up before the
// first flow — is the residual, the self time of the campaign's root span.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "campaign_spec.h"
#include "timing_fs.h"
#include "trace/corpus_writer.h"
#include "trace/trace_binary.h"
#include "util/alloc_probe.h"
#include "util/crc32c.h"
#include "util/fs.h"
#include "workload/dataset.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hsr::util::Status;
using hsr::workload::DatasetSpec;
using hsr::workload::FlowRunConfig;
using hsr::workload::FlowRunResult;
using hsr::workload::StreamingDatasetOptions;

// 96 paper-length flows take ~4 s on one core: enough flows that the
// seed's radio and channel randomness averages out, few enough for several
// repetitions per run. 16-flow chunks commit six chunks.
constexpr std::uint64_t kFlows = 96;
constexpr std::uint64_t kChunkFlows = 16;
// Set-up warms caches and the allocator with a short campaign down the
// same path.
constexpr std::uint64_t kWarmupFlows = 8;
constexpr std::uint64_t kWarmupChunkFlows = 4;
constexpr double kWarmupDurationS = 20.0;

// Opens one phase span at a time under the campaign's root span.
class PhaseTracker {
 public:
  explicit PhaseTracker(Tracer* tracer) : tracer_(tracer) {}

  void enter(const char* phase, std::int64_t flow = -1) {
    leave();
    current_ = tracer_->open(phase, flow);
    phase_ = phase;
  }
  void leave() {
    if (current_ >= 0) tracer_->close(current_);
    current_ = -1;
    phase_ = nullptr;
  }
  const char* phase() const { return phase_; }

 private:
  Tracer* tracer_;
  int current_ = -1;
  const char* phase_ = nullptr;
};

constexpr const char* kSimulate = "workload.simulate";
constexpr const char* kReduce = "workload.reduce";
constexpr const char* kCommit = "workload.commit";
constexpr const char* kMerge = "workload.merge";
constexpr const char* kRoot = "workload.campaign";

class Campaign final : public Workload {
 public:
  explicit Campaign(const RunOptions& options)
      : spec_(campaign_spec(kFlows, options.seed)),
        dir_(options.work_dir + "/campaign"),
        corpus_(dir_ + "/corpus.hsrb") {}

  Status setup(int attempt) override {
    const std::string dir = dir_ + "/warmup" + std::to_string(attempt);
    Status made = hsr::util::Fs::real().create_directories(dir);
    if (!made.is_ok()) return made;
    DatasetSpec warm = campaign_spec(kWarmupFlows, spec_.seed);
    warm.configure_flow = nullptr;  // keep the short warm-up durations
    warm.flow_duration_min = hsr::util::Duration::from_seconds(kWarmupDurationS);
    warm.flow_duration_max = warm.flow_duration_min;
    StreamingDatasetOptions options;
    options.corpus_path = dir + "/corpus.hsrb";
    options.chunk_flows = kWarmupChunkFlows;
    const auto result = hsr::workload::generate_dataset_streaming(warm, options);
    if (!result.complete()) return Status::internal("warm-up campaign incomplete");
    return hsr::util::Fs::real().remove_all(dir);
  }

  RepResult run(Tracer* tracer) override {
    std::uint64_t transmissions = 0, retransmissions = 0, timeouts = 0;
    std::uint64_t scheduled = 0, tombstones = 0, sim_allocs = 0, alloc_mark = 0;
    std::uint64_t capture_bytes = 0;

    DatasetSpec spec = spec_;
    StreamingDatasetOptions options;
    options.corpus_path = corpus_;
    options.chunk_flows = kChunkFlows;

    std::unique_ptr<PhaseTracker> phases;
    std::unique_ptr<TimingFs> fs;
    if (tracer != nullptr) {
      phases = std::make_unique<PhaseTracker>(tracer);
      const std::string merge_target = corpus_ + ".tmp";
      fs = std::make_unique<TimingFs>(
          hsr::util::Fs::real(), tracer,
          [&phases, merge_target](FsOp op, const std::string& path) {
            if (op == FsOp::kSync && phases->phase() == kReduce) {
              phases->enter(kCommit);
            } else if (op == FsOp::kOpen && path == merge_target) {
              phases->enter(kMerge);
            }
          });
      options.fs = fs.get();
      spec.configure_flow = [&](std::uint64_t i, FlowRunConfig& cfg) {
        spec_.configure_flow(i, cfg);
        phases->enter(kSimulate, static_cast<std::int64_t>(i));
        alloc_mark = hsr::util::AllocProbe::news;
      };
    }
    spec.observe_flow = [&](std::uint64_t i, const FlowRunResult& run) {
      if (tracer != nullptr) {
        sim_allocs += hsr::util::AllocProbe::news - alloc_mark;
        phases->enter(kReduce, static_cast<std::int64_t>(i));
        scheduled += run.sim_scheduled;
        tombstones += run.sim_tombstones;
        const std::uint64_t bytes =
            (run.capture.data.transmissions().capacity() +
             run.capture.acks.transmissions().capacity()) *
            sizeof(hsr::trace::Transmission);
        capture_bytes = std::max(capture_bytes, bytes);
      }
      transmissions += run.capture.data.sent_count() + run.capture.acks.sent_count();
      retransmissions += run.sender_stats.retransmissions;
      timeouts += run.sender_stats.timeouts;
    };

    const int root = tracer != nullptr ? tracer->open(kRoot) : -1;
    const std::int64_t t0 = now_ns();
    const auto result = hsr::workload::generate_dataset_streaming(spec, options);
    const std::int64_t t1 = now_ns();
    if (tracer != nullptr) {
      phases->leave();
      tracer->close(root);
    }

    RepResult rep;
    rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.flows = result.flows_completed;
    rep.failed_flows = result.quarantined.size();
    rep.transmissions = transmissions;
    rep.sim_events = result.total_sim_events;
    rep.b2_bytes = result.corpus_bytes;
    check(result, rep);

    if (tracer != nullptr) {
      ++traced_reps_;
      events_ += result.total_sim_events;
      scheduled_ += scheduled;
      tombstones_ += tombstones;
      sim_allocs_ += sim_allocs;
      transmissions_ += transmissions;
      corpus_bytes_ += result.corpus_bytes;
      capture_bytes_ = std::max(capture_bytes_, capture_bytes);
      fs_syncs_ += fs->counters().syncs;
      fs_sync_ns_ += fs->counters().sync_ns;
      fs_bytes_ += fs->counters().bytes_written;
      fs_renames_ += fs->counters().renames;
    }
    const auto& loss = result.stats.loss_totals();
    constexpr auto kQueue =
        static_cast<std::size_t>(hsr::net::DropCategory::kQueueOverflow);
    queue_drops_ = loss.data_by_category[kQueue] + loss.ack_by_category[kQueue];
    retransmissions_ = retransmissions;
    timeouts_ = timeouts;
    sim_events_ = result.total_sim_events;

    char digest[512];
    std::snprintf(digest, sizeof(digest),
                  "flows=%" PRIu64 " quarantined=%zu corpus_bytes=%" PRIu64
                  " corpus_crc=%08x stats_crc=%08x sim_events=%" PRIu64
                  " retransmissions=%" PRIu64 " timeouts=%" PRIu64 " queue_drops=%" PRIu64,
                  result.flows_completed, result.quarantined.size(), result.corpus_bytes,
                  corpus_crc_, hsr::util::crc32c(result.stats.to_text()),
                  result.total_sim_events, retransmissions, timeouts, queue_drops_);
    rep.digest = digest;
    return rep;
  }

  std::map<std::string, double> layers(const Tracer& tracer) const override {
    std::map<std::string, double> out;
    if (traced_reps_ == 0) return out;
    const double reps = static_cast<double>(traced_reps_);
    const auto total = total_seconds_by_name(tracer.spans());
    const auto self = self_seconds_by_name(tracer.spans());
    const double simulate_s = seconds_of(total, kSimulate);
    out["workload.simulate_s"] = simulate_s / reps;
    out["workload.reduce_s"] = seconds_of(total, kReduce) / reps;
    out["workload.commit_s"] = seconds_of(total, kCommit) / reps;
    out["workload.merge_s"] = seconds_of(total, kMerge) / reps;
    out["workload.residual_s"] = seconds_of(self, kRoot) / reps;
    out["sim.ns_per_event"] = per_unit(simulate_s, events_, 1e9);
    out["sim.tombstone_ratio"] = per_unit(static_cast<double>(tombstones_), scheduled_);
    out["sim.allocs_per_event"] = per_unit(static_cast<double>(sim_allocs_), events_);
    out["sim.events"] = static_cast<double>(sim_events_);
    out["sim.retransmissions"] = static_cast<double>(retransmissions_);
    out["sim.timeouts"] = static_cast<double>(timeouts_);
    out["sim.queue_drops"] = static_cast<double>(queue_drops_);
    out["trace.bytes_per_tx"] = per_unit(static_cast<double>(corpus_bytes_), transmissions_);
    out["trace.capture_mb"] = static_cast<double>(capture_bytes_) / 1e6;
    out["util.fs.syncs"] = static_cast<double>(fs_syncs_) / reps;
    out["util.fs.sync_s"] = static_cast<double>(fs_sync_ns_) * 1e-9 / reps;
    out["util.fs.bytes_written"] = static_cast<double>(fs_bytes_) / reps;
    out["util.fs.renames"] = static_cast<double>(fs_renames_) / reps;
    return out;
  }

 private:
  // Output checks of one repetition: the corpus verifies intact, holds
  // every planned flow, and nothing was quarantined.
  void check(const hsr::workload::StreamingDatasetResult& result, RepResult& rep) {
    const std::uint64_t planned = hsr::workload::DatasetPlan(spec_).flow_count();
    if (!result.complete()) {
      rep.errors.push_back("campaign incomplete: config '" +
                           result.config_status.to_string() + "' io '" +
                           result.io_status.to_string() + "' quarantined " +
                           std::to_string(result.quarantined.size()));
    }
    if (result.flows_completed != planned) {
      rep.errors.push_back("corpus holds " + std::to_string(result.flows_completed) +
                           " flows, plan has " + std::to_string(planned));
    }
    const auto verified = hsr::trace::verify_trace_file(corpus_);
    if (!verified.is_ok() || !verified.value().intact ||
        verified.value().flows != planned) {
      rep.errors.push_back("verify_trace_file: corpus not intact (" +
                           verified.status().to_string() + ")");
    }
    const auto crc = hsr::trace::crc32c_of_file(corpus_);
    corpus_crc_ = crc.is_ok() ? crc.value() : 0;
    if (!crc.is_ok()) rep.errors.push_back("cannot read corpus: " + crc.status().to_string());
  }

  const DatasetSpec spec_;
  const std::string dir_;
  const std::string corpus_;
  std::uint32_t corpus_crc_ = 0;

  // Latest repetition's simulated counters (identical across repetitions).
  std::uint64_t sim_events_ = 0, retransmissions_ = 0, timeouts_ = 0, queue_drops_ = 0;
  // Sums over the traced repetitions.
  std::uint64_t traced_reps_ = 0;
  std::uint64_t events_ = 0, scheduled_ = 0, tombstones_ = 0, sim_allocs_ = 0;
  std::uint64_t transmissions_ = 0, corpus_bytes_ = 0, capture_bytes_ = 0;
  std::uint64_t fs_syncs_ = 0, fs_bytes_ = 0, fs_renames_ = 0;
  std::int64_t fs_sync_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const RunOptions& options) {
  return std::make_unique<Campaign>(options);
}

}  // namespace perfbench
