// `reanalyze`: the paper's §III/§IV methodology on archived captures. Set-up
// writes a b2 corpus; each repetition decodes it frame by frame and runs
// analyze_flow, loss_breakdown, CorpusStats::absorb and model::evaluate_flow
// on every flow. The simulator does no work here, so a simulator change must
// read "no change" on this workload, while an analysis change shows at full
// strength.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "analysis/corpus_stats.h"
#include "analysis/flow_analysis.h"
#include "campaign_spec.h"
#include "model/params.h"
#include "tcp/types.h"
#include "trace/trace_binary.h"
#include "util/alloc_probe.h"
#include "util/crc32c.h"
#include "workload/dataset.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hsr::util::Status;

// Half the campaign's flows: one pass takes about a second, so a run
// holds many passes, and three corpus generations keep set-up short.
constexpr std::uint64_t kFlows = 48;
constexpr std::uint64_t kChunkFlows = 16;

constexpr const char* kRoot = "reanalyze.pass";
constexpr const char* kDecode = "trace.decode";
constexpr const char* kAnalyze = "analysis.analyze_flow";
constexpr const char* kBreakdown = "analysis.loss_breakdown";
constexpr const char* kAbsorb = "analysis.absorb";
constexpr const char* kEvaluate = "model.evaluate_flow";

class Reanalyze final : public Workload {
 public:
  explicit Reanalyze(const RunOptions& options)
      : spec_(campaign_spec(kFlows, options.seed)),
        plan_(spec_),
        corpus_(options.work_dir + "/reanalyze/corpus.hsrb") {}

  // Generates the corpus in a child process, so that the generator's memory
  // stays out of this process's peak_heap_mb. Every generation must produce
  // the same stats digest.
  Status setup(int /*attempt*/) override {
    const std::string report = corpus_ + ".setup";
    std::cout.flush();
    const pid_t child = fork();
    if (child < 0) return Status::internal("fork failed");
    if (child == 0) _exit(generate(report) ? 0 : 1);
    int wstatus = 0;
    if (waitpid(child, &wstatus, 0) != child || !WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != 0) {
      return Status::internal("corpus generation failed");
    }
    std::ifstream in(report, std::ios::binary);
    std::uint64_t events = 0, bytes = 0;
    in >> events >> bytes;
    in.get();
    if (!in) return Status::internal("unreadable set-up report");
    const std::string stats((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (!expected_stats_.empty() && stats != expected_stats_) {
      return Status::internal("corpus generation is not deterministic");
    }
    expected_stats_ = stats;
    represented_events_ = events;
    corpus_bytes_ = bytes;
    return Status::ok();
  }

  RepResult run(Tracer* tracer) override {
    RepResult rep;
    std::uint64_t frames = 0, decode_allocs = 0, analysis_allocs = 0;
    std::uint64_t capture_bytes = 0;
    hsr::analysis::CorpusStats stats;
    std::string evaluations;

    const int root = tracer != nullptr ? tracer->open(kRoot) : -1;
    const std::int64_t t0 = now_ns();
    std::ifstream in(corpus_, std::ios::binary);
    hsr::trace::BinaryTraceReader reader(in);
    Status opened = reader.open();
    if (!opened.is_ok()) rep.errors.push_back("open corpus: " + opened.to_string());
    hsr::trace::FlowCapture capture;
    hsr::trace::QuarantineRecord quarantine;
    while (opened.is_ok()) {
      const hsr::util::AllocProbe::Scope decode_probe;
      const auto frame = [&] {
        SpanScope span(tracer, kDecode, static_cast<std::int64_t>(frames));
        return reader.next(&capture, &quarantine);
      }();
      decode_allocs += decode_probe.news_delta();
      if (!frame.is_ok()) {
        rep.errors.push_back("decode: " + frame.status().to_string());
        break;
      }
      if (frame.value() == hsr::trace::BinaryTraceReader::Frame::kEnd) break;
      ++frames;
      if (frame.value() != hsr::trace::BinaryTraceReader::Frame::kFlow) {
        rep.errors.push_back("corpus holds a frame that is not a flow");
        ++rep.failed_flows;
        continue;
      }
      const auto flow = static_cast<std::int64_t>(capture.flow);
      const hsr::workload::FlowTask task = plan_.task(capture.flow);
      std::uint64_t bytes_captured = 0;
      for (const auto& tx : capture.data.transmissions()) bytes_captured += tx.packet.size_bytes;
      for (const auto& tx : capture.acks.transmissions()) bytes_captured += tx.packet.size_bytes;
      rep.transmissions += capture.data.sent_count() + capture.acks.sent_count();
      capture_bytes = std::max<std::uint64_t>(
          capture_bytes, (capture.data.transmissions().capacity() +
                          capture.acks.transmissions().capacity()) *
                             sizeof(hsr::trace::Transmission));

      const hsr::util::AllocProbe::Scope analysis_probe;
      hsr::analysis::FlowAnalysis analysis;
      hsr::analysis::LossBreakdown breakdown;
      {
        SpanScope span(tracer, kAnalyze, flow);
        analysis = hsr::analysis::analyze_flow(capture);
      }
      {
        SpanScope span(tracer, kBreakdown, flow);
        breakdown = hsr::analysis::loss_breakdown(capture);
      }
      {
        SpanScope span(tracer, kAbsorb, flow);
        stats.absorb(hsr::analysis::FlowStatsSample::from_flow(
            analysis, breakdown,
            task.profile.mobility == hsr::radio::Mobility::kHighSpeed, bytes_captured));
      }
      analysis_allocs += analysis_probe.news_delta();
      hsr::model::FlowEvaluation eval;
      {
        SpanScope span(tracer, kEvaluate, flow);
        hsr::model::EstimationOptions opt;
        opt.b = hsr::tcp::TcpOptions{}.delayed_ack_b;
        opt.w_m = task.profile.receiver_window_segments;
        eval = hsr::model::evaluate_flow(analysis, opt);
      }
      for (const double v : {eval.trace_pps, eval.padhye_pps, eval.enhanced_pps,
                             eval.d_padhye, eval.d_enhanced}) {
        append_bits(evaluations, v);
      }
      ++rep.flows;
    }
    const std::int64_t t1 = now_ns();
    if (tracer != nullptr) tracer->close(root);

    rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.sim_events = represented_events_;
    rep.b2_bytes = corpus_bytes_;
    const std::string stats_text = stats.to_text();
    if (rep.flows != plan_.flow_count()) {
      rep.errors.push_back("re-analysed " + std::to_string(rep.flows) + " flows, plan has " +
                           std::to_string(plan_.flow_count()));
    }
    if (stats_text != expected_stats_) {
      rep.errors.push_back("re-analysed stats differ from the campaign's hsrcorpusstats-v1");
    }
    char digest[256];
    std::snprintf(digest, sizeof(digest),
                  "flows=%" PRIu64 " transmissions=%" PRIu64 " corpus_bytes=%" PRIu64
                  " stats_crc=%08x model_crc=%08x",
                  rep.flows, rep.transmissions, corpus_bytes_,
                  hsr::util::crc32c(stats_text), hsr::util::crc32c(evaluations));
    rep.digest = digest;

    if (tracer != nullptr) {
      ++traced_reps_;
      frames_ += frames;
      flows_ += rep.flows;
      transmissions_ += rep.transmissions;
      decode_allocs_ += decode_allocs;
      analysis_allocs_ += analysis_allocs;
      capture_bytes_ = std::max(capture_bytes_, capture_bytes);
    }
    return rep;
  }

  std::map<std::string, double> layers(const Tracer& tracer) const override {
    std::map<std::string, double> out;
    if (traced_reps_ == 0) return out;
    const auto total = total_seconds_by_name(tracer.spans());
    const auto get = [&total](const char* name) { return seconds_of(total, name); };
    const double reps = static_cast<double>(traced_reps_);
    out["trace.decode_ns_per_tx"] = per_unit(get(kDecode), transmissions_, 1e9);
    out["trace.bytes_per_tx"] =
        per_unit(static_cast<double>(corpus_bytes_) * reps, transmissions_);
    out["trace.capture_mb"] = static_cast<double>(capture_bytes_) / 1e6;
    out["trace.allocs_per_frame"] = per_unit(static_cast<double>(decode_allocs_), frames_);
    out["analysis.analyze_ns_per_tx"] =
        per_unit(get(kAnalyze) + get(kBreakdown), transmissions_, 1e9);
    out["analysis.allocs_per_flow"] = per_unit(static_cast<double>(analysis_allocs_), flows_);
    out["model.evaluate_us_per_flow"] = per_unit(get(kEvaluate), flows_, 1e6);
    return out;
  }

 private:
  // Child side of setup(): writes the corpus, then "<sim events> <corpus
  // bytes>" and the campaign's stats digest to `report`.
  bool generate(const std::string& report) const {
    hsr::workload::StreamingDatasetOptions options;
    options.corpus_path = corpus_;
    options.chunk_flows = kChunkFlows;
    const auto result = hsr::workload::generate_dataset_streaming(spec_, options);
    if (!result.complete()) return false;
    std::ofstream out(report, std::ios::binary | std::ios::trunc);
    out << result.total_sim_events << ' ' << result.corpus_bytes << '\n'
        << result.stats.to_text();
    out.flush();
    return static_cast<bool>(out);
  }

  const hsr::workload::DatasetSpec spec_;
  const hsr::workload::DatasetPlan plan_;
  const std::string corpus_;
  std::string expected_stats_;  // the generating campaign's digest
  std::uint64_t corpus_bytes_ = 0;
  std::uint64_t represented_events_ = 0;

  // Sums over the traced repetitions.
  std::uint64_t traced_reps_ = 0, frames_ = 0, flows_ = 0, transmissions_ = 0;
  std::uint64_t decode_allocs_ = 0, analysis_allocs_ = 0, capture_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_reanalyze(const RunOptions& options) {
  return std::make_unique<Reanalyze>(options);
}

}  // namespace perfbench
