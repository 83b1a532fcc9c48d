// The benchmark's three workloads behind one interface, and the metric
// tables every run reports.
//
// Each workload is single-threaded in this process. A run sets the
// workload up kSetupRepeats times, then repeats it until the measuring time
// is used up; with tracing on, traced and untraced repetitions alternate so
// the run can report the tracing overhead and prove that tracing leaves the
// outputs byte-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space, removed after the run
};

// What one repetition did and produced.
struct RepResult {
  double wall_s = 0.0;
  std::uint64_t flows = 0;         // flows completed / re-analysed / simulated
  std::uint64_t failed_flows = 0;  // quarantined or failed
  std::uint64_t transmissions = 0; // captured packet records, both directions
  std::uint64_t sim_events = 0;    // simulated events done (or, for
                                   // reanalyze, represented by the corpus)
  std::uint64_t b2_bytes = 0;      // hsrtrace-b2 bytes written or read
  // Everything a speed-only change must leave identical: output checksums
  // and the simulated counters. Compared across repetitions, and against
  // the pin for the default seed.
  std::string digest;
  std::vector<std::string> errors;  // failed output checks
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up; the run times kSetupRepeats of them and reports the median.
  [[nodiscard]] virtual hsr::util::Status setup(int attempt) = 0;
  // One repetition. `tracer` is null for an untraced repetition; a traced
  // one also accumulates the per-layer ledger.
  virtual RepResult run(Tracer* tracer) = 0;
  // Per-layer metrics over the traced repetitions so far, by metric name.
  // Metrics a workload does not exercise are left out (reported as 0).
  virtual std::map<std::string, double> layers(const Tracer& tracer) const = 0;
};

std::unique_ptr<Workload> make_campaign(const RunOptions& options);
std::unique_ptr<Workload> make_reanalyze(const RunOptions& options);
std::unique_ptr<Workload> make_bottleneck(const RunOptions& options);

// Appends the bit pattern of `v` to a digest buffer.
inline void append_bits(std::string& out, double v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

inline constexpr int kSetupRepeats = 3;
// The seed whose digests are pinned in pins.h.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by an untraced run (BENCHMARK.json "end_to_end").
inline constexpr MetricDef kEndToEnd[] = {
    {"flows_per_s", "1/s"},
    {"sim_events_per_s", "1/s"},
    {"transmissions_per_s", "1/s"},
    {"corpus_mb_per_s", "MB/s"},
    {"peak_heap_mb", "MB"},
    {"setup_s", "s"},
    {"completed_ratio", "ratio"},
};

// Reported by a traced run (BENCHMARK.json "per_layer").
inline constexpr MetricDef kPerLayer[] = {
    {"workload.simulate_s", "s"},
    {"workload.reduce_s", "s"},
    {"workload.commit_s", "s"},
    {"workload.merge_s", "s"},
    {"workload.residual_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.tombstone_ratio", "ratio"},
    {"sim.allocs_per_event", "allocs/event"},
    {"sim.events", "count"},
    {"sim.retransmissions", "count"},
    {"sim.timeouts", "count"},
    {"sim.queue_drops", "count"},
    {"trace.decode_ns_per_tx", "ns"},
    {"trace.encode_ns_per_tx", "ns"},
    {"trace.bytes_per_tx", "B"},
    {"trace.capture_mb", "MB"},
    {"trace.allocs_per_frame", "allocs/frame"},
    {"analysis.analyze_ns_per_tx", "ns"},
    {"analysis.fairness_ns_per_tx", "ns"},
    {"analysis.allocs_per_flow", "allocs/flow"},
    {"model.evaluate_us_per_flow", "us"},
    {"util.fs.syncs", "count"},
    {"util.fs.sync_s", "s"},
    {"util.fs.bytes_written", "B"},
    {"util.fs.renames", "count"},
    {"ledger.overhead_ratio", "ratio"},
};

}  // namespace perfbench
