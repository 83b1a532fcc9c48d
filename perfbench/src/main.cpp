// hsrbench — runs one benchmark workload and prints its metrics.
//
//   hsrbench --workload campaign|reanalyze|bottleneck --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Prints a human-readable ledger, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. An untraced run reports the
// end-to-end metrics, a traced run the per-layer ones. The exit status is
// non-zero when any output check fails. perfbench/run.py builds this binary
// and is the command to use.
#include <malloc.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "heap_probe.h"
#include "ledger.h"
#include "pins.h"
#include "workloads.h"

namespace perfbench {
namespace {

int usage() {
  std::cerr << "usage: hsrbench --workload campaign|reanalyze|bottleneck --seed N\n"
               "                --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n";
  return 2;
}

// Full precision, shortest form that reads back to the same double.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

int run(const RunOptions& options, const std::string& trace_out) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "campaign") {
    workload = make_campaign(options);
  } else if (options.workload == "reanalyze") {
    workload = make_reanalyze(options);
  } else if (options.workload == "bottleneck") {
    workload = make_bottleneck(options);
  } else {
    return usage();
  }
  std::vector<std::string> failures;

  std::vector<double> setup_s;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    const std::int64_t t0 = now_ns();
    const hsr::util::Status status = workload->setup(attempt);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!status.is_ok()) {
      std::cerr << "set-up failed: " << status.to_string() << '\n';
      return 1;
    }
  }

  // Repeat until the measuring time is used up. A traced run alternates
  // untraced and traced repetitions, so both see the same machine state.
  constexpr int kMinReps = 3;
  Tracer tracer;
  std::vector<RepResult> reps;
  std::vector<double> untraced_s, traced_s;
  double heap_mb = 0.0, rss_mb = 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    RepResult rep = workload->run(traced ? &tracer : nullptr);
    // Peak memory of set-up plus one repetition: what one campaign needs.
    if (i == 0) {
      heap_mb = static_cast<double>(peak_heap_bytes()) / 1e6;
      rss_mb = peak_rss_mb();
    }
    (traced ? traced_s : untraced_s).push_back(rep.wall_s);
    for (const std::string& e : rep.errors) failures.push_back(e);
    reps.push_back(std::move(rep));
    const auto enough = static_cast<std::size_t>(options.trace ? kMinReps - 1 : kMinReps);
    if (now_ns() >= deadline && untraced_s.size() >= enough &&
        (!options.trace || traced_s.size() >= enough)) {
      break;
    }
  }

  // Output checks: every repetition, traced or not, produced the same
  // outputs, and the default seed reproduces the pinned ones.
  const std::string& digest = reps.front().digest;
  for (const RepResult& rep : reps) {
    if (rep.digest != digest) {
      failures.push_back("repetitions disagree: '" + rep.digest + "' vs '" + digest + "'");
      break;
    }
  }
  if (options.seed == kDefaultSeed) {
    const char* pinned = pinned_digest(options.workload);
    if (pinned == nullptr || digest != pinned) {
      failures.push_back("digest differs from the pin for seed " +
                         std::to_string(kDefaultSeed) + ": '" + digest + "' vs '" +
                         (pinned != nullptr ? pinned : "(none)") + "'");
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& rep : reps) {
    attempted += rep.flows + rep.failed_flows;
    failed += rep.failed_flows;
  }

  const double wall_s = median(untraced_s);
  std::cout << "workload " << options.workload << " seed " << options.seed << ": "
            << reps.size() << " repetitions (" << traced_s.size() << " traced)\n"
            << "digest " << digest << '\n'
            << "setup " << describe(summarize(setup_s), "s") << '\n'
            << "repetition " << describe(summarize(untraced_s), "s") << '\n'
            << "peak RSS " << number(rss_mb) << " MB (not gated: it follows allocator "
            << "fragmentation, see heap_probe.h)\n";

  std::vector<Metric> metrics;
  if (!options.trace) {
    const RepResult& r = reps.front();
    std::map<std::string, double> values = {
        {"flows_per_s", static_cast<double>(r.flows) / wall_s},
        {"sim_events_per_s", static_cast<double>(r.sim_events) / wall_s},
        {"transmissions_per_s", static_cast<double>(r.transmissions) / wall_s},
        {"corpus_mb_per_s", static_cast<double>(r.b2_bytes) / 1e6 / wall_s},
        {"peak_heap_mb", heap_mb},
        {"setup_s", median(setup_s)},
        {"completed_ratio",
         attempted == 0 ? 0.0
                        : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
    };
    for (const MetricDef& def : kEndToEnd) {
      metrics.push_back({def.name, def.unit, values.at(def.name)});
    }
  } else {
    std::cout << "traced repetition " << describe(summarize(traced_s), "s") << '\n';
    const std::vector<Span>& spans = tracer.spans();
    // Self time per span name, per traced repetition: where the time went.
    const double n = static_cast<double>(traced_s.size());
    for (const auto& [name, self] : self_seconds_by_name(spans)) {
      std::cout << "self " << name << ' ' << number(self / n) << " s\n";
    }
    // Each call's duration, per span name: median and tail.
    std::map<std::string, std::vector<double>> durations;
    for (const Span& s : spans) {
      durations[s.name].push_back(static_cast<double>(s.duration_ns()) * 1e-6);
    }
    for (const auto& [name, samples] : durations) {
      std::cout << "span " << name << ": " << describe(summarize(samples), "ms") << '\n';
    }
    // Reconciliation: a root span's wall time is its children's time plus
    // its own self time, the residual no layer span covers.
    const std::vector<std::int64_t> self = self_times_ns(spans);
    double root_s = 0.0, residual_s = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) continue;
      root_s += static_cast<double>(spans[i].duration_ns()) * 1e-9;
      residual_s += static_cast<double>(self[i]) * 1e-9;
    }
    std::cout << "reconcile: traced wall " << number(root_s / n) << " s = layer spans "
              << number((root_s - residual_s) / n) << " s + residual "
              << number(residual_s / n) << " s per repetition\n";
    std::map<std::string, double> layers = workload->layers(tracer);
    layers["ledger.overhead_ratio"] = median(traced_s) / wall_s - 1.0;
    for (const MetricDef& def : kPerLayer) {
      metrics.push_back({def.name, def.unit, layers[def.name]});
    }
    if (!trace_out.empty()) {
      const hsr::util::Status written = write_trace_events(trace_out, tracer.spans());
      if (!written.is_ok()) failures.push_back(written.to_string());
      std::cout << "spans " << tracer.spans().size() << " written to " << trace_out << '\n';
    }
  }

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) failures.push_back("metric " + m.name + " is not finite");
  }
  for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << '\n';
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
  }

  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? number(m.value) : "0") << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the process: no block gets an mmap of its own and
  // the heap top is never given back. A repetition then reuses the pages
  // set-up and the repetitions before it faulted in, instead of paying
  // again for memory the previous repetition handed back to the kernel;
  // that was up to a third of a `bottleneck` repetition. Memory is gated by
  // peak_heap_mb instead.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  perfbench::RunOptions options;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return perfbench::usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return perfbench::usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return perfbench::usage();
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty()) {
    return perfbench::usage();
  }
  try {
    return perfbench::run(options, trace_out);
  } catch (const std::exception& e) {
    std::cerr << "hsrbench: " << e.what() << '\n';
    return 1;
  }
}
