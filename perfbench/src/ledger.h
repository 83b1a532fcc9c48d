// The benchmark's ledger: spans around calls into each layer, their self
// times, sample summaries and per-unit normalisation.
//
// A span is one timed call into a layer, named "<layer>.<call>", tagged
// with the flow (or frame) it worked on and with the span that was open when
// it started. Spans stay in memory for the whole run and are written out
// once, when it ends, so recording one costs two clock reads and a vector
// append.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";     // static string, "<layer>.<call>"
  std::int64_t flow = -1;    // flow or frame index; -1 = not per flow
  int parent = -1;           // index of the enclosing span; -1 = root
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

// Records spans on one thread. Spans nest: open() makes the new span a
// child of the innermost span still open.
class Tracer {
 public:
  int open(const char* name, std::int64_t flow = -1);
  // Closes span `id`, which must be the innermost open span.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Closes its span when it goes out of scope; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::int64_t flow = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, flow) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Self time of each span: its duration minus the part of its interval that
// its children cover. Parallel to `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// Seconds per span name, summed over all spans of that name: self time, and
// inclusive time (the whole duration).
std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);
std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans);
// The entry for `name` in such a map; 0 when no span had that name.
double seconds_of(const std::map<std::string, double>& by_name, const char* name);

// A timing series summarised as the guide asks: the median, and the highest
// percentile of {50, 75, 90, 95, 99, 99.9} that has at least ten samples
// above it (nearest-rank), with the sample count.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double top_percentile = 0.0;  // 0 = too few samples for any
  double top_value = 0.0;
};
Summary summarize(std::vector<double> samples);
std::string describe(const Summary& summary, const char* unit);

double median(std::vector<double> samples);

// `total` per unit of work, scaled (1e9 turns seconds into ns per unit);
// 0 when no units were done.
double per_unit(double total, std::uint64_t units, double scale = 1.0);

// Writes spans as Chrome trace-event JSON (load in chrome://tracing or
// Perfetto): one complete event per span, with its flow, id and parent.
[[nodiscard]] hsr::util::Status write_trace_events(const std::string& path,
                                                   const std::vector<Span>& spans);

}  // namespace perfbench
