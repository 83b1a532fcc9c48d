#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "util/logging.h"

namespace perfbench {

int Tracer::open(const char* name, std::int64_t flow) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, flow, parent, now_ns(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  HSR_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t reach = s.begin_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += static_cast<double>(s.duration_ns()) * 1e-9;
  return out;
}

double seconds_of(const std::map<std::string, double>& by_name, const char* name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Summary summarize(std::vector<double> samples) {
  Summary out;
  out.count = samples.size();
  out.median = median(samples);
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Percentiles in tenths of a percent, so ranks are exact integers.
  for (const std::size_t permille : {999, 990, 950, 900, 750, 500}) {
    // Nearest rank: the sample at 1-based rank ceil(permille/1000 * n).
    const std::size_t rank = (permille * n + 999) / 1000;
    if (rank >= 1 && n - rank >= 10) {
      out.top_percentile = static_cast<double>(permille) / 10.0;
      out.top_value = samples[rank - 1];
      break;
    }
  }
  return out;
}

std::string describe(const Summary& summary, const char* unit) {
  char buf[160];
  if (summary.top_percentile > 0.0) {
    std::snprintf(buf, sizeof(buf), "median %.6g %s, p%g %.6g %s (n=%zu)", summary.median,
                  unit, summary.top_percentile, summary.top_value, unit, summary.count);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "median %.6g %s (n=%zu; too few samples for a tail percentile)",
                  summary.median, unit, summary.count);
  }
  return buf;
}

double per_unit(double total, std::uint64_t units, double scale) {
  return units == 0 ? 0.0 : total * scale / static_cast<double>(units);
}

hsr::util::Status write_trace_events(const std::string& path,
                                     const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return hsr::util::Status::internal("cannot write trace '" + path + "'");
  const std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  out << "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"flow\":%lld}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.begin_ns - origin) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                  static_cast<long long>(s.flow));
    out << buf;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return hsr::util::Status::internal("short write to trace '" + path + "'");
  return hsr::util::Status::ok();
}

}  // namespace perfbench
