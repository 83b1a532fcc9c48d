#include "ledger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

Span span(const char* name, int parent, std::int64_t begin, std::int64_t end) {
  return Span{name, -1, parent, begin, end};
}

TEST(LedgerSelfTime, SubtractsNestedChildrenOnlyFromTheirParent) {
  // root [0,100] ├ a [10,40] └ a.inner [20,30]
  //              └ b [50,90]
  const std::vector<Span> spans = {
      span("root", -1, 0, 100),
      span("a", 0, 10, 40),
      span("a.inner", 1, 20, 30),
      span("b", 0, 50, 90),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
  // Self times partition the root's wall time exactly.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], spans[0].duration_ns());
}

TEST(LedgerSelfTime, CountsOverlappingAndOverhangingChildrenOnce) {
  const std::vector<Span> spans = {
      span("root", -1, 0, 100),
      span("c", 0, 10, 50),
      span("c", 0, 30, 60),    // overlaps the first child by 20
      span("c", 0, 90, 130),   // runs past the parent's end
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // covered: [10,60] and [90,100]
}

TEST(LedgerSelfTime, SumsByName) {
  const std::vector<Span> spans = {
      span("root", -1, 0, 1'000'000'000),
      span("x", 0, 0, 250'000'000),
      span("x", 0, 500'000'000, 750'000'000),
  };
  const auto self = self_seconds_by_name(spans);
  const auto total = total_seconds_by_name(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 0.5);
  EXPECT_DOUBLE_EQ(self.at("x"), 0.5);
  EXPECT_DOUBLE_EQ(total.at("root"), 1.0);
  EXPECT_DOUBLE_EQ(total.at("x"), 0.5);
  EXPECT_DOUBLE_EQ(seconds_of(total, "x"), 0.5);
  EXPECT_EQ(seconds_of(total, "absent"), 0.0);
}

TEST(LedgerTracer, TagsParentsAndFlows) {
  Tracer tracer;
  const int root = tracer.open("root");
  const int first = tracer.open("child", 7);
  tracer.close(first);
  {
    SpanScope scope(&tracer, "child", 8);
    SpanScope inner(&tracer, "grandchild", 8);
  }
  tracer.close(root);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].flow, 7);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].flow, 8);
  EXPECT_EQ(spans[3].parent, 2);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.begin_ns);

  SpanScope untraced(nullptr, "ignored");  // a null tracer records nothing
  EXPECT_EQ(tracer.spans().size(), 4u);
}

TEST(LedgerSummary, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(LedgerSummary, TopPercentileKeepsTenSamplesAboveIt) {
  // Too few samples: even the median has fewer than ten above it.
  Summary s = summarize(one_to(19));
  EXPECT_EQ(s.count, 19u);
  EXPECT_DOUBLE_EQ(s.median, 10.0);
  EXPECT_EQ(s.top_percentile, 0.0);

  // 20 samples: p50 is rank 10, with exactly ten above it.
  s = summarize(one_to(20));
  EXPECT_EQ(s.top_percentile, 50.0);
  EXPECT_DOUBLE_EQ(s.top_value, 10.0);

  // 100 samples: p90 (rank 90) is the highest with ten above.
  s = summarize(one_to(100));
  EXPECT_EQ(s.top_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.top_value, 90.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);

  // 1000 samples: p99 (rank 990).
  s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.top_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.top_value, 990.0);

  EXPECT_NE(describe(s, "s").find("(n=1000)"), std::string::npos);
  EXPECT_NE(describe(summarize(one_to(5)), "s").find("(n=5;"), std::string::npos);
}

TEST(LedgerNormalisation, PerTransmission) {
  // 2 s of decode over a million transmissions is 2000 ns each.
  EXPECT_DOUBLE_EQ(per_unit(2.0, 1'000'000, 1e9), 2000.0);
  // Plain ratios (tombstones per scheduled event) use the default scale.
  EXPECT_DOUBLE_EQ(per_unit(39.0, 100), 0.39);
  // A layer that did no work reports zero, not a division by zero.
  EXPECT_EQ(per_unit(1.0, 0, 1e9), 0.0);
}

TEST(LedgerTraceEvents, WritesOneCompleteEventPerSpan) {
  const std::string path = "ledger_test_spans.json";
  const std::vector<Span> spans = {span("root", -1, 1000, 5000), span("leaf", 0, 2000, 3000)};
  ASSERT_TRUE(write_trace_events(path, spans).is_ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  const std::string json = text.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"leaf\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,"
                      "\"dur\":1.000,\"args\":{\"id\":1,\"parent\":0,\"flow\":-1}"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
