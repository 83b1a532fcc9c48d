#include "timing_fs.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_spec.h"
#include "util/fs.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

hsr::workload::StreamingDatasetResult small_campaign(const std::string& dir, hsr::util::Fs* fs) {
  hsr::workload::DatasetSpec spec = campaign_spec(8, 7);
  spec.configure_flow = nullptr;  // short flows instead of paper durations
  spec.flow_duration_min = hsr::util::Duration::seconds(10);
  spec.flow_duration_max = hsr::util::Duration::seconds(20);
  hsr::workload::StreamingDatasetOptions options;
  options.corpus_path = dir + "/corpus.hsrb";
  options.chunk_flows = 3;
  options.fs = fs;
  return hsr::workload::generate_dataset_streaming(spec, options);
}

class TimingFsTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::remove_all(root_); }
  void TearDown() override { std::filesystem::remove_all(root_); }
  const std::string root_ = "timing_fs_test.tmp";
};

TEST_F(TimingFsTest, CampaignThroughItWritesTheSameCorpusBytes) {
  const auto plain = small_campaign(root_ + "/real", nullptr);
  ASSERT_TRUE(plain.complete());

  Tracer tracer;
  std::vector<FsOp> seen;
  TimingFs fs(hsr::util::Fs::real(), &tracer,
              [&seen](FsOp op, const std::string&) { seen.push_back(op); });
  const int root = tracer.open("campaign");
  const auto timed = small_campaign(root_ + "/timed", &fs);
  tracer.close(root);
  ASSERT_TRUE(timed.complete());

  const std::string plain_bytes = read_file(root_ + "/real/corpus.hsrb");
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(read_file(root_ + "/timed/corpus.hsrb"), plain_bytes);
  EXPECT_EQ(timed.stats.to_text(), plain.stats.to_text());
  EXPECT_EQ(timed.flows_completed, 8u);

  // Three chunks commit, the manifest is rewritten after each, and the
  // merge writes the corpus: every one is an fsync plus a rename.
  const FsCounters& c = fs.counters();
  EXPECT_EQ(c.syncs, 3u /*chunks*/ + 4u /*manifests*/ + 1u /*merge*/);
  EXPECT_EQ(c.renames, c.syncs);
  EXPECT_GT(c.bytes_written, plain_bytes.size());  // chunks, then the merged corpus
  EXPECT_GT(c.sync_ns, 0);
  EXPECT_EQ(seen.size(), c.calls);

  // Every call became a util.fs span under the open campaign span.
  std::uint64_t fs_spans = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name).rfind("util.fs.", 0) == 0) {
      ++fs_spans;
      EXPECT_EQ(s.parent, 0);
    }
  }
  EXPECT_EQ(fs_spans, c.calls);
}

TEST_F(TimingFsTest, ForwardsFailuresUnchanged) {
  TimingFs fs(hsr::util::Fs::real());
  const hsr::util::Status status = fs.rename_file(root_ + "/missing", root_ + "/other");
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(fs.exists(root_ + "/missing"));
  EXPECT_EQ(fs.counters().calls, 2u);
  EXPECT_EQ(fs.counters().renames, 1u);
}

}  // namespace
}  // namespace perfbench
