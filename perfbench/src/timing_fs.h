// A util::Fs decorator that times and counts every durable-write call and
// forwards it unchanged to another Fs (normally Fs::real()).
//
// With a Tracer attached, each call becomes a "util.fs.<op>" span under
// whatever span is open when it starts. An optional listener sees each call
// before it runs; the campaign workload uses it to tell when a chunk commit
// or the final merge begins, which no dataset hook reports.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ledger.h"
#include "util/fs.h"

namespace perfbench {

enum class FsOp {
  kOpen,
  kAppend,
  kSync,
  kClose,
  kRename,
  kRemove,
  kRemoveAll,
  kTruncate,
  kMkdirs,
  kFileSize,
  kExists,
};

struct FsCounters {
  std::uint64_t calls = 0;
  std::uint64_t syncs = 0;
  std::uint64_t renames = 0;
  std::uint64_t bytes_written = 0;  // bytes handed to append()
  std::int64_t sync_ns = 0;
};

class TimingFs final : public hsr::util::Fs {
 public:
  using Listener = std::function<void(FsOp op, const std::string& path)>;

  explicit TimingFs(hsr::util::Fs& base, Tracer* tracer = nullptr, Listener listener = {})
      : base_(base), tracer_(tracer), listener_(std::move(listener)) {}

  hsr::util::StatusOr<std::unique_ptr<hsr::util::WritableFile>> open_for_write(
      const std::string& path) override;
  hsr::util::Status rename_file(const std::string& from, const std::string& to) override;
  hsr::util::Status remove_file(const std::string& path) override;
  hsr::util::Status remove_all(const std::string& path) override;
  hsr::util::Status truncate_file(const std::string& path, std::uint64_t size) override;
  hsr::util::Status create_directories(const std::string& path) override;
  hsr::util::StatusOr<std::uint64_t> file_size(const std::string& path) override;
  bool exists(const std::string& path) override;

  const FsCounters& counters() const { return counters_; }

  // Runs `fn` as one timed call of kind `op` on `path`. Used by the files
  // this Fs hands out as well as by its own operations.
  template <typename Fn>
  auto timed(FsOp op, const std::string& path, Fn&& fn) {
    if (listener_) listener_(op, path);
    SpanScope span(tracer_, span_name(op));
    const std::int64_t t0 = now_ns();
    auto result = fn();
    ++counters_.calls;
    if (op == FsOp::kSync) {
      ++counters_.syncs;
      counters_.sync_ns += now_ns() - t0;
    } else if (op == FsOp::kRename) {
      ++counters_.renames;
    }
    return result;
  }

  void count_written(std::uint64_t bytes) { counters_.bytes_written += bytes; }

 private:
  static const char* span_name(FsOp op);

  hsr::util::Fs& base_;
  Tracer* tracer_;
  Listener listener_;
  FsCounters counters_;
};

}  // namespace perfbench
