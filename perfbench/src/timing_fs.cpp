#include "timing_fs.h"

#include <string_view>
#include <utility>

namespace perfbench {
namespace {

using hsr::util::Status;
using hsr::util::StatusOr;
using hsr::util::WritableFile;

class TimingFile final : public WritableFile {
 public:
  TimingFile(TimingFs& fs, std::unique_ptr<WritableFile> base, std::string path)
      : fs_(fs), base_(std::move(base)), path_(std::move(path)) {}

  Status append(std::string_view data) override {
    Status status = fs_.timed(FsOp::kAppend, path_, [&] { return base_->append(data); });
    if (status.is_ok()) fs_.count_written(data.size());
    return status;
  }
  Status sync() override {
    return fs_.timed(FsOp::kSync, path_, [&] { return base_->sync(); });
  }
  Status close() override {
    return fs_.timed(FsOp::kClose, path_, [&] { return base_->close(); });
  }

 private:
  TimingFs& fs_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

}  // namespace

const char* TimingFs::span_name(FsOp op) {
  switch (op) {
    case FsOp::kOpen: return "util.fs.open";
    case FsOp::kAppend: return "util.fs.append";
    case FsOp::kSync: return "util.fs.sync";
    case FsOp::kClose: return "util.fs.close";
    case FsOp::kRename: return "util.fs.rename";
    case FsOp::kRemove: return "util.fs.remove";
    case FsOp::kRemoveAll: return "util.fs.remove_all";
    case FsOp::kTruncate: return "util.fs.truncate";
    case FsOp::kMkdirs: return "util.fs.mkdirs";
    case FsOp::kFileSize: return "util.fs.file_size";
    case FsOp::kExists: return "util.fs.exists";
  }
  return "util.fs.unknown";
}

StatusOr<std::unique_ptr<WritableFile>> TimingFs::open_for_write(const std::string& path) {
  auto file = timed(FsOp::kOpen, path, [&] { return base_.open_for_write(path); });
  if (!file.is_ok()) return file.status();
  return std::unique_ptr<WritableFile>(
      new TimingFile(*this, std::move(file.value()), path));
}

Status TimingFs::rename_file(const std::string& from, const std::string& to) {
  return timed(FsOp::kRename, from, [&] { return base_.rename_file(from, to); });
}

Status TimingFs::remove_file(const std::string& path) {
  return timed(FsOp::kRemove, path, [&] { return base_.remove_file(path); });
}

Status TimingFs::remove_all(const std::string& path) {
  return timed(FsOp::kRemoveAll, path, [&] { return base_.remove_all(path); });
}

Status TimingFs::truncate_file(const std::string& path, std::uint64_t size) {
  return timed(FsOp::kTruncate, path, [&] { return base_.truncate_file(path, size); });
}

Status TimingFs::create_directories(const std::string& path) {
  return timed(FsOp::kMkdirs, path, [&] { return base_.create_directories(path); });
}

StatusOr<std::uint64_t> TimingFs::file_size(const std::string& path) {
  return timed(FsOp::kFileSize, path, [&] { return base_.file_size(path); });
}

bool TimingFs::exists(const std::string& path) {
  return timed(FsOp::kExists, path, [&] { return base_.exists(path); });
}

}  // namespace perfbench
