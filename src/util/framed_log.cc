#include "util/framed_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "util/crc32.h"

namespace dflow {

namespace {

constexpr size_t kHeaderBytes = 8;

}  // namespace

FramedLog::~FramedLog() {
  if (file_ != nullptr) {
    // Normal destruction makes everything appended durable; only Abandon()
    // (and SIGKILL) drop the pending tail.
    (void)Sync();
    std::fclose(file_);
  }
}

Result<std::unique_ptr<FramedLog>> FramedLog::Open(const std::string& path,
                                                   uint64_t records) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open log '" + path +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<FramedLog>(new FramedLog(file, records));
}

Status FramedLog::Append(std::string_view payload) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("log abandoned");
  }
  uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                        Crc32::Of(payload)};
  pending_.append(reinterpret_cast<const char*>(header), kHeaderBytes);
  pending_.append(payload);
  bytes_appended_ += static_cast<int64_t>(kHeaderBytes + payload.size());
  ++appended_;
  return Status::OK();
}

Status FramedLog::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("log abandoned");
  }
  if (pending_.empty()) {
    return Status::OK();
  }
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    return Status::IOError("log append failed: " +
                           std::string(std::strerror(errno)));
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("log flush failed");
  }
  pending_.clear();
  synced_ = appended_;
  return Status::OK();
}

void FramedLog::Abandon() {
  if (file_ == nullptr) {
    return;
  }
  pending_.clear();
  std::fclose(file_);  // Nothing is left in stdio's buffer after a Sync.
  file_ = nullptr;
}

Result<std::vector<std::string>> FramedLog::ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no log at '" + path + "'");
  }
  struct stat st;
  if (fstat(fileno(file), &st) != 0) {
    std::fclose(file);
    return Status::IOError("cannot stat log '" + path + "'");
  }
  uint64_t left = static_cast<uint64_t>(st.st_size);
  std::vector<std::string> records;
  while (left >= kHeaderBytes) {
    uint32_t header[2];
    if (std::fread(header, kHeaderBytes, 1, file) != 1) {
      break;
    }
    left -= kHeaderBytes;
    const uint32_t len = header[0];
    if (len > left) {
      break;  // Torn payload, or a corrupt length: nothing to allocate.
    }
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), len, 1, file) != 1) {
      break;
    }
    left -= len;
    if (Crc32::Of(payload) != header[1]) {
      break;  // Corrupt record.
    }
    records.push_back(std::move(payload));
  }
  std::fclose(file);
  return records;
}

}  // namespace dflow
