#ifndef DFLOW_UTIL_FRAMED_LOG_H_
#define DFLOW_UTIL_FRAMED_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace dflow {

/// Append-only log of length+CRC framed records: the one on-disk framing
/// behind both the db write-ahead log and the recover checkpoint journal.
/// Each frame is a fixed 8-byte header (u32 payload length, u32 CRC-32 of
/// the payload, both in native byte order) followed by the payload.
///
/// Durability is explicit. Append() copies the frame into an in-memory
/// pending buffer (its capacity is reused across syncs); Sync() writes the
/// whole buffer with one fwrite and fflushes it, after which every
/// appended record survives a SIGKILL (the page cache keeps it). A kill
/// mid-Sync leaves a torn final frame, which ReadAll() drops.
///
/// Records are counted from a seed given at Open: appended() is the number
/// of the last appended record and synced() the number of the last one
/// flushed. The WAL uses them as its last/durable LSN; the journal as its
/// appended/synced record counts.
class FramedLog {
 public:
  /// Flushes the pending buffer (best effort) and closes the file.
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Opens `path` for appending (creates it if missing). Record numbering
  /// continues from `records` (the count already in the file, if the
  /// caller replayed it).
  static Result<std::unique_ptr<FramedLog>> Open(const std::string& path,
                                                 uint64_t records = 0);

  /// Frames `payload` into the pending buffer.
  Status Append(std::string_view payload);

  /// Writes the pending buffer and fflushes it. A no-op when nothing is
  /// pending.
  Status Sync();

  /// Crash emulation: drops the pending buffer and closes the file WITHOUT
  /// flushing, which is what SIGKILL does to this process's view of the
  /// log. Append and Sync fail afterwards.
  void Abandon();

  uint64_t appended() const { return appended_; }
  uint64_t synced() const { return synced_; }
  /// Frame bytes appended since Open, pending ones included.
  int64_t bytes_appended() const { return bytes_appended_; }
  /// Frame bytes still in the pending buffer.
  size_t pending_bytes() const { return pending_.size(); }

  /// Reads every intact record of the log at `path`. The scan stops
  /// silently at the first torn or corrupt frame (standard WAL recovery
  /// semantics), so corruption before the tail yields a shorter prefix. A
  /// frame whose length exceeds the bytes left in the file is rejected
  /// before anything is allocated for it. NotFound if the file is missing.
  static Result<std::vector<std::string>> ReadAll(const std::string& path);

 private:
  FramedLog(std::FILE* file, uint64_t records)
      : file_(file), appended_(records), synced_(records) {}

  std::FILE* file_;
  std::string pending_;  // Frames awaiting Sync().
  uint64_t appended_;
  uint64_t synced_;
  int64_t bytes_appended_ = 0;
};

}  // namespace dflow

#endif  // DFLOW_UTIL_FRAMED_LOG_H_
