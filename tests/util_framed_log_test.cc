// util::FramedLog, the one length+CRC framed log behind the db WAL and the
// recover checkpoint journal: round trip, record counting, Abandon, torn and
// corrupt tails, the reader's length bound, and a seeded mutation sweep.

#include "util/framed_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

// Largest single heap allocation made while `g_track_allocations` is set:
// lets a test show that ReadAll never sizes a buffer from an untrusted
// length field. The replacement operators pair malloc with free, which GCC
// cannot see through once they are inlined into callers.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

void* operator new(size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace dflow {
namespace {

class FramedLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dflow_framed_log_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void WriteRecords(const std::vector<std::string>& records) {
    auto log = FramedLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    for (const std::string& record : records) {
      ASSERT_TRUE((*log)->Append(record).ok());
    }
    ASSERT_TRUE((*log)->Sync().ok());
  }

  std::string FileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  void SetFileBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path path_;
};

TEST_F(FramedLogTest, AppendAndReadBack) {
  WriteRecords({"first", "second record", ""});
  auto records = FramedLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0], "first");
  EXPECT_EQ((*records)[1], "second record");
  EXPECT_EQ((*records)[2], "");
  // 8-byte header per record.
  EXPECT_EQ(std::filesystem::file_size(path_), 3 * 8 + 5 + 13u);
}

TEST_F(FramedLogTest, MissingFileIsNotFound) {
  EXPECT_TRUE(FramedLog::ReadAll(path_.string()).status().IsNotFound());
}

TEST_F(FramedLogTest, TornTailIsDropped) {
  WriteRecords({"intact", "will be torn"});
  // Truncate mid-way through the second record's payload.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 4);
  auto records = FramedLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "intact");
}

TEST_F(FramedLogTest, CorruptPayloadStopsScan) {
  WriteRecords({"good", "to be corrupted"});
  // Flip a byte in the second payload.
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-3, std::ios::end);
  file.put('X');
  file.close();
  auto records = FramedLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(FramedLogTest, CountsAndSyncBoundWhatReachesDisk) {
  {
    auto log = FramedLog::Open(path_.string(), /*records=*/10);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->appended(), 10u);
    EXPECT_EQ((*log)->synced(), 10u);
    ASSERT_TRUE((*log)->Append("abc").ok());
    ASSERT_TRUE((*log)->Append("de").ok());
    EXPECT_EQ((*log)->appended(), 12u);
    EXPECT_EQ((*log)->synced(), 10u);
    EXPECT_EQ((*log)->bytes_appended(), 21);
    EXPECT_EQ((*log)->pending_bytes(), 21u);
    EXPECT_EQ(std::filesystem::file_size(path_), 0u);  // Nothing synced.
    ASSERT_TRUE((*log)->Sync().ok());
    EXPECT_EQ((*log)->synced(), 12u);
    EXPECT_EQ((*log)->pending_bytes(), 0u);
    EXPECT_EQ(std::filesystem::file_size(path_), 21u);
    ASSERT_TRUE((*log)->Append("lost").ok());
    (*log)->Abandon();  // SIGKILL view: the pending record evaporates.
    EXPECT_EQ((*log)->Append("x").code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ((*log)->Sync().code(), StatusCode::kFailedPrecondition);
  }
  {
    auto log = FramedLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("kept").ok());
    // Destruction syncs what is pending.
  }
  auto records = FramedLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"abc", "de", "kept"}));
}

// A corrupt length near the tail must not make the reader allocate what
// the length claims: the frame cannot fit in the bytes left, so it is
// rejected before any buffer is sized from it.
TEST_F(FramedLogTest, OversizedLengthIsRejectedBeforeAllocating) {
  WriteRecords({"one", "two", "three"});
  std::string bytes = FileBytes();
  const size_t last_header = bytes.size() - (8 + 5);
  for (uint32_t len : {uint32_t{6}, uint32_t{60} << 20, 0xffffffffu}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + last_header, &len, sizeof(len));
    SetFileBytes(mutated);
    g_largest_allocation = 0;
    g_track_allocations = true;
    auto records = FramedLog::ReadAll(path_.string());
    g_track_allocations = false;
    ASSERT_TRUE(records.ok()) << len;
    EXPECT_EQ(*records, (std::vector<std::string>{"one", "two"})) << len;
    EXPECT_LT(g_largest_allocation.load(), size_t{1} << 16) << len;
  }
}

// Seeded mutation sweep over a log of mixed-size records: byte flips,
// truncations and length-field overwrites. Every outcome must be exactly
// the records before the damaged frame, never a crash or a garbled record.
TEST_F(FramedLogTest, MutatedLogsYieldTheUndamagedPrefix) {
  Rng rng(20261019);
  auto pick = [&rng](size_t n) {  // Uniform in [0, n).
    return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
  };
  std::vector<std::string> written;
  std::vector<size_t> frame_start;  // Offset of each record's header.
  size_t offset = 0;
  for (int i = 0; i < 48; ++i) {
    const size_t size = i % 8 == 0 ? 0 : 1 + pick(i % 5 == 0 ? 4096 : 64);
    std::string record(size, '\0');
    for (char& c : record) {
      c = static_cast<char>(rng.Next());
    }
    frame_start.push_back(offset);
    offset += 8 + record.size();
    written.push_back(std::move(record));
  }
  WriteRecords(written);
  const std::string bytes = FileBytes();
  ASSERT_EQ(bytes.size(), offset);

  // Index of the frame that contains byte `at`.
  auto frame_of = [&](size_t at) {
    size_t k = 0;
    while (k + 1 < frame_start.size() && frame_start[k + 1] <= at) {
      ++k;
    }
    return k;
  };
  auto expect_prefix = [&](const std::string& mutated, size_t want,
                           const std::string& what) {
    SetFileBytes(mutated);
    auto records = FramedLog::ReadAll(path_.string());
    ASSERT_TRUE(records.ok()) << what;
    ASSERT_EQ(records->size(), want) << what;
    for (size_t i = 0; i < want; ++i) {
      ASSERT_EQ((*records)[i], written[i]) << what << " record " << i;
    }
  };

  constexpr int kPerKind = 400;
  for (int trial = 0; trial < kPerKind; ++trial) {
    // Byte flip: the damaged frame and everything after it are dropped.
    const size_t at = pick(bytes.size());
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ rng.Uniform(1, 255));
    expect_prefix(flipped, frame_of(at), "flip at " + std::to_string(at));

    // Truncation: exactly the frames that end at or before the cut remain.
    const size_t cut = pick(bytes.size());
    size_t whole = 0;
    while (whole < written.size() &&
           frame_start[whole] + 8 + written[whole].size() <= cut) {
      ++whole;
    }
    expect_prefix(bytes.substr(0, cut), whole, "cut at " + std::to_string(cut));

    // Length overwrite: small, near, huge and random replacement lengths.
    const size_t k = pick(written.size());
    const uint32_t original = static_cast<uint32_t>(written[k].size());
    uint32_t len = original;
    while (len == original) {
      switch (trial % 4) {
        case 0:
          len = static_cast<uint32_t>(rng.Next());
          break;
        case 1:
          len = static_cast<uint32_t>(
              static_cast<int64_t>(original) + rng.Uniform(-8, 8));
          break;
        case 2:
          len = static_cast<uint32_t>(bytes.size() - frame_start[k] - 8 +
                                      rng.Uniform(0, 4));
          break;
        default:
          len = static_cast<uint32_t>(rng.Uniform(0, 4096));
          break;
      }
    }
    std::string relength = bytes;
    std::memcpy(relength.data() + frame_start[k], &len, sizeof(len));
    expect_prefix(relength, k,
                  "length " + std::to_string(len) + " at frame " +
                      std::to_string(k));
  }
}

}  // namespace
}  // namespace dflow
