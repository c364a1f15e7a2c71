// Durability of the db write-ahead log through the Database facade. The
// framing itself (round trip, torn and corrupt tails, mutation sweep) is
// covered once, for the WAL and the checkpoint journal alike, in
// util_framed_log_test.

#include "db/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/md5.h"

namespace dflow::db {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dflow_wal_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string FileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  std::filesystem::path path_;
};

TEST_F(WalTest, DatabaseSurvivesReopen) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT, s TEXT)").ok());
    ASSERT_TRUE((*db)->Execute("CREATE INDEX tx ON t (x)").ok());
    ASSERT_TRUE(
        (*db)->Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
    ASSERT_TRUE((*db)->Execute("UPDATE t SET s = 'bb' WHERE x = 2").ok());
    ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE x = 1").ok());
  }
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT x, s FROM t");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 2);
  EXPECT_EQ(result->rows[0][1].AsString(), "bb");
  // Index survived and still works after recovery.
  auto indexed = (*db)->Execute("SELECT * FROM t WHERE x = 2");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->rows.size(), 1u);
}

TEST_F(WalTest, UncommittedTransactionRollsBackOnRecovery) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
    // Database object destroyed without COMMIT: the begin/ops records may
    // be flushed, but no commit marker exists.
    ASSERT_TRUE((*db)->Commit().ok());  // First commit the txn...
  }
  // ...then simulate a *torn* commit by truncating the commit record.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 5);
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  // The second transaction's insert vanished with its commit marker.
  EXPECT_EQ(result->rows[0][0].AsInt(), 1);
}

TEST_F(WalTest, MutationsAfterRecoveryAppend) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
  }
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
  }
  auto db = Database::Open(path_.string());
  EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM t")->rows[0][0].AsInt(), 2);
}

TEST_F(WalTest, InsertManyIsAtomic) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->CreateTable(
        "t", Schema({{"x", Type::kInt64, false}})).ok());
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(i)});
    }
    ASSERT_TRUE((*db)->InsertMany("t", std::move(rows)).ok());
  }
  auto db = Database::Open(path_.string());
  EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM t")->rows[0][0].AsInt(),
            100);
}

// DDL is autocommitted: once the statement returns, its records are on
// disk, not only appended, so a kill right after it keeps the table.
TEST_F(WalTest, DdlIsDurableWhenAcknowledged) {
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  for (const char* ddl :
       {"CREATE TABLE t (x INT, s TEXT)", "CREATE INDEX tx ON t (x)",
        "CREATE TABLE u (y INT)", "DROP TABLE u"}) {
    ASSERT_TRUE((*db)->Execute(ddl).ok()) << ddl;
    EXPECT_GT((*db)->wal_bytes(), 0) << ddl;
    EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(path_)),
              (*db)->wal_bytes())
        << ddl;
  }
  ASSERT_TRUE((*db)->CreateTable("v", Schema({{"z", Type::kInt64, false}}))
                  .ok());
  ASSERT_TRUE((*db)->CreateIndex("vz", "v", "z").ok());
  EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(path_)),
            (*db)->wal_bytes());
}

// Pins the WAL's on-disk bytes for a fixed sequence of DDL, autocommitted
// and explicit transactions, and a Checkpoint rewrite.
TEST_F(WalTest, OnDiskBytesArePinned) {
  std::string before_checkpoint;
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    for (const char* sql :
         {"CREATE TABLE t (x INT, s TEXT, f DOUBLE)",
          "CREATE INDEX tx ON t (x)",
          "INSERT INTO t VALUES (1, 'a', 0.5), (2, 'bb', 1.25), (3, NULL, "
          "-2.0)",
          "UPDATE t SET s = 'updated' WHERE x = 2",
          "DELETE FROM t WHERE x = 1", "CREATE TABLE gone (y INT)",
          "DROP TABLE gone", "BEGIN", "INSERT INTO t VALUES (4, 'd', 4.0)",
          "INSERT INTO t VALUES (5, 'e', 5.0)", "COMMIT", "BEGIN",
          "INSERT INTO t VALUES (6, 'rolled back', 6.0)", "ROLLBACK"}) {
      ASSERT_TRUE((*db)->Execute(sql).ok()) << sql;
    }
    std::vector<Row> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back({Value::Int(100 + i), Value::String(std::string(i, 'r')),
                      Value::Double(i * 0.25)});
    }
    ASSERT_TRUE((*db)->InsertMany("t", std::move(rows)).ok());
    before_checkpoint = FileBytes();
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE x > 130").ok());
  }
  EXPECT_EQ(before_checkpoint.size(), 2231u);
  EXPECT_EQ(Md5::HexOf(before_checkpoint), "08060d982c8282b3f0b5bc3ac0060c78");
  const std::string after = FileBytes();
  EXPECT_EQ(after.size(), 2121u);
  EXPECT_EQ(Md5::HexOf(after), "cb680726f8c681b9a5a54fd7d2b9b625");
}

}  // namespace
}  // namespace dflow::db
