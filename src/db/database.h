#ifndef DFLOW_DB_DATABASE_H_
#define DFLOW_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/buffer_pool.h"
#include "db/catalog.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"

namespace dflow::db {

struct DatabaseOptions {
  /// Buffer-pool residency bound shared by every table in the database;
  /// 0 = unbounded (all pages stay in memory). Bounded pools evict cold
  /// pages to the page store (in-memory for volatile databases, a
  /// `<wal path>.pages` spill file for durable ones).
  size_t pool_frames = 0;
};

/// The embedded relational engine facade: the role SQLite plays in CLEO's
/// personal EventStore and MySQL / MS SQL Server play in the group and
/// collaboration stores and in the Arecibo / WebLab metadata systems.
///
/// Modes:
///  - Database()            : in-memory, volatile (the "personal" mode).
///  - Database::Open(path)  : durable; every committed mutation is written
///    to a write-ahead log first, and Open replays the log on startup.
///
/// Transactions: BEGIN/COMMIT/ROLLBACK (SQL or the methods below). One
/// transaction at a time (the engine is single-threaded by design; the
/// simulation layer models concurrency). Inside a transaction, mutations
/// are buffered and applied atomically at COMMIT; reads see the
/// pre-transaction state until then.
class Database {
 public:
  /// In-memory database with no durability.
  Database();
  explicit Database(DatabaseOptions options);

  /// Durable database backed by a WAL at `path`; replays existing log.
  /// The buffer pool spills to `path + ".pages"` (session-scoped: created
  /// fresh on every Open — the WAL is the database of record).
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  // --- Programmatic API (used by the case-study modules; avoids parse
  // overhead on hot paths) ---
  Status CreateTable(std::string name, Schema schema);
  Status CreateIndex(std::string index_name, const std::string& table,
                     const std::string& column);
  Status Insert(const std::string& table, Row row);
  /// Bulk insert of many rows in one transaction.
  Status InsertMany(const std::string& table, std::vector<Row> rows);

  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return in_txn_; }

  /// Compacts the database: vacuums tombstoned heap space, rebuilds
  /// indexes, and (for durable databases) rewrites the WAL as one snapshot
  /// transaction, bounding recovery time for long-lived metadata stores.
  /// FailedPrecondition inside a transaction.
  Status Checkpoint();

  const Catalog& catalog() const { return catalog_; }
  /// Total bytes of table heap pages (storage accounting).
  int64_t TotalBytes() const { return catalog_.TotalBytes(); }
  int64_t wal_bytes() const {
    return wal_ != nullptr ? wal_->bytes_written() : 0;
  }

  /// The shared buffer pool behind every table (hit/miss/eviction stats,
  /// eviction log, writeback probe).
  BufferPool* pool() const { return pool_.get(); }

  /// Moves the pool's db.pool.* counters into `metrics`; must precede the
  /// first pool event (see BufferPool::SetMetricsRegistry).
  void SetMetricsRegistry(obs::MetricsRegistry* metrics) {
    pool_->SetMetricsRegistry(metrics);
  }
  void SetTracer(obs::Tracer* tracer) { pool_->SetTracer(tracer); }

 private:
  Database(DatabaseOptions options, std::unique_ptr<PageStore> store);

  struct PendingOp {
    std::function<Status()> apply;
  };

  Result<QueryResult> Dispatch(Statement stmt);

  // Immediate-apply internals; log = whether to emit WAL records.
  Status ApplyCreateTable(const CreateTableStmt& stmt, bool log);
  Status ApplyCreateIndex(const CreateIndexStmt& stmt, bool log);
  Status ApplyDropTable(const DropTableStmt& stmt, bool log);
  Result<int64_t> ApplyInsert(const InsertStmt& stmt, bool log);
  Result<int64_t> ApplyUpdate(const UpdateStmt& stmt, bool log);
  Result<int64_t> ApplyDelete(const DeleteStmt& stmt, bool log);
  Status ApplyInsertRow(TableInfo* table, Row row, bool log);

  // Index maintenance.
  static void IndexInsert(TableInfo* table, const Row& row, RowId rid);
  static void IndexRemove(TableInfo* table, const Row& row, RowId rid);

  // WAL plumbing.
  Status LogRecord(std::string payload);
  Status ReplayRecord(std::string_view payload);
  Status Recover(const std::string& path);

  /// Runs `op` now (autocommit, wrapped in an implicit transaction) or
  /// buffers it if a transaction is open. `op` must do its own logging.
  Result<int64_t> RunOrBuffer(std::function<Result<int64_t>()> op);

  std::unique_ptr<BufferPool> pool_;  // Before catalog_: tables point at it.
  Catalog catalog_;
  std::unique_ptr<WalWriter> wal_;
  std::string wal_path_;
  bool in_txn_ = false;
  bool replaying_ = false;
  uint64_t recovered_lsn_ = 0;
  std::vector<std::function<Result<int64_t>()>> pending_;
};

}  // namespace dflow::db

#endif  // DFLOW_DB_DATABASE_H_
