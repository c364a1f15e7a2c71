#include "db/database.h"

#include <cstdio>

#include "util/byte_buffer.h"
#include "util/logging.h"

namespace dflow::db {

namespace {

/// Physical operations recorded in the write-ahead log. Mutations between
/// kBegin and kCommit are atomic: recovery applies only complete
/// transactions, so a crash mid-transaction (or a torn tail record) rolls
/// back cleanly. This is the mechanism behind the EventStore merge bench:
/// merging a personal store is one short transaction instead of a
/// long-lived open one.
enum class WalOp : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kCreateTable = 3,
  kCreateIndex = 4,
  kDropTable = 5,
  kInsert = 6,
  kDelete = 7,
  kUpdate = 8,
};

// One-byte payloads of the records that frame a transaction.
constexpr char kBeginRecord = static_cast<char>(WalOp::kBegin);
constexpr char kCommitRecord = static_cast<char>(WalOp::kCommit);

/// The checkpoint snapshot syncs its temporary log whenever this many
/// bytes are pending, so memory stays bounded however large the database.
constexpr size_t kCheckpointSyncBytes = 1 << 16;

// Varint-coded: most tables are small, so page/slot are usually one byte
// each instead of a fixed six.
void EncodeRowId(ByteWriter& w, RowId rid) {
  w.PutVarint(rid.page);
  w.PutVarint(rid.slot);
}

Result<RowId> DecodeRowId(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint64_t page, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint64_t slot, r.GetVarint());
  if (page > 0xffffffffu || slot > 0xffffu) {
    return Status::Corruption("row id out of range");
  }
  return RowId{static_cast<uint32_t>(page), static_cast<uint16_t>(slot)};
}

}  // namespace

Database::Database(DatabaseOptions options, std::unique_ptr<PageStore> store)
    : pool_(std::make_unique<BufferPool>(BufferPoolOptions{options.pool_frames},
                                         std::move(store))),
      catalog_(pool_.get()) {
  // LSN plumbing reads through wal_ at call time: wal_ is null for volatile
  // databases (pages stay LSN 0, no barrier) and is swapped by Checkpoint.
  pool_->SetWal(
      [this] { return wal_ != nullptr ? wal_->appended() : 0; },
      [this] { return wal_ != nullptr ? wal_->synced() : 0; },
      [this](uint64_t lsn) {
        return wal_ != nullptr && lsn > wal_->synced() ? wal_->Sync()
                                                       : Status::OK();
      });
}

Database::Database() : Database(DatabaseOptions{}) {}

Database::Database(DatabaseOptions options)
    : Database(options, std::make_unique<MemPageStore>()) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 DatabaseOptions options) {
  DFLOW_ASSIGN_OR_RETURN(auto store, FilePageStore::Create(path + ".pages"));
  auto db =
      std::unique_ptr<Database>(new Database(options, std::move(store)));
  DFLOW_RETURN_IF_ERROR(db->Recover(path));
  // Seed LSNs past the replayed records so page stamps stay monotone with
  // the log (replayed pages carry LSN 0: their records are already
  // durable, no barrier needed).
  DFLOW_ASSIGN_OR_RETURN(db->wal_, FramedLog::Open(path, db->recovered_lsn_));
  db->wal_path_ = path;
  return db;
}

Status Database::Recover(const std::string& path) {
  auto records = FramedLog::ReadAll(path);
  if (!records.ok()) {
    if (records.status().IsNotFound()) {
      return Status::OK();  // Fresh database.
    }
    return records.status();
  }
  replaying_ = true;
  recovered_lsn_ = records->size();
  std::vector<std::string> txn_buffer;
  bool in_txn = false;
  for (const std::string& payload : *records) {
    if (payload.empty()) {
      continue;
    }
    WalOp op = static_cast<WalOp>(static_cast<uint8_t>(payload[0]));
    if (op == WalOp::kBegin) {
      txn_buffer.clear();
      in_txn = true;
    } else if (op == WalOp::kCommit) {
      for (const std::string& buffered : txn_buffer) {
        Status s = ReplayRecord(buffered);
        if (!s.ok()) {
          replaying_ = false;
          return s;
        }
      }
      txn_buffer.clear();
      in_txn = false;
    } else if (in_txn) {
      txn_buffer.push_back(payload);
    }
    // Records outside begin/commit should not occur (every commit is
    // framed); ignore them defensively, matching torn-tail semantics.
  }
  replaying_ = false;
  return Status::OK();
}

Status Database::ReplayRecord(std::string_view payload) {
  ByteReader r(payload);
  DFLOW_ASSIGN_OR_RETURN(uint8_t op_byte, r.GetU8());
  switch (static_cast<WalOp>(op_byte)) {
    case WalOp::kCreateTable: {
      DFLOW_ASSIGN_OR_RETURN(std::string name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(r));
      CreateTableStmt stmt{std::move(name), schema.columns()};
      return ApplyCreateTable(stmt, /*log=*/false);
    }
    case WalOp::kCreateIndex: {
      CreateIndexStmt stmt;
      DFLOW_ASSIGN_OR_RETURN(stmt.index_name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(stmt.table, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(stmt.column, r.GetString());
      return ApplyCreateIndex(stmt, /*log=*/false);
    }
    case WalOp::kDropTable: {
      DropTableStmt stmt;
      DFLOW_ASSIGN_OR_RETURN(stmt.table, r.GetString());
      return ApplyDropTable(stmt, /*log=*/false);
    }
    case WalOp::kInsert: {
      DFLOW_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(table_name));
      return ApplyInsertRow(table, std::move(row), /*log=*/false);
    }
    case WalOp::kDelete: {
      DFLOW_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(RowId rid, DecodeRowId(r));
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(table_name));
      DFLOW_ASSIGN_OR_RETURN(Row row, table->heap->Get(rid));
      IndexRemove(table, row, rid);
      return table->heap->Delete(rid);
    }
    case WalOp::kUpdate: {
      DFLOW_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(RowId rid, DecodeRowId(r));
      DFLOW_ASSIGN_OR_RETURN(Row new_row, DecodeRow(r));
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(table_name));
      DFLOW_ASSIGN_OR_RETURN(Row old_row, table->heap->Get(rid));
      IndexRemove(table, old_row, rid);
      DFLOW_ASSIGN_OR_RETURN(RowId new_rid,
                             table->heap->Update(rid, new_row));
      IndexInsert(table, new_row, new_rid);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown WAL op");
  }
}

Status Database::LogRecord(std::string_view payload) {
  if (wal_ == nullptr || replaying_) {
    return Status::OK();
  }
  return wal_->Append(payload);
}

Result<int64_t> Database::LogTransaction(
    const std::function<Result<int64_t>()>& body) {
  DFLOW_RETURN_IF_ERROR(LogRecord(std::string_view(&kBeginRecord, 1)));
  DFLOW_ASSIGN_OR_RETURN(int64_t affected, body());
  DFLOW_RETURN_IF_ERROR(LogRecord(std::string_view(&kCommitRecord, 1)));
  if (wal_ != nullptr) {
    DFLOW_RETURN_IF_ERROR(wal_->Sync());
  }
  return affected;
}

Status Database::LogDdl(std::string_view payload) {
  return LogTransaction([&]() -> Result<int64_t> {
           DFLOW_RETURN_IF_ERROR(LogRecord(payload));
           return int64_t{0};
         })
      .status();
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  DFLOW_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return Dispatch(std::move(stmt));
}

Result<QueryResult> Database::Dispatch(Statement stmt) {
  QueryResult result;
  if (auto* select = std::get_if<SelectStmt>(&stmt)) {
    return ExecuteSelect(catalog_, *select);
  }
  if (std::get_if<BeginStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Begin());
    return result;
  }
  if (std::get_if<CommitStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Commit());
    return result;
  }
  if (std::get_if<RollbackStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Rollback());
    return result;
  }
  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    // DDL is not transactional; applied immediately.
    DFLOW_RETURN_IF_ERROR(ApplyCreateTable(*create, /*log=*/true));
    return result;
  }
  if (auto* index = std::get_if<CreateIndexStmt>(&stmt)) {
    DFLOW_RETURN_IF_ERROR(ApplyCreateIndex(*index, /*log=*/true));
    return result;
  }
  if (auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    DFLOW_RETURN_IF_ERROR(ApplyDropTable(*drop, /*log=*/true));
    return result;
  }
  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    InsertStmt owned = std::move(*insert);
    DFLOW_ASSIGN_OR_RETURN(
        result.affected,
        RunOrBuffer([this, owned] { return ApplyInsert(owned, true); }));
    return result;
  }
  if (auto* update = std::get_if<UpdateStmt>(&stmt)) {
    UpdateStmt owned = std::move(*update);
    DFLOW_ASSIGN_OR_RETURN(
        result.affected,
        RunOrBuffer([this, owned] { return ApplyUpdate(owned, true); }));
    return result;
  }
  if (auto* del = std::get_if<DeleteStmt>(&stmt)) {
    DeleteStmt owned = std::move(*del);
    DFLOW_ASSIGN_OR_RETURN(
        result.affected,
        RunOrBuffer([this, owned] { return ApplyDelete(owned, true); }));
    return result;
  }
  return Status::Internal("unhandled statement kind");
}

Result<int64_t> Database::RunOrBuffer(std::function<Result<int64_t>()> op) {
  if (in_txn_) {
    pending_.push_back(std::move(op));
    return int64_t{0};  // Affected count is unknown until COMMIT.
  }
  return LogTransaction(op);  // Autocommit: one op, one transaction.
}

Status Database::Begin() {
  if (in_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  in_txn_ = true;
  pending_.clear();
  return Status::OK();
}

Status Database::Commit() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  in_txn_ = false;
  return LogTransaction([this]() -> Result<int64_t> {
           for (auto& op : pending_) {
             DFLOW_RETURN_IF_ERROR(op().status());
           }
           pending_.clear();
           return int64_t{0};
         })
      .status();
}

Status Database::Rollback() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  in_txn_ = false;
  pending_.clear();
  return Status::OK();
}

Status Database::Checkpoint() {
  if (in_txn_) {
    return Status::FailedPrecondition("cannot checkpoint in a transaction");
  }
  // Vacuum: rebuild every table (compacting tombstones) and its indexes in
  // insertion order. The rebuilt in-memory rowids are by construction the
  // rowids that replaying the snapshot produces, so later physical WAL
  // records stay valid after recovery.
  Catalog compacted(pool_.get());
  for (const std::string& name : catalog_.TableNames()) {
    TableInfo* old_table = catalog_.Find(name);
    DFLOW_RETURN_IF_ERROR(
        compacted.AddTable(old_table->name, old_table->heap->schema()));
    TableInfo* new_table = compacted.Find(name);
    Status copy = Status::OK();
    DFLOW_RETURN_IF_ERROR(
        old_table->heap->ForEach([&](RowId, const Row& row) {
          auto rid = new_table->heap->Insert(row);
          if (!rid.ok()) {
            copy = rid.status();
            return false;
          }
          return true;
        }));
    DFLOW_RETURN_IF_ERROR(copy);
    for (const auto& old_index : old_table->indexes) {
      auto info = std::make_unique<IndexInfo>();
      info->name = old_index->name;
      info->column = old_index->column;
      info->column_index = old_index->column_index;
      info->tree = std::make_unique<BTreeIndex>();
      DFLOW_RETURN_IF_ERROR(
          new_table->heap->ForEach([&](RowId rid, const Row& row) {
            info->tree->Insert(row[info->column_index], rid);
            return true;
          }));
      new_table->indexes.push_back(std::move(info));
    }
  }

  if (wal_ != nullptr) {
    // Rewrite the log as a single snapshot transaction, atomically.
    std::string tmp_path = wal_path_ + ".ckpt";
    std::remove(tmp_path.c_str());
    {
      DFLOW_ASSIGN_OR_RETURN(auto writer, FramedLog::Open(tmp_path));
      // The temporary log is renamed only after the final Sync, so
      // syncing it partway is safe.
      auto append = [&writer](std::string_view payload) -> Status {
        DFLOW_RETURN_IF_ERROR(writer->Append(payload));
        return writer->pending_bytes() >= kCheckpointSyncBytes
                   ? writer->Sync()
                   : Status::OK();
      };
      DFLOW_RETURN_IF_ERROR(append(std::string_view(&kBeginRecord, 1)));
      for (const std::string& name : compacted.TableNames()) {
        TableInfo* table = compacted.Find(name);
        ByteWriter create;
        create.PutU8(static_cast<uint8_t>(WalOp::kCreateTable));
        create.PutString(table->name);
        table->heap->schema().EncodeTo(create);
        DFLOW_RETURN_IF_ERROR(append(create.data()));
        for (const auto& index : table->indexes) {
          ByteWriter create_index;
          create_index.PutU8(static_cast<uint8_t>(WalOp::kCreateIndex));
          create_index.PutString(index->name);
          create_index.PutString(table->name);
          create_index.PutString(index->column);
          DFLOW_RETURN_IF_ERROR(append(create_index.data()));
        }
        Status appended = Status::OK();
        DFLOW_RETURN_IF_ERROR(
            table->heap->ForEach([&](RowId, const Row& row) {
              ByteWriter insert;
              insert.PutU8(static_cast<uint8_t>(WalOp::kInsert));
              insert.PutString(table->name);
              EncodeRow(row, insert);
              appended = append(insert.data());
              return appended.ok();
            }));
        DFLOW_RETURN_IF_ERROR(appended);
      }
      DFLOW_RETURN_IF_ERROR(append(std::string_view(&kCommitRecord, 1)));
      DFLOW_RETURN_IF_ERROR(writer->Sync());
    }
    uint64_t old_lsn = wal_->appended();
    wal_.reset();  // Close the old log before replacing it.
    if (std::rename(tmp_path.c_str(), wal_path_.c_str()) != 0) {
      // Reopen the old log so the database stays durable.
      DFLOW_ASSIGN_OR_RETURN(wal_, FramedLog::Open(wal_path_, old_lsn));
      return Status::IOError("checkpoint rename failed");
    }
    // Keep LSNs monotone across the swap: resident pages stamped under the
    // old log must never look "ahead" of the new one (their content is
    // fully covered by the just-synced snapshot).
    DFLOW_ASSIGN_OR_RETURN(wal_, FramedLog::Open(wal_path_, old_lsn));
  }

  catalog_ = std::move(compacted);
  return Status::OK();
}

Status Database::CreateTable(std::string name, Schema schema) {
  CreateTableStmt stmt{std::move(name), schema.columns()};
  return ApplyCreateTable(stmt, /*log=*/true);
}

Status Database::CreateIndex(std::string index_name, const std::string& table,
                             const std::string& column) {
  CreateIndexStmt stmt{std::move(index_name), table, column};
  return ApplyCreateIndex(stmt, /*log=*/true);
}

Status Database::Insert(const std::string& table, Row row) {
  auto op = [this, table, row]() -> Result<int64_t> {
    DFLOW_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(table));
    DFLOW_RETURN_IF_ERROR(ApplyInsertRow(info, row, /*log=*/true));
    return int64_t{1};
  };
  DFLOW_ASSIGN_OR_RETURN(int64_t ignored, RunOrBuffer(op));
  (void)ignored;
  return Status::OK();
}

Status Database::InsertMany(const std::string& table, std::vector<Row> rows) {
  bool own_txn = !in_txn_;
  if (own_txn) {
    DFLOW_RETURN_IF_ERROR(Begin());
  }
  for (Row& row : rows) {
    Status s = Insert(table, std::move(row));
    if (!s.ok()) {
      if (own_txn) {
        DFLOW_RETURN_IF_ERROR(Rollback());
      }
      return s;
    }
  }
  if (own_txn) {
    return Commit();
  }
  return Status::OK();
}

Status Database::ApplyCreateTable(const CreateTableStmt& stmt, bool log) {
  DFLOW_RETURN_IF_ERROR(catalog_.AddTable(stmt.table, Schema(stmt.columns)));
  if (log) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(WalOp::kCreateTable));
    w.PutString(stmt.table);
    Schema(stmt.columns).EncodeTo(w);
    return LogDdl(w.data());  // DDL is autocommitted.
  }
  return Status::OK();
}

Status Database::ApplyCreateIndex(const CreateIndexStmt& stmt, bool log) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  for (const auto& index : table->indexes) {
    if (index->name == stmt.index_name) {
      return Status::AlreadyExists("index '" + stmt.index_name +
                                   "' already exists");
    }
  }
  DFLOW_ASSIGN_OR_RETURN(size_t column_index,
                         table->heap->schema().IndexOf(stmt.column));
  auto info = std::make_unique<IndexInfo>();
  info->name = stmt.index_name;
  info->column = stmt.column;
  info->column_index = column_index;
  info->tree = std::make_unique<BTreeIndex>();
  // Backfill from existing rows.
  DFLOW_RETURN_IF_ERROR(table->heap->ForEach([&](RowId rid, const Row& row) {
    info->tree->Insert(row[column_index], rid);
    return true;
  }));
  table->indexes.push_back(std::move(info));
  if (log) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(WalOp::kCreateIndex));
    w.PutString(stmt.index_name);
    w.PutString(stmt.table);
    w.PutString(stmt.column);
    return LogDdl(w.data());
  }
  return Status::OK();
}

Status Database::ApplyDropTable(const DropTableStmt& stmt, bool log) {
  Status s = catalog_.DropTable(stmt.table);
  if (!s.ok()) {
    if (stmt.if_exists && s.IsNotFound()) {
      return Status::OK();
    }
    return s;
  }
  if (log) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(WalOp::kDropTable));
    w.PutString(stmt.table);
    return LogDdl(w.data());
  }
  return Status::OK();
}

void Database::IndexInsert(TableInfo* table, const Row& row, RowId rid) {
  for (const auto& index : table->indexes) {
    index->tree->Insert(row[index->column_index], rid);
  }
}

void Database::IndexRemove(TableInfo* table, const Row& row, RowId rid) {
  for (const auto& index : table->indexes) {
    index->tree->Remove(row[index->column_index], rid);
  }
}

Status Database::ApplyInsertRow(TableInfo* table, Row row, bool log) {
  DFLOW_ASSIGN_OR_RETURN(Row validated,
                         table->heap->schema().ValidateRow(std::move(row)));
  if (log) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(WalOp::kInsert));
    w.PutString(table->name);
    EncodeRow(validated, w);
    DFLOW_RETURN_IF_ERROR(LogRecord(w.Take()));
  }
  DFLOW_ASSIGN_OR_RETURN(RowId rid, table->heap->Insert(validated));
  IndexInsert(table, validated, rid);
  return Status::OK();
}

Result<int64_t> Database::ApplyInsert(const InsertStmt& stmt, bool log) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  const Schema& schema = table->heap->schema();

  // Map of insert columns -> schema positions (empty = positional).
  std::vector<size_t> positions;
  if (!stmt.columns.empty()) {
    for (const std::string& col : stmt.columns) {
      DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
      positions.push_back(idx);
    }
  }

  int64_t affected = 0;
  static const Row kEmptyRow;
  for (const std::vector<ExprPtr>& exprs : stmt.rows) {
    Row row;
    if (positions.empty()) {
      if (exprs.size() != schema.NumColumns()) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      for (const ExprPtr& e : exprs) {
        DFLOW_ASSIGN_OR_RETURN(Value v, e->Eval(kEmptyRow));
        row.push_back(std::move(v));
      }
    } else {
      if (exprs.size() != positions.size()) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      row.assign(schema.NumColumns(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        DFLOW_ASSIGN_OR_RETURN(Value v, exprs[i]->Eval(kEmptyRow));
        row[positions[i]] = std::move(v);
      }
    }
    DFLOW_RETURN_IF_ERROR(ApplyInsertRow(table, std::move(row), log));
    ++affected;
  }
  return affected;
}

Result<int64_t> Database::ApplyUpdate(const UpdateStmt& stmt, bool log) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  const Schema& schema = table->heap->schema();
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    DFLOW_RETURN_IF_ERROR(expr->Bind(schema));
    assignments.emplace_back(idx, expr);
  }
  DFLOW_ASSIGN_OR_RETURN(auto matches, CollectMatches(*table, stmt.where));
  int64_t affected = 0;
  for (auto& [rid, row] : matches) {
    Row new_row = row;
    for (const auto& [idx, expr] : assignments) {
      DFLOW_ASSIGN_OR_RETURN(Value v, expr->Eval(row));
      new_row[idx] = std::move(v);
    }
    DFLOW_ASSIGN_OR_RETURN(Row validated,
                           schema.ValidateRow(std::move(new_row)));
    if (log) {
      ByteWriter w;
      w.PutU8(static_cast<uint8_t>(WalOp::kUpdate));
      w.PutString(table->name);
      EncodeRowId(w, rid);
      EncodeRow(validated, w);
      DFLOW_RETURN_IF_ERROR(LogRecord(w.Take()));
    }
    IndexRemove(table, row, rid);
    DFLOW_ASSIGN_OR_RETURN(RowId new_rid, table->heap->Update(rid, validated));
    IndexInsert(table, validated, new_rid);
    ++affected;
  }
  return affected;
}

Result<int64_t> Database::ApplyDelete(const DeleteStmt& stmt, bool log) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  DFLOW_ASSIGN_OR_RETURN(auto matches, CollectMatches(*table, stmt.where));
  int64_t affected = 0;
  for (auto& [rid, row] : matches) {
    if (log) {
      ByteWriter w;
      w.PutU8(static_cast<uint8_t>(WalOp::kDelete));
      w.PutString(table->name);
      EncodeRowId(w, rid);
      DFLOW_RETURN_IF_ERROR(LogRecord(w.Take()));
    }
    IndexRemove(table, row, rid);
    DFLOW_RETURN_IF_ERROR(table->heap->Delete(rid));
    ++affected;
  }
  return affected;
}

}  // namespace dflow::db
