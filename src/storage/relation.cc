#include "storage/relation.h"

#include <algorithm>
#include <utility>

namespace lsens {

Relation::Relation(std::string name, std::vector<std::string> column_names)
    : name_(std::move(name)), column_names_(std::move(column_names)) {
  LSENS_CHECK_MSG(!column_names_.empty(), "relation needs >= 1 column");
  cols_.resize(column_names_.size());
  dict_cols_.assign(column_names_.size(), 0);
}

Relation::Relation(const Relation& other, NoChangeLog)
    : lineage_(other.lineage_),
      name_(other.name_),
      column_names_(other.column_names_),
      cols_(other.cols_),
      dict_cols_(other.dict_cols_),
      num_rows_(other.num_rows_),
      version_(other.version_),
      log_base_version_(other.version_) {}

void Relation::AppendRowSlow(std::span<const Value> row) {
  if (log_enabled_) LogChange(/*insert=*/true, row);
  const bool opens = num_rows_ % kChunkRows == 0;
  for (size_t c = 0; c < row.size(); ++c) {
    ChunkTable& table = cols_[c].Mutable();
    if (opens) OpenChunk(&table);
    table.back().Mutable().push_back(row[c]);
  }
  ++num_rows_;
  ++version_;
}

void Relation::OpenChunk(ChunkTable* table) {
  ColumnChunk chunk;
  chunk.reserve(kChunkRows);
  table->emplace_back(std::move(chunk));
}

template <typename Fill>
void Relation::AppendToColumn(CowPtr<ChunkTable>& column, size_t rows,
                              size_t count, const Fill& fill) {
  ChunkTable& table = column.Mutable();
  for (size_t i = 0; i < count;) {
    const size_t offset = (rows + i) % kChunkRows;
    if (offset == 0) OpenChunk(&table);
    const size_t take = std::min(count - i, kChunkRows - offset);
    fill(table.back().Mutable(), i, take);
    i += take;
  }
}

std::vector<Value> Relation::Row(size_t i) const {
  std::vector<Value> row;
  RowInto(i, &row);
  return row;
}

void Relation::RowInto(size_t i, std::vector<Value>* out) const {
  out->resize(arity());
  const size_t k = i / kChunkRows;
  const size_t offset = i % kChunkRows;
  for (size_t c = 0; c < cols_.size(); ++c) {
    (*out)[c] = (*(*cols_[c])[k])[offset];
  }
}

bool Relation::RowEquals(size_t i, std::span<const Value> row) const {
  LSENS_CHECK(row.size() == arity());
  const size_t k = i / kChunkRows;
  const size_t offset = i % kChunkRows;
  for (size_t c = 0; c < cols_.size(); ++c) {
    if ((*(*cols_[c])[k])[offset] != row[c]) return false;
  }
  return true;
}

void Relation::Set(size_t row, size_t col, Value v) {
  LSENS_CHECK(row < NumRows() && col < arity());
  if (log_enabled_) {
    std::vector<Value> old = Row(row);
    std::vector<Value> updated = old;
    updated[col] = v;
    LogChange(/*insert=*/false, old);
    LogChange(/*insert=*/true, updated);
    // Two log entries, but one observable mutation: keep version() in sync
    // with the entry count so CollectChangesSince offsets line up.
    ++version_;
  }
  cols_[col].Mutable()[row / kChunkRows].Mutable()[row % kChunkRows] = v;
  ++version_;
}

void Relation::Clear() {
  // Fresh tables: chunks a copy still shares are left to it, the rest are
  // freed, and nothing is copied.
  for (auto& col : cols_) col = CowPtr<ChunkTable>();
  num_rows_ = 0;
  ++version_;
  // The delta "everything erased" is exactly what the log exists to avoid
  // materializing; disable instead, so readers fall back to recompute.
  log_enabled_ = false;
  log_.clear();
}

void Relation::SwapRemoveRow(size_t i) {
  LSENS_CHECK(i < num_rows_);
  if (log_enabled_) LogChange(/*insert=*/false, Row(i));
  const size_t last = num_rows_ - 1;
  // A tail chunk holding only the last row is dropped, not copied.
  const bool drops_tail = last % kChunkRows == 0;
  for (auto& column : cols_) {
    ChunkTable& table = column.Mutable();
    if (i != last) {
      const Value moved = (*table.back())[last % kChunkRows];
      table[i / kChunkRows].Mutable()[i % kChunkRows] = moved;
    }
    if (drops_tail) {
      table.pop_back();
    } else {
      table.back().Mutable().pop_back();
    }
  }
  --num_rows_;
  ++version_;
}

void Relation::AppendRows(std::span<const Value> rows_flat) {
  const size_t k = arity();
  LSENS_CHECK(rows_flat.size() % k == 0);
  const size_t rows = rows_flat.size() / k;
  if (rows == 0) return;
  if (log_enabled_) {
    for (size_t i = 0; i < rows; ++i) {
      LogChange(/*insert=*/true, rows_flat.subspan(i * k, k));
    }
  }
  for (size_t c = 0; c < k; ++c) {
    AppendToColumn(cols_[c], num_rows_, rows,
                   [&](ColumnChunk& chunk, size_t i, size_t take) {
                     for (size_t r = i; r < i + take; ++r) {
                       chunk.push_back(rows_flat[r * k + c]);
                     }
                   });
  }
  num_rows_ += rows;
  version_ += rows;
}

void Relation::AppendColumns(std::span<const std::vector<Value>> columns) {
  const size_t k = arity();
  LSENS_CHECK(columns.size() == k);
  const size_t rows = columns[0].size();
  for (const auto& col : columns) LSENS_CHECK(col.size() == rows);
  if (rows == 0) return;
  if (log_enabled_) {
    std::vector<Value> row(k);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t c = 0; c < k; ++c) row[c] = columns[c][i];
      LogChange(/*insert=*/true, row);
    }
  }
  for (size_t c = 0; c < k; ++c) {
    const Value* from = columns[c].data();
    AppendToColumn(cols_[c], num_rows_, rows,
                   [&](ColumnChunk& chunk, size_t i, size_t take) {
                     chunk.insert(chunk.end(), from + i, from + i + take);
                   });
  }
  num_rows_ += rows;
  version_ += rows;
}

void Relation::AppendRowsFrom(const Relation& src,
                              std::span<const uint32_t> rows) {
  LSENS_CHECK(src.arity() == arity());
  if (rows.empty()) return;
  if (log_enabled_) {
    std::vector<Value> row;
    for (uint32_t r : rows) {
      src.RowInto(r, &row);
      LogChange(/*insert=*/true, row);
    }
  }
  for (size_t c = 0; c < arity(); ++c) {
    const ChunkedColumn from = src.Chunks(c);
    AppendToColumn(cols_[c], num_rows_, rows.size(),
                   [&](ColumnChunk& chunk, size_t i, size_t take) {
                     for (size_t r = i; r < i + take; ++r) {
                       chunk.push_back(from[rows[r]]);
                     }
                   });
  }
  num_rows_ += rows.size();
  version_ += rows.size();
}

Status Relation::ValidateDelta(std::span<const std::vector<Value>> inserts,
                               std::span<const size_t> delete_rows,
                               size_t num_rows) const {
  for (const auto& row : inserts) {
    if (row.size() != arity()) {
      return Status::InvalidArgument(
          "insert row arity " + std::to_string(row.size()) + " != " +
          std::to_string(arity()) + " in relation '" + name_ + "'");
    }
  }
  std::vector<size_t> sorted(delete_rows.begin(), delete_rows.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= num_rows) {
      return Status::InvalidArgument(
          "delete index " + std::to_string(sorted[i]) +
          " out of range in relation '" + name_ + "' (" +
          std::to_string(num_rows) + " rows)");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("duplicate delete index " +
                                     std::to_string(sorted[i]));
    }
  }
  return Status::OK();
}

Status Relation::ApplyDelta(std::span<const std::vector<Value>> inserts,
                            std::vector<size_t> delete_rows) {
  LSENS_RETURN_IF_ERROR(ValidateDelta(inserts, delete_rows, NumRows()));
  std::sort(delete_rows.begin(), delete_rows.end());
  // Descending order keeps every pending index valid: a swap-remove only
  // relocates the last row, whose index is larger than any remaining one.
  for (size_t i = delete_rows.size(); i-- > 0;) {
    SwapRemoveRow(delete_rows[i]);
  }
  for (const auto& row : inserts) AppendRow(row);
  return Status::OK();
}

void Relation::EnableChangeLog(size_t capacity) {
  LSENS_CHECK_MSG(capacity > 0, "change log capacity must be positive");
  log_enabled_ = true;
  log_capacity_ = capacity;
  log_.clear();
  log_base_version_ = version_;
}

Relation Relation::CloneSnapshot() const {
  return Relation(*this, NoChangeLog{});
}

size_t Relation::MemoryBytes() const {
  std::vector<MemoryPart> parts;
  AppendMemoryParts(&parts);
  size_t bytes = 0;
  for (const MemoryPart& part : parts) bytes += part.bytes;
  return bytes;
}

void Relation::AppendMemoryParts(std::vector<MemoryPart>* out) const {
  for (const auto& table : cols_) {
    const size_t table_bytes = table->capacity() * sizeof(CowPtr<ColumnChunk>);
    out->push_back({table.id(), table_bytes});
    for (const auto& chunk : *table) {
      out->push_back({chunk.id(), chunk->capacity() * sizeof(Value)});
    }
  }
  size_t own = dict_cols_.capacity() * sizeof(uint8_t);
  for (const RowChange& change : log_) {
    own += sizeof(RowChange) + change.row.capacity() * sizeof(Value);
  }
  out->push_back({this, own});
}

void Relation::LogChange(bool insert, std::span<const Value> row) {
  if (log_.size() == log_capacity_) {
    log_.pop_front();
    ++log_base_version_;
  }
  log_.push_back(RowChange{insert, {row.begin(), row.end()}});
}

bool Relation::CollectChangesSince(uint64_t since,
                                   std::vector<RowChange>* out) const {
  if (!log_enabled_ || since < log_base_version_ || since > version_) {
    return false;
  }
  // All entries between log_base_version_ and version_ are retained, so the
  // suffix starting at `since` is exactly the requested delta.
  LSENS_CHECK(version_ - log_base_version_ == log_.size());
  for (size_t i = static_cast<size_t>(since - log_base_version_);
       i < log_.size(); ++i) {
    out->push_back(log_[i]);
  }
  return true;
}

bool Relation::CollectProjectedChangesSince(
    uint64_t since, std::span<const size_t> key_cols,
    const std::function<bool(const RowChange&)>& filter,
    std::vector<ProjectedRowChange>* out, size_t* num_changes) const {
  if (!log_enabled_ || since < log_base_version_ || since > version_) {
    return false;
  }
  LSENS_CHECK(version_ - log_base_version_ == log_.size());
  const size_t begin = static_cast<size_t>(since - log_base_version_);
  if (num_changes != nullptr) *num_changes = log_.size() - begin;
  for (size_t i = begin; i < log_.size(); ++i) {
    const RowChange& change = log_[i];
    if (filter && !filter(change)) continue;
    ProjectedRowChange pc;
    pc.insert = change.insert;
    pc.key.reserve(key_cols.size());
    for (size_t col : key_cols) pc.key.push_back(change.row[col]);
    out->push_back(std::move(pc));
  }
  return true;
}

size_t Relation::NumChangesSince(uint64_t since) const {
  if (!log_enabled_ || since < log_base_version_ || since > version_) {
    return SIZE_MAX;
  }
  return static_cast<size_t>(version_ - since);
}

int Relation::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == column_name) return static_cast<int>(i);
  }
  return -1;
}

bool Relation::IdenticalTo(const Relation& other) const {
  if (name_ != other.name_ || column_names_ != other.column_names_ ||
      num_rows_ != other.num_rows_) {
    return false;
  }
  // Equal row counts mean equal chunk boundaries; shared tables and chunks
  // are equal without a look.
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].id() == other.cols_[c].id()) continue;
    const ChunkTable& mine = *cols_[c];
    const ChunkTable& theirs = *other.cols_[c];
    for (size_t k = 0; k < mine.size(); ++k) {
      if (mine[k].id() != theirs[k].id() && *mine[k] != *theirs[k]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lsens
