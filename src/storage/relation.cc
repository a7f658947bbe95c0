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
      version_(other.version_),
      log_base_version_(other.version_) {}

void Relation::AppendRowSlow(std::span<const Value> row) {
  if (log_enabled_) LogChange(/*insert=*/true, row);
  for (size_t c = 0; c < row.size(); ++c) cols_[c].Mutable().push_back(row[c]);
  ++version_;
}

std::vector<Value> Relation::Row(size_t i) const {
  std::vector<Value> row(arity());
  for (size_t c = 0; c < cols_.size(); ++c) row[c] = (*cols_[c])[i];
  return row;
}

void Relation::RowInto(size_t i, std::vector<Value>* out) const {
  out->resize(arity());
  for (size_t c = 0; c < cols_.size(); ++c) (*out)[c] = (*cols_[c])[i];
}

bool Relation::RowEquals(size_t i, std::span<const Value> row) const {
  LSENS_CHECK(row.size() == arity());
  for (size_t c = 0; c < cols_.size(); ++c) {
    if ((*cols_[c])[i] != row[c]) return false;
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
  cols_[col].Mutable()[row] = v;
  ++version_;
}

void Relation::Clear() {
  for (auto& col : cols_) {
    // A shared buffer is left to its other holders: start a fresh one
    // instead of copying rows only to drop them.
    if (col.Unique()) {
      col.Mutable().clear();
    } else {
      col = ColumnBuffer();
    }
  }
  ++version_;
  // The delta "everything erased" is exactly what the log exists to avoid
  // materializing; disable instead, so readers fall back to recompute.
  log_enabled_ = false;
  log_.clear();
}

void Relation::SwapRemoveRow(size_t i) {
  size_t n = NumRows();
  LSENS_CHECK(i < n);
  if (log_enabled_) LogChange(/*insert=*/false, Row(i));
  for (auto& buffer : cols_) {
    std::vector<Value>& col = buffer.Mutable();
    col[i] = col[n - 1];
    col.pop_back();
  }
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
    auto& col = cols_[c].Mutable();
    col.reserve(col.size() + rows);
    for (size_t i = 0; i < rows; ++i) col.push_back(rows_flat[i * k + c]);
  }
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
    auto& col = cols_[c].Mutable();
    col.insert(col.end(), columns[c].begin(), columns[c].end());
  }
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
    const auto& from = *src.cols_[c];
    auto& dst = cols_[c].Mutable();
    dst.reserve(dst.size() + rows.size());
    for (uint32_t r : rows) dst.push_back(from[r]);
  }
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
  for (const auto& col : cols_) {
    out->push_back({col.id(), col->capacity() * sizeof(Value)});
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

bool Relation::CollectChangesShardedSince(
    uint64_t since, std::span<const size_t> key_cols, size_t num_shards,
    std::vector<std::vector<RowChange>>* shards) const {
  LSENS_CHECK(num_shards > 0 && shards->size() >= num_shards);
  if (!log_enabled_ || since < log_base_version_ || since > version_) {
    return false;
  }
  LSENS_CHECK(version_ - log_base_version_ == log_.size());
  for (size_t i = static_cast<size_t>(since - log_base_version_);
       i < log_.size(); ++i) {
    const RowChange& change = log_[i];
    uint64_t h = kValueHashSeed;
    for (size_t col : key_cols) h = HashValueFold(h, change.row[col]);
    (*shards)[static_cast<size_t>(h % num_shards)].push_back(change);
  }
  return true;
}

bool Relation::CollectProjectedChangesShardedSince(
    uint64_t since, std::span<const size_t> key_cols, size_t num_shards,
    const std::function<bool(const RowChange&)>& filter,
    std::vector<std::vector<ProjectedRowChange>>* shards,
    size_t* num_changes) const {
  LSENS_CHECK(num_shards > 0 && shards->size() >= num_shards);
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
    uint64_t h = kValueHashSeed;
    for (size_t col : key_cols) {
      const Value v = change.row[col];
      pc.key.push_back(v);
      h = HashValueFold(h, v);
    }
    (*shards)[static_cast<size_t>(h % num_shards)].push_back(std::move(pc));
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
  if (name_ != other.name_ || column_names_ != other.column_names_) {
    return false;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].id() != other.cols_[c].id() && *cols_[c] != *other.cols_[c]) {
      return false;
    }
  }
  return true;
}

}  // namespace lsens
