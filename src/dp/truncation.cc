#include "dp/truncation.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/macros.h"
#include "exec/exec_context.h"

namespace lsens {

namespace {

// The chosen key columns as chunked column views.
std::vector<ChunkedColumn> KeyColumns(const Relation& rel,
                                      const std::vector<int>& key_cols) {
  std::vector<ChunkedColumn> cols;
  cols.reserve(key_cols.size());
  for (int c : key_cols) cols.push_back(rel.Chunks(static_cast<size_t>(c)));
  return cols;
}

// Key-frequency map over the chosen columns.
std::map<std::vector<Value>, size_t> KeyFrequencies(
    const Relation& rel, const std::vector<int>& key_cols) {
  std::map<std::vector<Value>, size_t> freq;
  const std::vector<ChunkedColumn> cols = KeyColumns(rel, key_cols);
  std::vector<Value> key(key_cols.size());
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    for (size_t j = 0; j < key_cols.size(); ++j) key[j] = cols[j][r];
    ++freq[key];
  }
  return freq;
}

}  // namespace

StatusOr<size_t> TruncateBySensitivity(Database& db,
                                       const std::string& relation,
                                       const std::vector<Count>& sensitivities,
                                       Count threshold, ExecContext* ctx) {
  Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  if (sensitivities.size() != rel->NumRows()) {
    return Status::InvalidArgument(
        "sensitivity vector does not match relation row count");
  }
  OpTimer op(ResolveExecContext(ctx), "dp.truncate_by_sensitivity",
             rel->NumRows());
  // Rebuild without the over-sensitive rows (cheaper and order-stable
  // compared to repeated swap-removes, which would desynchronize indices):
  // collect the surviving indices, then gather-append them column by
  // column.
  std::vector<uint32_t> kept_rows;
  kept_rows.reserve(rel->NumRows());
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    if (!(sensitivities[r] > threshold)) {
      kept_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  const size_t removed = rel->NumRows() - kept_rows.size();
  Relation kept(rel->name(), rel->column_names());
  kept.AppendRowsFrom(*rel, kept_rows);
  *rel = std::move(kept);
  op.set_rows_out(rel->NumRows());
  return removed;
}

StatusOr<size_t> TruncateByFrequency(Database& db, const std::string& relation,
                                     const std::vector<int>& key_cols,
                                     uint64_t threshold, ExecContext* ctx) {
  Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  for (int c : key_cols) {
    if (c < 0 || static_cast<size_t>(c) >= rel->arity()) {
      return Status::InvalidArgument("key column out of range");
    }
  }
  OpTimer op(ResolveExecContext(ctx), "dp.truncate_by_frequency",
             rel->NumRows());
  auto freq = KeyFrequencies(*rel, key_cols);
  const std::vector<ChunkedColumn> cols = KeyColumns(*rel, key_cols);
  std::vector<uint32_t> kept_rows;
  kept_rows.reserve(rel->NumRows());
  std::vector<Value> key(key_cols.size());
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    for (size_t j = 0; j < key_cols.size(); ++j) key[j] = cols[j][r];
    if (freq[key] <= threshold) {
      kept_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  const size_t removed = rel->NumRows() - kept_rows.size();
  Relation kept(rel->name(), rel->column_names());
  kept.AppendRowsFrom(*rel, kept_rows);
  *rel = std::move(kept);
  op.set_rows_out(rel->NumRows());
  return removed;
}

StatusOr<std::vector<size_t>> RowsAboveFrequency(
    const Database& db, const std::string& relation,
    const std::vector<int>& key_cols, uint64_t max_f) {
  const Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  auto freq = KeyFrequencies(*rel, key_cols);
  std::vector<size_t> rows_above(max_f + 1, 0);
  for (const auto& [key, f] : freq) {
    // A key with frequency f contributes f rows to every bucket with
    // threshold < f.
    size_t upto = std::min<uint64_t>(f == 0 ? 0 : f - 1, max_f);
    for (size_t i = 0; i <= upto && f > i; ++i) rows_above[i] += f;
  }
  return rows_above;
}

StatusOr<std::vector<size_t>> KeysAboveFrequency(
    const Database& db, const std::string& relation,
    const std::vector<int>& key_cols, uint64_t max_f) {
  const Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  auto freq = KeyFrequencies(*rel, key_cols);
  std::vector<size_t> keys_above(max_f + 1, 0);
  for (const auto& [key, f] : freq) {
    size_t upto = std::min<uint64_t>(f == 0 ? 0 : f - 1, max_f);
    for (size_t i = 0; i <= upto && f > i; ++i) ++keys_above[i];
  }
  return keys_above;
}

}  // namespace lsens
