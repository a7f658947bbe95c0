#ifndef LSENS_STORAGE_RELATION_H_
#define LSENS_STORAGE_RELATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "storage/cow.h"
#include "storage/value.h"

namespace lsens {

// One logged mutation of a relation: a row inserted into or erased from the
// bag. Swap-remove reordering is not logged — consumers (the incremental
// sensitivity subsystem) only care about the multiset delta.
struct RowChange {
  bool insert = true;
  std::vector<Value> row;
};

// A logged mutation projected onto a key-column subset: what the delta
// repair in sensitivity/incremental.cc actually consumes. Produced by
// CollectProjectedChangesSince, which copies only the key columns of each
// passing change instead of slicing whole rows.
struct ProjectedRowChange {
  bool insert = true;
  std::vector<Value> key;
};

// Rows per column chunk. Every chunk of a column but its last holds exactly
// kChunkRows values and the last holds 1 to kChunkRows, so row i lives at
// offset i % kChunkRows of chunk i / kChunkRows in every column. A chunk
// reserves kChunkRows values when it opens and never reallocates.
inline constexpr size_t kChunkRows = 4096;

// One column's storage: a table of copy-on-write chunk handles.
using ColumnChunk = std::vector<Value>;
using ChunkTable = std::vector<CowPtr<ColumnChunk>>;

// Read-only view of one column of a Relation, valid until the relation is
// next mutated. Point reads go through operator[]; loops over a whole
// column walk chunk(k) spans, which are contiguous.
class ChunkedColumn {
 public:
  Value operator[](size_t row) const {
    return (*chunks_[row / kChunkRows])[row % kChunkRows];
  }
  size_t num_chunks() const { return num_chunks_; }
  // Rows [k * kChunkRows, k * kChunkRows + chunk(k).size()).
  std::span<const Value> chunk(size_t k) const { return *chunks_[k]; }

 private:
  friend class Relation;
  explicit ChunkedColumn(const ChunkTable& table)
      : chunks_(table.data()), num_chunks_(table.size()) {}

  const CowPtr<ColumnChunk>* chunks_;
  size_t num_chunks_;
};

// A base relation: named columns (by position; attribute binding happens in
// the query's atoms) and columnar storage. Bag semantics: duplicate rows
// are allowed and meaningful.
//
// Each column is a ChunkTable: copy-on-write handles (storage/cow.h) to
// chunks of kChunkRows values, itself behind a copy-on-write handle.
// Copying a Relation copies one table handle per column. The first write
// to a column that a copy still shares copies its table (one handle per
// chunk) and then only the chunks it writes:
//   - Set copies the chunk of its row;
//   - an append copies the tail chunk, or opens a new one;
//   - a swap-remove copies the row's chunk and the tail chunk, and drops
//     a tail chunk it empties without copying it;
//   - Clear copies nothing: it starts every column afresh.
// A snapshot therefore costs one handle per column, and a write after it
// pays for the chunks it touches, not for the relation.
//
// Scans, hash builds, and change-log projection read column chunks
// sequentially instead of striding across row tuples, which is what the
// exec-layer kernels want; the row-level API
// (Row/At/AppendRow/Set/SwapRemoveRow/ApplyDelta) is preserved on top and
// pins the semantics. Row() gathers into a fresh vector — hot loops should
// read Chunks() spans, reuse a buffer via RowInto(), or compare in place
// with RowEquals() instead (the lsens-lint `row-materialize` rule audits
// exec-layer loops for this).
//
// Every mutation bumps a monotone version counter, and an opt-in bounded
// changelog records the row-level delta between versions so caches keyed on
// (relation, version) can repair instead of recompute. The log is off by
// default — bulk loads pay only the counter increment.
class Relation {
 public:
  Relation(std::string name, std::vector<std::string> column_names);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  size_t arity() const { return column_names_.size(); }
  size_t NumRows() const { return num_rows_; }

  // Column c split into its chunks: the unit of access every columnar
  // kernel consumes.
  ChunkedColumn Chunks(size_t c) const {
    return ChunkedColumn(*cols_[c]);
  }

  // Row i gathered across columns into a fresh vector. Convenience for
  // tests and cold paths; hot loops use Chunks()/RowInto()/RowEquals().
  std::vector<Value> Row(size_t i) const;
  // Gather row i into `*out` (resized to arity()), reusing its capacity.
  void RowInto(size_t i, std::vector<Value>* out) const;
  // True iff row i equals `row` (arity-checked once per call).
  bool RowEquals(size_t i, std::span<const Value> row) const;

  Value At(size_t row, size_t col) const { return Chunks(col)[row]; }
  // Point overwrite. Bumps the version; the changelog (which speaks in
  // whole-row inserts/erases) records erase(old row) + insert(new row).
  void Set(size_t row, size_t col, Value v);

  void AppendRow(std::span<const Value> row) {
    LSENS_CHECK(row.size() == arity());
    // Loads append row by row: while no copy of this relation is alive,
    // one test covers every column (see lineage_).
    if (log_enabled_ || !lineage_.Unique()) {
      AppendRowSlow(row);
      return;
    }
    const bool opens = num_rows_ % kChunkRows == 0;
    for (size_t c = 0; c < row.size(); ++c) {
      ChunkTable& table = cols_[c].MutableUnshared();
      if (opens) OpenChunk(&table);
      table.back().MutableUnshared().push_back(row[c]);
    }
    ++num_rows_;
    ++version_;
  }
  void AppendRow(std::initializer_list<Value> row) {
    AppendRow(std::span<const Value>(row.begin(), row.size()));
  }

  // Bulk append of `rows_flat.size() / arity()` rows stored row-major
  // (rows_flat.size() must be a multiple of the arity). One strided
  // scatter per column, a chunk at a time; versioning and the changelog
  // observe the same per-row granularity as the equivalent AppendRow loop.
  void AppendRows(std::span<const Value> rows_flat);

  // Bulk append of pre-split columns: columns[c] holds the new values of
  // column c, all the same length. The columnar twin of AppendRows — one
  // contiguous copy per chunk, no row-major staging. The CSV loader
  // parses straight into such buffers.
  void AppendColumns(std::span<const std::vector<Value>> columns);

  // Gather-append of `rows` (indices into `src`, which must have the same
  // arity) — one strided gather per column. Used by the truncation
  // mechanisms to rebuild a filtered relation without materializing rows.
  void AppendRowsFrom(const Relation& src, std::span<const uint32_t> rows);

  // Sizes every column's chunk table for `rows` rows; chunks reserve
  // their own capacity as they open.
  void Reserve(size_t rows) {
    const size_t chunks = (rows + kChunkRows - 1) / kChunkRows;
    for (auto& col : cols_) {
      if (col->capacity() < chunks) col.Mutable().reserve(chunks);
    }
  }
  // Drops every row. Bumps the version and disables the changelog (the
  // delta would be the whole relation); re-enable to resume logging.
  void Clear();

  // Removes row i by swapping with the last row (order is not meaningful
  // under bag semantics).
  void SwapRemoveRow(size_t i);

  // Checks a batched update without mutating anything: insert rows must
  // match the arity, delete indices must be distinct and < num_rows (the
  // relation size the delta will apply against — pass NumRows() for an
  // immediate apply, or a simulated size when validating a multi-relation
  // batch up front, as Database::ApplyDelta does).
  Status ValidateDelta(std::span<const std::vector<Value>> inserts,
                       std::span<const size_t> delete_rows,
                       size_t num_rows) const;

  // Batched update: removes the rows at `delete_rows` (indices into the
  // pre-delta relation, all distinct), then appends `inserts`. Runs
  // ValidateDelta first and rejects without mutating — a failed batch
  // bumps neither version() nor the changelog. One version bump and one
  // changelog entry per affected row, exactly as the equivalent
  // SwapRemoveRow/AppendRow sequence would produce.
  Status ApplyDelta(std::span<const std::vector<Value>> inserts,
                    std::vector<size_t> delete_rows);

  // --- Per-column dictionary handles --------------------------------------
  // Marks column c as dictionary-encoded: its values are codes interned in
  // the owning database's Dictionary (storage/dictionary.h). Purely
  // catalog metadata — the column stores flat int64 codes like any other —
  // but loaders and writers use it to decide which columns render back
  // through the dictionary. Survives copies and CloneSnapshot with the rest
  // of the schema.
  bool column_dictionary(size_t c) const { return dict_cols_[c] != 0; }
  void set_column_dictionary(size_t c, bool on) {
    dict_cols_[c] = on ? 1 : 0;
  }

  // --- Versioning and the change log -------------------------------------
  // Monotone mutation counter: every AppendRow / SwapRemoveRow / Set /
  // Clear (and each row of an ApplyDelta) bumps it by one.
  uint64_t version() const { return version_; }

  // Starts (or restarts) row-level change logging. The log keeps at most
  // `capacity` entries: older entries are discarded, which moves the
  // oldest version CollectChangesSince can answer for forward. Restarting
  // clears any previous log; changes before this call are not recoverable.
  void EnableChangeLog(size_t capacity);
  bool change_log_enabled() const { return log_enabled_; }

  // A copy for an immutable snapshot: shares every column's chunk table,
  // keeps the contents, schema and version(), and carries no change log (a
  // snapshot never mutates, so a log would only pin memory). The copy
  // constructor shares columns the same way but copies the log too.
  Relation CloneSnapshot() const;

  // Bytes held by column storage plus the retained change-log entries, for
  // epoch/eviction accounting (same spirit as DynTable::MemoryBytes). A
  // chunk or table shared with a copy counts in full here; see
  // AppendMemoryParts to count it once across relations.
  size_t MemoryBytes() const;

  // MemoryBytes split by buffer. For each column in order: one part for
  // its chunk table, then one per chunk, each owned by the buffer (copies
  // that share it report the same owner). Last, one part owned by this
  // relation for its dictionary flags and change log.
  void AppendMemoryParts(std::vector<MemoryPart>* out) const;

  // Appends the changes that lead from version `since` to version() onto
  // `out`. Returns false when the log cannot answer — logging disabled, a
  // non-loggable mutation (Clear) intervened, or `since` predates the
  // retained window — in which case `out` is untouched.
  bool CollectChangesSince(uint64_t since, std::vector<RowChange>* out) const;
  // The number of entries CollectChangesSince would append, or SIZE_MAX
  // when it would return false.
  size_t NumChangesSince(uint64_t since) const;

  // The projected form the delta repair consumes: one log walk that drops
  // changes failing `filter` (pass nullptr to keep everything) and appends
  // the `key_cols` projection of each survivor onto `out`, in log order.
  // `*num_changes` (optional) receives the total number of log entries
  // walked, pre-filter — the repair's delta_rows accounting. Returns false
  // exactly when CollectChangesSince would (nothing appended).
  bool CollectProjectedChangesSince(
      uint64_t since, std::span<const size_t> key_cols,
      const std::function<bool(const RowChange&)>& filter,
      std::vector<ProjectedRowChange>* out, size_t* num_changes) const;

  // Column index for `column_name`, or -1.
  int ColumnIndex(const std::string& column_name) const;

  // Deep equality including row order (use for exact snapshots in tests).
  // Versions and change logs are bookkeeping, not contents: they are
  // ignored here.
  bool IdenticalTo(const Relation& other) const;

 private:
  // CloneSnapshot's copy: everything but the change log.
  struct NoChangeLog {};
  Relation(const Relation& other, NoChangeLog);

  void LogChange(bool insert, std::span<const Value> row);
  // AppendRow when it logs or a copy may share a column: out of line, so
  // the copy path stays off the inlined per-row path.
  [[gnu::noinline]] void AppendRowSlow(std::span<const Value> row);
  // Appends a fresh chunk (capacity kChunkRows) to `table`.
  [[gnu::noinline]] static void OpenChunk(ChunkTable* table);
  // Appends `count` values to a column that holds `rows`, a chunk at a
  // time: fill(chunk, i, take) appends new values i .. i + take - 1 to
  // `chunk`, which has room for them. Fills the tail chunk (copying it
  // first if a copy shares it) before opening new ones.
  template <typename Fill>
  static void AppendToColumn(CowPtr<ChunkTable>& column, size_t rows,
                             size_t count, const Fill& fill);

  // Shared by this relation and every copy made from it, directly or
  // through other copies; AppendRow's one test per row. Two invariants
  // make a unique lineage_ mean that no other relation holds any column
  // table or chunk:
  //   - table handles are copied only with the whole relation (copy
  //     construction and assignment, and the CloneSnapshot constructor),
  //     and each of those copies lineage_ too. Chunk handles are copied
  //     only with their table, when a shared table is written. Any new
  //     path that hands a table or chunk handle to another holder must
  //     copy lineage_ with it;
  //   - lineage_ is declared first, so a copy's destructor releases it
  //     after its tables and chunks, and the acquire in lineage_.Unique()
  //     orders every access that copy made before the write.
  // Without it each row would pay one acquire per column: tpch setup_s
  // read 12-14% slower.
  CowPtr<char> lineage_;
  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<CowPtr<ChunkTable>> cols_;  // one chunk table per column
  std::vector<uint8_t> dict_cols_;        // per-column dictionary flags
  size_t num_rows_ = 0;

  uint64_t version_ = 0;
  bool log_enabled_ = false;
  size_t log_capacity_ = 0;
  uint64_t log_base_version_ = 0;  // version before the first retained entry
  std::deque<RowChange> log_;
};

}  // namespace lsens

#endif  // LSENS_STORAGE_RELATION_H_
