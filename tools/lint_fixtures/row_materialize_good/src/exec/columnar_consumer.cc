// MUST-PASS fixture for rule row-materialize, covering the sanctioned
// shapes: Chunks() chunk spans and a reused RowInto() buffer in hot loops, a
// Row() call outside any loop (one-shot gathers are fine), and a cold
// setup loop justified by a line-site allow. The allow must appear in the
// audit.
#include <cstddef>
#include <span>
#include <vector>

namespace fixture {

using Value = long long;

struct ChunkedColumn {
  size_t num_chunks() const;
  std::span<const Value> chunk(size_t k) const;
};

struct Relation {
  std::vector<Value> Row(size_t i) const;
  void RowInto(size_t i, std::vector<Value>* out) const;
  ChunkedColumn Chunks(size_t c) const;
  size_t NumRows() const;
};

Value SumFirstColumn(const Relation& rel) {
  Value sum = 0;
  const ChunkedColumn col = rel.Chunks(0);
  for (size_t k = 0; k < col.num_chunks(); ++k) {
    for (Value v : col.chunk(k)) sum += v;
  }
  return sum;
}

Value SumViaReusedBuffer(const Relation& rel) {
  Value sum = 0;
  std::vector<Value> row;
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    rel.RowInto(i, &row);
    sum += row[0];
  }
  return sum;
}

std::vector<Value> OneShotGather(const Relation& rel) {
  return rel.Row(0);
}

std::vector<std::vector<Value>> SnapshotForTests(const Relation& rel) {
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    // lsens-lint: allow(row-materialize) cold snapshot path — runs once
    // per test, clarity wins over the per-row vector.
    rows.push_back(rel.Row(i));
  }
  return rows;
}

}  // namespace fixture
