// MUST-FIRE fixture for rule row-materialize: Relation::Row() called
// inside loop bodies in an exec-layer file, with no allow annotation.
// Each call gathers a fresh vector — a per-row allocation the columnar
// Chunks() chunk spans exist to avoid. One range-for receiver and one indexed
// receiver, both Relation-typed; the CountedRelation call must NOT fire
// (its Row() returns a span).
#include <cstddef>
#include <vector>

namespace fixture {

using Value = long long;

struct Relation {
  std::vector<Value> Row(size_t i) const;
  size_t NumRows() const;
};

struct CountedRelation {
  const Value* Row(size_t i) const;
  size_t NumRows() const;
};

Value SumFirstColumn(const Relation& rel) {
  Value sum = 0;
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    sum += rel.Row(i)[0];
  }
  return sum;
}

Value SumViaPointer(const Relation* rel) {
  Value sum = 0;
  size_t i = 0;
  while (i < rel->NumRows()) {
    std::vector<Value> row = rel->Row(i++);
    sum += row[0];
  }
  return sum;
}

Value CountedRowsAreFine(const CountedRelation& counted) {
  Value sum = 0;
  for (size_t i = 0; i < counted.NumRows(); ++i) {
    sum += counted.Row(i)[0];
  }
  return sum;
}

}  // namespace fixture
