#ifndef LSENS_EXEC_COUNTED_RELATION_H_
#define LSENS_EXEC_COUNTED_RELATION_H_

#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/count.h"
#include "common/macros.h"
#include "storage/attribute_set.h"
#include "storage/value.h"

namespace lsens {

class ExecContext;

// A relation annotated with the paper's `cnt` multiplicity column: rows are
// tuples over a sorted AttributeSet, each carrying a Count. This is the
// representation all sensitivity machinery works on — the r⋈ operator
// multiplies counts, γ sums them.
//
// Invariants after Normalize(): rows are lexicographically sorted, unique,
// and have non-zero counts. Most operators produce normalized outputs.
//
// `default_count` implements the §5.4 top-k approximation: when non-zero it
// is the multiplicity assumed for any row *not* explicitly stored (an upper
// bound — the k-th largest frequency). Only join sites whose key covers all
// attributes of the defaulted side can consume a default; callers are
// responsible for that (NaturalJoin CHECKs it).
class CountedRelation {
 public:
  explicit CountedRelation(AttributeSet attrs);

  // The unit relation: zero attributes, one row, count 1. Neutral element
  // of r⋈ (used for empty joins / single-atom queries).
  static CountedRelation Unit();

  // Atom ingestion (predicate filter + projection over a stored Relation)
  // lives in the query layer: see ScanAtom in query/atom_scan.h. The exec
  // layer has no notion of query atoms.

  const AttributeSet& attrs() const { return attrs_; }
  size_t arity() const { return attrs_.size(); }
  size_t NumRows() const { return counts_.size(); }

  std::span<const Value> Row(size_t i) const {
    return {data_.data() + i * arity(), arity()};
  }
  Count CountAt(size_t i) const { return counts_[i]; }

  Count default_count() const { return default_count_; }
  void set_default_count(Count c) { default_count_ = c; }
  bool has_default() const { return !default_count_.IsZero(); }

  void AppendRow(std::span<const Value> row, Count count);
  void AppendRow(std::initializer_list<Value> row, Count count) {
    AppendRow(std::span<const Value>(row.begin(), row.size()), count);
  }
  // Bulk-appends every explicit row of `other` (same attrs required).
  // Used to concatenate the per-partition outputs of parallel joins before
  // the single Normalize; does not touch either default_count.
  void AppendRows(const CountedRelation& other);
  // Appends `n` zero-initialized rows, every one carrying `count`, and
  // returns the new rows' row-major storage for the caller to fill —
  // column-at-a-time producers (ScanAtom) write each source column with
  // one strided pass instead of materializing row tuples. The relation is
  // not normalized until the caller says so.
  std::span<Value> AppendRowsRaw(size_t n, Count count);
  // Copies column `col` of every row into `out` (sized to NumRows()): the
  // strided-gather bridge from row-major storage to the column-batch hash
  // fold (HashValuesBatchFold in storage/value.h).
  void GatherColumn(int col, std::span<Value> out) const;
  void Reserve(size_t rows) {
    data_.reserve(rows * arity());
    counts_.reserve(rows);
  }

  // Sorts rows, merges duplicates (summing counts), drops zero counts.
  // Already-sorted inputs are detected and rebuilt in one pass (or not at
  // all). Scratch comes from `ctx` (the thread-local default when null).
  void Normalize(ExecContext* ctx = nullptr);
  bool normalized() const { return normalized_; }

  // Σ over explicit rows (requires no default).
  Count TotalCount() const;

  // Max over explicit rows and the default; Zero for an empty relation.
  Count MaxCount() const;
  // Index of a row attaining MaxCount() among explicit rows; SIZE_MAX if no
  // explicit row attains it (empty relation, or default is the max).
  size_t ArgMaxRow() const;

  // Exact-match lookup (requires normalized). Returns the row's count, or
  // default_count() if absent.
  Count Lookup(std::span<const Value> row) const;
  // Index of the explicit row equal to `row` (requires normalized), or
  // SIZE_MAX if absent.
  size_t FindRow(std::span<const Value> row) const;

  // §5.4 top-k approximation: keeps the k highest-count rows and records the
  // k-th largest count as default_count. No-op if NumRows() <= k.
  void TruncateTopK(size_t k, ExecContext* ctx = nullptr);

  // Drops rows for which `keep` returns false. Preserves normalization.
  void Filter(const std::function<bool(std::span<const Value>)>& keep);

  // Multiplies every count (and the default) by `factor`, saturating.
  // A zero factor triggers a Normalize (zero-count rows must drop), whose
  // scratch comes from `ctx` — pass the worker context inside parallel
  // regions.
  void ScaleCounts(Count factor, ExecContext* ctx = nullptr);

  // Column position of `attr` within attrs(), or -1.
  int ColumnOf(AttrId attr) const;

 private:
  friend CountedRelation GroupBySum(const CountedRelation&,
                                    const AttributeSet&, ExecContext*);
  friend CountedRelation GroupByMax(const CountedRelation&, const AttributeSet&,
                                    std::vector<uint32_t>*, ExecContext*);

  AttributeSet attrs_;
  std::vector<Value> data_;   // flat row-major, arity() stride
  std::vector<Count> counts_;
  Count default_count_ = Count::Zero();
  bool normalized_ = true;  // vacuously true while empty
};

// Lexicographic row comparison helpers shared by join/group-by.
// CompareRows asserts a.size() == b.size() on every call; the Unchecked
// variant is for call sites that have hoisted that invariant out of a hot
// loop (binary-search probes, oracle scans) — same-relation rows or a key
// already asserted against arity(). Hoist the check, don't drop it.
int CompareRows(std::span<const Value> a, std::span<const Value> b);

inline int CompareRowsUnchecked(std::span<const Value> a,
                                std::span<const Value> b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

// γ_{group_attrs} with sum over cnt (the paper's group-by). `group_attrs`
// must be a subset of in.attrs(); input must not carry a default. Runs on
// the same sort/merge machinery as Normalize (row_sort.h): one sorted
// permutation over the input, groups emitted pre-normalized.
CountedRelation GroupBySum(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           ExecContext* ctx = nullptr);

// γ_{group_attrs} with max over cnt: one row per group carrying the largest
// count among the group's rows, and in `arg_rows` (parallel to the output
// rows) the index of the input row attaining it. Ties go to the earliest
// input row, so over a normalized input the winner is the group's
// lexicographically smallest row among those attaining the max. Same
// machinery and preconditions as GroupBySum.
CountedRelation GroupByMax(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           std::vector<uint32_t>* arg_rows,
                           ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_EXEC_COUNTED_RELATION_H_
