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
// Two properties, tracked separately:
//
//   - unique(): rows are pairwise distinct and every count is non-zero.
//     Every operator output has it: Normalize and the group-bys establish
//     it, so does ScanAtom (one row per run of equal packed keys; keys
//     wider than 64 bits are projected and normalized), and a join of
//     unique inputs keeps it (each output row combines exactly one row per
//     input, and a saturating product of non-zero counts is non-zero).
//   - sorted(): unique() and the rows strictly increase lexicographically.
//     Normalize, GroupBySum and GroupByMax set it. ScanAtom's rows come out
//     in packed-key order, and it sets it through MarkUnique's one linear
//     pass; so does a join, when that pass finds its output already
//     ordered. Only the readers of row order (FindRow/Lookup, public
//     outputs) require it and sort at that boundary; join outputs are
//     otherwise left in their (deterministic) emission order.
//
// AppendRow* clears both until the caller normalizes (or, for a kernel's
// output, calls MarkUnique).
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
  // Used to concatenate the per-partition outputs of parallel joins; does
  // not touch either default_count.
  void AppendRows(const CountedRelation& other);
  // The storage of rows appended by AppendRowsRaw: `values` row-major at
  // arity() stride, `counts` one per row.
  struct RawRows {
    std::span<Value> values;
    std::span<Count> counts;
  };
  // Appends `n` zero-initialized rows, every one carrying `count`, and
  // returns their storage for the caller to fill — ScanAtom writes the
  // rows it decodes, and their counts, in place instead of materializing
  // row tuples. The relation is neither unique nor sorted until the caller
  // normalizes it (or vouches for it with MarkUnique).
  RawRows AppendRowsRaw(size_t n, Count count);
  // Copies column `col` of every row into `out` (sized to NumRows()): the
  // strided-gather bridge from row-major storage to the column-batch hash
  // fold (HashValuesBatchFold in storage/value.h).
  void GatherColumn(int col, std::span<Value> out) const;
  void Reserve(size_t rows) {
    data_.reserve(rows * arity());
    counts_.reserve(rows);
  }

  // Sorts rows, merges duplicates (summing counts), drops zero counts;
  // afterwards sorted() holds and default_count() is unchanged. A sorted()
  // relation returns at once. Rows already in order cost one verification
  // pass and are kept as they are when strictly increasing with non-zero
  // counts; otherwise the sorted rows are merged as GroupBySum merges a
  // group. Scratch comes from `ctx` (the thread-local default when null).
  void Normalize(ExecContext* ctx = nullptr);
  bool unique() const { return unique_; }
  bool sorted() const { return sorted_; }

  // Declares the rows unique with non-zero counts — the guarantee a join
  // kernel gives over unique inputs — and sets sorted() when one linear
  // pass finds them strictly increasing. The caller vouches for uniqueness.
  void MarkUnique();

  // Σ over explicit rows (requires no default).
  Count TotalCount() const;

  // Max over explicit rows and the default; Zero for an empty relation.
  Count MaxCount() const;
  // Index of a row attaining MaxCount() among explicit rows — the
  // lexicographically smallest such row, whatever the row order; SIZE_MAX
  // if no explicit row attains it (empty relation, or default is the max).
  size_t ArgMaxRow() const;

  // Exact-match lookup (requires sorted()). Returns the row's count, or
  // default_count() if absent.
  Count Lookup(std::span<const Value> row) const;
  // Index of the explicit row equal to `row` (requires sorted()), or
  // SIZE_MAX if absent.
  size_t FindRow(std::span<const Value> row) const;

  // §5.4 top-k approximation: keeps the k highest-count rows (count ties go
  // to the earlier row, so over a sorted() relation to the lexicographically
  // smaller one) in their original order, and records the k-th largest
  // count as default_count. A relation that is not unique() is normalized
  // afterwards. No-op if NumRows() <= k.
  void TruncateTopK(size_t k, ExecContext* ctx = nullptr);

  // Drops rows for which `keep` returns false. A subset keeps its order, so
  // unique() and sorted() are preserved.
  void Filter(const std::function<bool(std::span<const Value>)>& keep);

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
  // Both vacuously true while empty; sorted_ implies unique_.
  bool unique_ = true;
  bool sorted_ = true;
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
// must be a subset of in.attrs(); input must not carry a default and need
// not be unique or sorted. Runs on the same sort/merge machinery as
// Normalize (row_sort.h): one sorted permutation over the group columns,
// groups emitted merged and in order, so the output is sorted(). A sorted()
// input grouped onto all of its attributes is returned as a copy.
CountedRelation GroupBySum(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           ExecContext* ctx = nullptr);

// γ_{group_attrs} with max over cnt: one row per group carrying the largest
// count among the group's rows, and in `arg_rows` (parallel to the output
// rows) the index of the input row attaining it. Ties go to the group's
// lexicographically smallest row among those attaining the max, whatever
// the input's row order. Same machinery, preconditions and sorted() output
// as GroupBySum.
CountedRelation GroupByMax(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           std::vector<uint32_t>* arg_rows,
                           ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_EXEC_COUNTED_RELATION_H_
