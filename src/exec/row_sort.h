#ifndef LSENS_EXEC_ROW_SORT_H_
#define LSENS_EXEC_ROW_SORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/counted_relation.h"

namespace lsens {

class ExecContext;

// Shared sort/merge machinery for the row-at-a-time operators: Normalize,
// GroupBySum, the sort-merge join, and the kAuto join rule all order rows
// by a column subset through these helpers instead of each carrying its
// own comparison loop.

// Wide sort element, for keys whose column ranges need more than 64 bits
// together: the row's first two key values (sign-flipped so unsigned
// comparison preserves int64 order) packed into one 128-bit key, plus the
// row index. Keeping the leading values contiguous lets comparisons for
// two-column keys resolve on `key` alone (ties broken by `idx` for
// stability); wider keys gather the row data only on a two-column tie.
struct SortKeyRef {
  unsigned __int128 key;
  uint32_t idx;
};

// Packed sort element, used whenever the key columns' value ranges
// (max - min) fit in 64 bits together — every one-column key, and most
// multi-column keys over real domains: the concatenated column offsets in
// one uint64, plus the row index. Half the footprint of SortKeyRef, so the
// radix passes move half the bytes, and only the bytes that vary are
// walked.
struct SortKey64 {
  uint64_t key;
  uint32_t idx;
};

// Lexicographic comparison of two rows restricted to `cols` (column
// positions into each row; both rows use the same routing).
inline int CompareRowsAt(std::span<const Value> a, std::span<const Value> b,
                         std::span<const int> cols) {
  for (int c : cols) {
    const Value va = a[static_cast<size_t>(c)];
    const Value vb = b[static_cast<size_t>(c)];
    if (va < vb) return -1;
    if (va > vb) return 1;
  }
  return 0;
}

// True if the rows of `r` are already sorted by `cols` (non-decreasing).
// O(n * |cols|); kAuto uses this to pick a zero-sort merge join, the
// sorters to skip their std::sort.
bool RowsSortedBy(const CountedRelation& r, std::span<const int> cols);

// Fills `perm` with a permutation of [0, r.NumRows()) ordering rows by
// `cols`, ties broken by row index (stable). Leaves `perm` as the identity
// without sorting when the input is already ordered; returns true in that
// case. Keys that pack into 64 bits sort as SortKey64, wider ones as
// SortKeyRef; the permutation is the same either way. Scratch (the key
// arrays) comes from `ctx`.
bool SortRowsBy(const CountedRelation& r, std::span<const int> cols,
                std::vector<uint32_t>& perm, ExecContext& ctx);

// True if no two rows of `r` agree on all of `cols` (with empty `cols`:
// at most one row). Sorts through SortRowsBy, so a key that is a prefix of
// a sorted relation costs one verification pass; scratch from `ctx`.
bool RowsUniqueOn(const CountedRelation& r, std::span<const int> cols,
                  ExecContext& ctx);

// Invokes `emit(begin, end)` for every maximal run perm[begin..end) of rows
// with equal values on `cols`, in sorted order.
template <typename Fn>
void ForEachSortedGroup(const CountedRelation& r, std::span<const int> cols,
                        std::span<const uint32_t> perm, Fn&& emit) {
  size_t begin = 0;
  while (begin < perm.size()) {
    size_t end = begin + 1;
    while (end < perm.size() &&
           CompareRowsAt(r.Row(perm[begin]), r.Row(perm[end]), cols) == 0) {
      ++end;
    }
    emit(begin, end);
    begin = end;
  }
}

}  // namespace lsens

#endif  // LSENS_EXEC_ROW_SORT_H_
