#ifndef LSENS_EXEC_ROW_SORT_H_
#define LSENS_EXEC_ROW_SORT_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "exec/counted_relation.h"

namespace lsens {

class ExecContext;

// Shared sort/merge machinery for the row-at-a-time operators: Normalize,
// GroupBySum, GroupByMax, the sort-merge join, and the kAuto join rule all
// order rows by a column subset through these helpers instead of each
// carrying its own comparison loop. ScanAtom shares the key packing and
// the packed-key sort, and so does the fused join-group-by.
//
// Rows order by one of two paths. When the key columns' value ranges fit
// in 64 bits together — every one-column key, and the multi-column keys of
// real domains — each row's key columns pack into one uint64 whose
// unsigned order is the rows' order (PackedKeyLayout), and the keys sort
// as SortPackedKeys sorts them. Wider keys take a plain stable sort of the
// row indices by CompareRowsAt.

// Packed sort element: a row's packed key plus its row index. The
// defaulted comparison orders by key, then index, so sorting these is a
// stable sort of the rows.
struct SortKey64 {
  uint64_t key;
  uint32_t idx;

  auto operator<=>(const SortKey64&) const = default;
};

// Order-preserving map from int64 to uint64 (flips the sign bit), and back.
inline uint64_t OrderedBits(Value v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}
inline Value FromOrderedBits(uint64_t bits) {
  return static_cast<Value>(bits ^ (uint64_t{1} << 63));
}

// One column of a packed key: the column's value v is stored as its offset
// OrderedBits(v) - lo in the `mask`-wide bit field at `shift`. A constant
// column has an empty field (mask 0, shift 0) and packs to no bits.
struct PackedColumn {
  uint64_t lo = 0;
  uint64_t mask = 0;
  int shift = 0;

  bool constant() const { return mask == 0; }
  // The key bits of `v`, which must lie within the column's range.
  uint64_t Pack(Value v) const { return (OrderedBits(v) - lo) << shift; }
  Value Unpack(uint64_t key) const {
    return FromOrderedBits(((key >> shift) & mask) + lo);
  }
};

// The packing rule shared by the packed row sort and ScanAtom. Given each
// key column's range [lo, hi] of OrderedBits values, column j takes
// bit_width(hi - lo) bits, the first column most significant, so unsigned
// order of the packed keys is the lexicographic order of the columns.
class PackedKeyLayout {
 public:
  // Lays out `k` key columns, column j over bounds(j) = {lo, hi}. A lone
  // column takes all 64 bits without a call to `bounds`: its ordered bits
  // already are the key.
  PackedKeyLayout(
      size_t k,
      const std::function<std::pair<uint64_t, uint64_t>(size_t)>& bounds);

  // True when the columns need at most 64 bits together; the columns'
  // fields are only meaningful then.
  bool fits() const { return fits_; }
  // By value, so a hot loop holds the field in registers.
  PackedColumn column(size_t j) const { return columns_[j]; }

 private:
  std::vector<PackedColumn> columns_;
  bool fits_ = true;
};

// Sorts packed keys ascending, as the packed row sort sorts its SortKey64
// elements: nothing to do when they already are in order, a stable LSD
// radix sort over the key bytes that vary at 256 keys or more (real key
// domains are narrow, so typically 2-4 passes, not one per byte),
// std::sort below that. `tmp` is the radix ping-pong buffer; the two
// vectors may end up swapped, which is fine when both are arena slots of
// one context.
void SortPackedKeys(std::vector<uint64_t>& keys, std::vector<uint64_t>& tmp);
// The same over (key, index) elements, ties kept in index order: the fused
// join-group-by (JoinGroupBySum) sorts its packed group keys this way, each
// carrying the index of its count.
void SortPackedKeys(std::vector<SortKey64>& keys, std::vector<SortKey64>& tmp);

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
// sorters to skip their sort.
bool RowsSortedBy(const CountedRelation& r, std::span<const int> cols);

// Fills `perm` with a permutation of [0, r.NumRows()) ordering rows by
// `cols`, ties broken by row index (stable). Leaves `perm` as the identity
// without sorting when the input is already ordered; returns true in that
// case. Keys that pack into 64 bits sort as SortKey64 (scratch from
// `ctx`), wider ones by a stable sort of `perm`; the permutation is the
// same either way.
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
