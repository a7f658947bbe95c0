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
// own comparison loop. ScanAtom shares the key packing and the radix kernel.

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
// key column's range [lo[j], hi[j]] of OrderedBits values, column j takes
// bit_width(hi - lo) bits, the first column most significant, so unsigned
// order of the packed keys is the lexicographic order of the columns.
class PackedKeyLayout {
 public:
  PackedKeyLayout(std::span<const uint64_t> lo, std::span<const uint64_t> hi);

  // True when the columns need at most 64 bits together; the columns'
  // fields are only meaningful then.
  bool fits() const { return fits_; }
  // By value, so a hot loop holds the field in registers.
  PackedColumn column(size_t j) const { return columns_[j]; }

 private:
  std::vector<PackedColumn> columns_;
  bool fits_ = true;
};

// The radix key of a sort element: the packed key of SortKeyRef and
// SortKey64, and a bare uint64_t is its own key.
inline unsigned __int128 RadixKey(const SortKeyRef& e) { return e.key; }
inline uint64_t RadixKey(const SortKey64& e) { return e.key; }
inline uint64_t RadixKey(uint64_t e) { return e; }

// Stable LSD radix sort of `keys` by RadixKey, one counting pass per key
// byte set in `varying` (the OR of every key XOR the first; real-world key
// domains are narrow, so this is typically 2-4 passes, not one per byte).
// `tmp` is the ping-pong buffer; the two vectors may end up swapped, which
// is fine when both are arena slots of one context.
template <typename Elem>
void RadixSortKeys(std::vector<Elem>& keys, std::vector<Elem>& tmp,
                   decltype(RadixKey(Elem{})) varying) {
  tmp.resize(keys.size());
  for (size_t b = 0; b < sizeof(varying); ++b) {
    const size_t shift = 8 * b;
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t count[256] = {};
    for (const Elem& e : keys) {
      ++count[static_cast<size_t>((RadixKey(e) >> shift) & 0xff)];
    }
    size_t pos[256];
    size_t run = 0;
    for (size_t i = 0; i < 256; ++i) {
      pos[i] = run;
      run += count[i];
    }
    for (const Elem& e : keys) {
      tmp[pos[static_cast<size_t>((RadixKey(e) >> shift) & 0xff)]++] = e;
    }
    keys.swap(tmp);
  }
}

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
