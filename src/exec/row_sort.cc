#include "exec/row_sort.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "exec/exec_context.h"

namespace lsens {

namespace {

// Packed-key sort: when the key columns fit a PackedKeyLayout, each row's
// 64-bit key orders like its columns `cols`. Fills `perm` ordered by that
// key, ties by row index — exactly the permutation a stable sort by `cols`
// gives. Returns false, leaving `perm` alone, when the columns' ranges need
// more than 64 bits.
bool SortRowsByPacked(const CountedRelation& r, std::span<const int> cols,
                      std::vector<uint32_t>& perm, ExecContext& ctx) {
  const size_t n = r.NumRows();
  const size_t k = cols.size();
  const size_t stride = r.arity();
  const Value* data = r.Row(0).data();
  // A lone column needs no bounds: its ordered bits already are a 64-bit
  // key. Wider keys take one strided pass per column for its bounds.
  std::vector<uint64_t> lo(k, 0);
  std::vector<uint64_t> hi(k, ~uint64_t{0});
  if (k > 1) {
    for (size_t j = 0; j < k; ++j) {
      const Value* v = data + cols[j];
      uint64_t min = ~uint64_t{0};
      uint64_t max = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t x = OrderedBits(v[i * stride]);
        min = std::min(min, x);
        max = std::max(max, x);
      }
      lo[j] = min;
      hi[j] = max;
    }
  }
  const PackedKeyLayout layout(lo, hi);
  if (!layout.fits()) return false;

  std::vector<SortKey64>& keys = ctx.sort_keys64();
  keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i].key = 0;
    keys[i].idx = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j < k; ++j) {
    const PackedColumn c = layout.column(j);
    if (c.constant()) continue;
    const Value* v = data + cols[j];
    for (size_t i = 0; i < n; ++i) keys[i].key |= c.Pack(v[i * stride]);
  }
  if (n >= 256) {
    uint64_t varying = 0;
    for (const SortKey64& key : keys) varying |= key.key ^ keys[0].key;
    RadixSortKeys(keys, ctx.sort_keys64_tmp(), varying);
  } else {
    std::sort(keys.begin(), keys.end(),
              [](const SortKey64& x, const SortKey64& y) {
                if (x.key != y.key) return x.key < y.key;
                return x.idx < y.idx;
              });
  }
  for (size_t i = 0; i < n; ++i) perm[i] = keys[i].idx;
  return true;
}

}  // namespace

PackedKeyLayout::PackedKeyLayout(std::span<const uint64_t> lo,
                                 std::span<const uint64_t> hi)
    : columns_(lo.size()) {
  int total = 0;
  for (size_t j = lo.size(); j-- > 0;) {
    const int width = std::bit_width(hi[j] - lo[j]);
    PackedColumn& c = columns_[j];
    c.lo = lo[j];
    c.mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    c.shift = width == 0 ? 0 : total;
    total += width;
  }
  fits_ = total <= 64;
}

bool RowsSortedBy(const CountedRelation& r, std::span<const int> cols) {
  for (size_t i = 1; i < r.NumRows(); ++i) {
    if (CompareRowsAt(r.Row(i - 1), r.Row(i), cols) > 0) return false;
  }
  return true;
}

bool SortRowsBy(const CountedRelation& r, std::span<const int> cols,
                std::vector<uint32_t>& perm, ExecContext& ctx) {
  const size_t n = r.NumRows();
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (cols.empty() || RowsSortedBy(r, cols)) return true;
  if (SortRowsByPacked(r, cols, perm, ctx)) return false;

  // Wider keys (two or more columns, since one column always packs): the
  // first two key columns ride inline in a 128-bit key (sign-flipped so
  // unsigned comparison preserves int64 order); row data is only touched
  // again when a wider key ties on both.
  std::vector<SortKeyRef>& keys = ctx.sort_keys();
  keys.resize(n);
  const int c0 = cols[0];
  const int c1 = cols[1];
  for (size_t i = 0; i < n; ++i) {
    std::span<const Value> row = r.Row(i);
    const uint64_t hi = OrderedBits(row[static_cast<size_t>(c0)]);
    const uint64_t lo = OrderedBits(row[static_cast<size_t>(c1)]);
    keys[i].key = (static_cast<unsigned __int128>(hi) << 64) | lo;
    keys[i].idx = static_cast<uint32_t>(i);
  }

  // Which key bytes vary decides between radix (narrow domains: a few
  // linear passes) and introsort (wide domains or tiny inputs).
  unsigned __int128 varying = 0;
  for (const SortKeyRef& k : keys) varying |= k.key ^ keys[0].key;
  int varying_bytes = 0;
  for (int b = 0; b < 16; ++b) {
    if ((varying >> (8 * b)) & 0xff) ++varying_bytes;
  }
  const bool use_radix = n >= 256 && varying_bytes <= 10;
  std::span<const int> rest =
      cols.size() > 2 ? cols.subspan(2) : std::span<const int>{};

  if (use_radix) {
    RadixSortKeys(keys, ctx.sort_keys_tmp(), varying);
    if (!rest.empty()) {
      // Stable radix ordered ties by row index; re-sort each equal-key run
      // by the remaining columns.
      size_t begin = 0;
      while (begin < n) {
        size_t end = begin + 1;
        while (end < n && keys[end].key == keys[begin].key) ++end;
        if (end - begin > 1) {
          std::sort(keys.begin() + static_cast<ptrdiff_t>(begin),
                    keys.begin() + static_cast<ptrdiff_t>(end),
                    [&](const SortKeyRef& x, const SortKeyRef& y) {
                      const int cmp =
                          CompareRowsAt(r.Row(x.idx), r.Row(y.idx), rest);
                      if (cmp != 0) return cmp < 0;
                      return x.idx < y.idx;
                    });
        }
        begin = end;
      }
    }
  } else if (rest.empty()) {
    std::sort(keys.begin(), keys.end(),
              [](const SortKeyRef& x, const SortKeyRef& y) {
                if (x.key != y.key) return x.key < y.key;
                return x.idx < y.idx;
              });
  } else {
    std::sort(keys.begin(), keys.end(),
              [&](const SortKeyRef& x, const SortKeyRef& y) {
                if (x.key != y.key) return x.key < y.key;
                const int cmp = CompareRowsAt(r.Row(x.idx), r.Row(y.idx), rest);
                if (cmp != 0) return cmp < 0;
                return x.idx < y.idx;
              });
  }
  for (size_t i = 0; i < n; ++i) perm[i] = keys[i].idx;
  return false;
}

bool RowsUniqueOn(const CountedRelation& r, std::span<const int> cols,
                  ExecContext& ctx) {
  if (cols.empty()) return r.NumRows() <= 1;
  std::vector<uint32_t>& perm = ctx.norm_perm();
  SortRowsBy(r, cols, perm, ctx);
  for (size_t i = 1; i < perm.size(); ++i) {
    if (CompareRowsAt(r.Row(perm[i - 1]), r.Row(perm[i]), cols) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace lsens
