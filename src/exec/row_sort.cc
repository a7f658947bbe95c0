#include "exec/row_sort.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "exec/exec_context.h"

namespace lsens {

namespace {

uint64_t RadixKey(uint64_t e) { return e; }
uint64_t RadixKey(const SortKey64& e) { return e.key; }

// SortPackedKeys for either element type. SortKey64 elements arrive in
// index order, so every branch leaves equal keys by index.
template <typename Elem>
void SortKeys(std::vector<Elem>& keys, std::vector<Elem>& tmp) {
  const size_t n = keys.size();
  bool ordered = true;
  uint64_t varying = 0;  // the OR of every key XOR the first
  for (size_t i = 1; i < n; ++i) {
    ordered &= RadixKey(keys[i - 1]) <= RadixKey(keys[i]);
    varying |= RadixKey(keys[i]) ^ RadixKey(keys[0]);
  }
  if (ordered) return;
  if (n < 256) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // One stable counting pass per key byte that varies.
  tmp.resize(n);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t count[256] = {};
    for (const Elem& e : keys) ++count[(RadixKey(e) >> shift) & 0xff];
    size_t pos[256];
    size_t run = 0;
    for (size_t i = 0; i < 256; ++i) {
      pos[i] = run;
      run += count[i];
    }
    for (const Elem& e : keys) tmp[pos[(RadixKey(e) >> shift) & 0xff]++] = e;
    keys.swap(tmp);
  }
}

}  // namespace

PackedKeyLayout::PackedKeyLayout(
    size_t k,
    const std::function<std::pair<uint64_t, uint64_t>(size_t)>& bounds)
    : columns_(k) {
  int total = 0;
  for (size_t j = k; j-- > 0;) {
    const auto [lo, hi] =
        k == 1 ? std::pair{uint64_t{0}, ~uint64_t{0}} : bounds(j);
    const int width = std::bit_width(hi - lo);
    PackedColumn& c = columns_[j];
    c.lo = lo;
    c.mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    c.shift = width == 0 ? 0 : total;
    total += width;
  }
  fits_ = total <= 64;
}

void SortPackedKeys(std::vector<uint64_t>& keys, std::vector<uint64_t>& tmp) {
  SortKeys(keys, tmp);
}

void SortPackedKeys(std::vector<SortKey64>& keys,
                    std::vector<SortKey64>& tmp) {
  SortKeys(keys, tmp);
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

  const size_t stride = r.arity();
  const Value* data = r.Row(0).data();
  const PackedKeyLayout layout(cols.size(), [&](size_t j) {
    const Value* v = data + cols[j];
    uint64_t min = ~uint64_t{0};
    uint64_t max = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = OrderedBits(v[i * stride]);
      min = std::min(min, x);
      max = std::max(max, x);
    }
    return std::pair{min, max};
  });
  if (!layout.fits()) {
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
      return CompareRowsAt(r.Row(x), r.Row(y), cols) < 0;
    });
    return false;
  }

  std::vector<SortKey64>& keys = ctx.sort_keys64();
  keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i].key = 0;
    keys[i].idx = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j < cols.size(); ++j) {
    const PackedColumn c = layout.column(j);
    if (c.constant()) continue;
    const Value* v = data + cols[j];
    for (size_t i = 0; i < n; ++i) keys[i].key |= c.Pack(v[i * stride]);
  }
  SortKeys(keys, ctx.sort_keys64_tmp());
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
