#include "query/atom_scan.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "exec/exec_context.h"
#include "exec/row_sort.h"

namespace lsens {

CountedRelation ScanAtom(const Relation& rel, const Atom& atom,
                         const AttributeSet& keep, ExecContext* ctx_in) {
  LSENS_CHECK(atom.vars.size() == rel.arity());
  LSENS_CHECK_MSG(IsSubset(keep, atom.VarSet()),
                  "projection must keep a subset of the atom's variables");
  // Column positions: keep[j] lives at rel column keep_cols[j]; predicates
  // evaluate against pred_cols[p]. Resolving them here keeps the per-column
  // loops free of invariant checks.
  std::vector<size_t> keep_cols(keep.size());
  for (size_t j = 0; j < keep.size(); ++j) {
    size_t col = 0;
    while (atom.vars[col] != keep[j]) ++col;
    keep_cols[j] = col;
  }
  std::vector<size_t> pred_cols(atom.predicates.size());
  for (size_t p = 0; p < atom.predicates.size(); ++p) {
    size_t col = 0;
    while (atom.vars[col] != atom.predicates[p].var) ++col;
    pred_cols[p] = col;
  }

  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "scan", 0);
  const size_t n = rel.NumRows();

  // Selection runs column-at-a-time, a chunk at a time: the first
  // predicate scans its column and collects passing row indices, each
  // further predicate compacts the survivor list against its own column.
  // No row tuple is materialized.
  std::vector<uint32_t>& sel = ctx.sel_buf();
  const bool all_rows = atom.predicates.empty();
  size_t n_sel = n;
  if (!all_rows) {
    sel.clear();
    sel.reserve(n);
    {
      const ChunkedColumn col = rel.Chunks(pred_cols[0]);
      const Predicate& pred = atom.predicates[0];
      for (size_t k = 0; k < col.num_chunks(); ++k) {
        std::span<const Value> chunk = col.chunk(k);
        const size_t base = k * kChunkRows;
        for (size_t i = 0; i < chunk.size(); ++i) {
          if (pred.Eval(chunk[i])) {
            sel.push_back(static_cast<uint32_t>(base + i));
          }
        }
      }
    }
    for (size_t p = 1; p < atom.predicates.size(); ++p) {
      const ChunkedColumn col = rel.Chunks(pred_cols[p]);
      const Predicate& pred = atom.predicates[p];
      size_t write = 0;
      for (uint32_t idx : sel) {
        if (pred.Eval(col[idx])) sel[write++] = idx;
      }
      sel.resize(write);
    }
    n_sel = sel.size();
  }
  op.set_rows_in(n_sel);
  CountedRelation out(keep);
  if (n_sel == 0) return out;

  // fn(i, v) for the value v of the i-th selected row of `col`.
  auto for_each_selected = [&](const ChunkedColumn& col, auto&& fn) {
    if (all_rows) {
      for (size_t ch = 0; ch < col.num_chunks(); ++ch) {
        std::span<const Value> chunk = col.chunk(ch);
        const size_t base = ch * kChunkRows;
        for (size_t i = 0; i < chunk.size(); ++i) fn(base + i, chunk[i]);
      }
    } else {
      for (size_t i = 0; i < n_sel; ++i) fn(i, col[sel[i]]);
    }
  };

  const size_t k = keep.size();
  if (k == 1) {
    // One kept column whose selected values strictly increase — a key
    // column stored in order, such as q2's Part(PK) — already is the
    // output, each value with count 1: one read pass checks the order (up
    // to the first value out of it) and one copies, and the pack, sort,
    // run and decode passes are skipped.
    const ChunkedColumn col = rel.Chunks(keep_cols[0]);
    auto increasing = [&] {
      if (!all_rows) {
        for (size_t i = 1; i < n_sel; ++i) {
          if (col[sel[i - 1]] >= col[sel[i]]) return false;
        }
        return true;
      }
      const Value* prev = nullptr;
      for (size_t ch = 0; ch < col.num_chunks(); ++ch) {
        for (const Value& v : col.chunk(ch)) {
          if (prev != nullptr && *prev >= v) return false;
          prev = &v;
        }
      }
      return true;
    };
    if (increasing()) {
      Value* dst = out.AppendRowsRaw(n_sel, Count::One()).values.data();
      for_each_selected(col, [&](size_t i, Value v) { dst[i] = v; });
      out.MarkUnique();
      op.set_rows_out(n_sel);
      return out;
    }
  }

  // Each selected row's kept values pack into one 64-bit key when the
  // columns' ranges fit together (PackedKeyLayout). The key is the row, so
  // sorting the keys and counting runs of equal ones groups the rows.
  const PackedKeyLayout layout(k, [&](size_t j) {
    uint64_t min = ~uint64_t{0};
    uint64_t max = 0;
    for_each_selected(rel.Chunks(keep_cols[j]), [&](size_t, Value v) {
      const uint64_t x = OrderedBits(v);
      min = std::min(min, x);
      max = std::max(max, x);
    });
    return std::pair{min, max};
  });

  if (!layout.fits()) {
    // Wider keys: project row-major, one chunk-wise (or selection-gathered)
    // read of each kept column scattered at stride k, and normalize.
    std::span<Value> dst = out.AppendRowsRaw(n_sel, Count::One()).values;
    for (size_t j = 0; j < k; ++j) {
      Value* d = dst.data() + j;
      for_each_selected(rel.Chunks(keep_cols[j]),
                        [&](size_t i, Value v) { d[i * k] = v; });
    }
    out.Normalize(&ctx);
    op.set_rows_out(out.NumRows());
    return out;
  }

  std::vector<uint64_t>& keys = ctx.packed_keys();
  keys.assign(n_sel, 0);
  for (size_t j = 0; j < k; ++j) {
    const PackedColumn c = layout.column(j);
    if (c.constant()) continue;
    for_each_selected(rel.Chunks(keep_cols[j]),
                      [&](size_t i, Value v) { keys[i] |= c.Pack(v); });
  }
  SortPackedKeys(keys, ctx.packed_keys_tmp());
  size_t distinct = 1;
  for (size_t i = 1; i < n_sel; ++i) distinct += keys[i - 1] != keys[i];

  // One run-length pass: each run of equal keys is one output row, decoded
  // in place, whose count is the run's length.
  const CountedRelation::RawRows dst =
      out.AppendRowsRaw(distinct, Count::Zero());
  size_t begin = 0;
  for (size_t row = 0; row < distinct; ++row) {
    const uint64_t key = keys[begin];
    size_t end = begin + 1;
    while (end < n_sel && keys[end] == key) ++end;
    Value* values = dst.values.data() + row * k;
    for (size_t j = 0; j < k; ++j) values[j] = layout.column(j).Unpack(key);
    dst.counts[row] = Count(end - begin);
    begin = end;
  }
  out.MarkUnique();
  op.set_rows_out(distinct);
  return out;
}

}  // namespace lsens
