#include "query/atom_scan.h"

#include <span>
#include <vector>

#include "common/macros.h"
#include "exec/exec_context.h"

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

  // Projection fills the output column by column: one chunk-wise (or
  // selection-gathered) read of each kept source column, scattered into
  // the row-major CountedRelation at stride k.
  CountedRelation out(keep);
  const size_t k = keep.size();
  std::span<Value> dst = out.AppendRowsRaw(n_sel, Count::One());
  for (size_t j = 0; j < k; ++j) {
    const ChunkedColumn col = rel.Chunks(keep_cols[j]);
    Value* d = dst.data() + j;
    if (all_rows) {
      for (size_t ch = 0; ch < col.num_chunks(); ++ch) {
        std::span<const Value> chunk = col.chunk(ch);
        Value* to = d + ch * kChunkRows * k;
        for (size_t i = 0; i < chunk.size(); ++i) to[i * k] = chunk[i];
      }
    } else {
      for (size_t i = 0; i < n_sel; ++i) d[i * k] = col[sel[i]];
    }
  }
  out.Normalize(&ctx);
  return out;
}

}  // namespace lsens
