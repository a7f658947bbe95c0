#include "exec/join.h"

#include <algorithm>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_group_table.h"
#include "exec/row_sort.h"

namespace lsens {

namespace {

// Join outputs at least this large are reserved incrementally (vector
// doubling) instead of up front, bounding a single pre-allocation.
constexpr size_t kMaxReserveRows = size_t{1} << 22;

// Probe sides smaller than this are never worth fanning out: the emit loop
// is a few ns per row, so below this the pool handoff dominates.
constexpr size_t kParallelProbeMinRows = 4096;

// Precomputed column routing for one join: where each output column comes
// from, and where the key columns live on each side.
struct JoinLayout {
  AttributeSet out_attrs;
  AttributeSet key;
  std::vector<int> a_key_cols;
  std::vector<int> b_key_cols;
  // For each output column: pair (side, column). side 0 = a, 1 = b.
  std::vector<std::pair<int, int>> out_src;
};

JoinLayout MakeLayout(const CountedRelation& a, const CountedRelation& b) {
  JoinLayout layout;
  layout.out_attrs = Union(a.attrs(), b.attrs());
  layout.key = Intersect(a.attrs(), b.attrs());
  for (AttrId attr : layout.key) {
    layout.a_key_cols.push_back(a.ColumnOf(attr));
    layout.b_key_cols.push_back(b.ColumnOf(attr));
  }
  for (AttrId attr : layout.out_attrs) {
    int ca = a.ColumnOf(attr);
    if (ca >= 0) {
      layout.out_src.emplace_back(0, ca);
    } else {
      layout.out_src.emplace_back(1, b.ColumnOf(attr));
    }
  }
  return layout;
}

// `scratch` must be pre-sized to layout.out_src.size().
void EmitRow(const JoinLayout& layout, std::span<const Value> ra,
             std::span<const Value> rb, Count count, CountedRelation* out,
             std::vector<Value>& scratch) {
  for (size_t i = 0; i < layout.out_src.size(); ++i) {
    const auto& [side, col] = layout.out_src[i];
    scratch[i] = (side == 0) ? ra[static_cast<size_t>(col)]
                             : rb[static_cast<size_t>(col)];
  }
  out->AppendRow(scratch, count);
}

// Join where `b` carries a default and b.attrs ⊆ a.attrs: every a-row
// survives, multiplied by its b-match count or b's default. The match
// lookup runs over a flat hash-group table on `b` instead of a per-row
// binary search.
CountedRelation JoinWithDefault(const CountedRelation& a,
                                const CountedRelation& b, ExecContext& ctx) {
  LSENS_CHECK(IsSubset(b.attrs(), a.attrs()));
  OpTimer op(ctx, "join.default", a.NumRows() + b.NumRows());
  op.set_build_rows(b.NumRows());
  JoinLayout layout = MakeLayout(a, b);  // out_attrs == a.attrs()

  FlatGroupTable& table = ctx.group_table();
  std::vector<int>& b_all_cols = ctx.col_buf();
  b_all_cols.resize(b.arity());
  for (size_t c = 0; c < b.arity(); ++c) b_all_cols[c] = static_cast<int>(c);
  table.Build(b, b_all_cols);
  // The probe side's key hashes in one column-batch pass, reused per row.
  std::vector<uint64_t>& probe_hashes = ctx.hash_buf();
  HashRowKeysBatch(a, layout.a_key_cols, ctx.gather_buf(), probe_hashes);

  CountedRelation out(layout.out_attrs);
  out.Reserve(a.NumRows());
  for (size_t i = 0; i < a.NumRows(); ++i) {
    std::span<const Value> row = a.Row(i);
    Count multiplier = Count::Zero();
    std::span<const uint32_t> run =
        table.Probe(row, layout.a_key_cols, probe_hashes[i]);
    if (run.empty()) {
      multiplier = b.default_count();
    } else {
      for (uint32_t r : run) multiplier += b.CountAt(r);
    }
    Count c = a.CountAt(i) * multiplier;
    if (!c.IsZero()) out.AppendRow(row, c);
  }
  out.MarkUnique();  // a subset of a's unique rows, in a's order
  op.set_rows_out(out.NumRows());
  return out;
}

CountedRelation CrossProduct(const CountedRelation& a,
                             const CountedRelation& b, ExecContext& ctx) {
  OpTimer op(ctx, "join.cross", a.NumRows() + b.NumRows());
  JoinLayout layout = MakeLayout(a, b);
  CountedRelation out(layout.out_attrs);
  const size_t na = a.NumRows();
  const size_t nb = b.NumRows();
  // na * nb can wrap size_t before Reserve ever sees it; a product that
  // large cannot be materialized anyway, so fail loudly instead.
  LSENS_CHECK_MSG(nb == 0 || na <= SIZE_MAX / nb,
                  "cross product row count overflows size_t");
  out.Reserve(std::min(na * nb, kMaxReserveRows));
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      EmitRow(layout, a.Row(i), b.Row(j), a.CountAt(i) * b.CountAt(j), &out,
              scratch);
    }
  }
  out.MarkUnique();
  op.set_rows_out(out.NumRows());
  return out;
}

// Sums the probe-side run sizes against `table` — the exact pre-merge join
// cardinality in O(|probe|). Large probes are chunk-summed on the pool;
// partial sums are added in chunk order, so the total is exact and
// deterministic either way.
size_t ProbeTotalRows(const FlatGroupTable& table, const CountedRelation& probe,
                      std::span<const int> probe_cols,
                      std::span<const uint64_t> probe_hashes, ExecContext& ctx,
                      int threads) {
  const size_t n = probe.NumRows();
  if (ShouldRunParallel(threads, n) && n >= kParallelProbeMinRows) {
    const size_t parts = static_cast<size_t>(threads);
    std::vector<size_t> partial(parts, 0);
    ParallelApply(ctx, threads, parts, [&](size_t p, ExecContext&) {
      const size_t begin = p * n / parts;
      const size_t end = (p + 1) * n / parts;
      size_t sum = 0;
      for (size_t j = begin; j < end; ++j) {
        sum += table.Probe(probe.Row(j), probe_cols, probe_hashes[j]).size();
      }
      partial[p] = sum;
    });
    size_t total = 0;
    for (size_t s : partial) total += s;
    return total;
  }
  size_t total = 0;
  for (size_t j = 0; j < n; ++j) {
    total += table.Probe(probe.Row(j), probe_cols, probe_hashes[j]).size();
  }
  return total;
}

// Builds ctx.group_table() on the smaller side (`a` if `build_a`),
// batch-hashes the other side's keys into ctx.hash_buf() (one column pass,
// reused per row by every later probe), and returns the exact pre-merge
// join cardinality. Runs are key-verified, so the count is exact even
// under hash collisions.
size_t BuildAndCount(const CountedRelation& a, const CountedRelation& b,
                     const JoinLayout& layout, bool build_a, ExecContext& ctx,
                     int threads) {
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& probe_cols =
      build_a ? layout.b_key_cols : layout.a_key_cols;
  ctx.group_table().Build(build_a ? a : b,
                          build_a ? layout.a_key_cols : layout.b_key_cols);
  HashRowKeysBatch(probe, probe_cols, ctx.gather_buf(), ctx.hash_buf());
  return ProbeTotalRows(ctx.group_table(), probe, probe_cols, ctx.hash_buf(),
                        ctx, threads);
}

// Hash join: a flat group table on the smaller side, probed by the larger.
// A counting probe first takes the exact output size, which sizes the
// Reserve — cheaper than the reallocation doublings it replaces on
// expanding joins. Output rows come in probe-row order, and within one
// probe row in ascending build-row order (the table's runs ascend).
//
// With threads > 1 and a probe side past kParallelProbeMinRows the probe
// is partitioned into `threads` contiguous row ranges fanned out over the
// global pool: each partition probes the shared read-only table and emits
// into its own relation (scratch from its worker context), and the parts
// are concatenated in partition order. That is exactly the serial output,
// row for row, so it — and the one recorded "join.hash" stats row — is
// bit-identical to serial.
CountedRelation HashJoin(const CountedRelation& a, const CountedRelation& b,
                         const JoinLayout& layout, ExecContext& ctx,
                         int threads) {
  const bool build_a = a.NumRows() < b.NumRows();
  const CountedRelation& build = build_a ? a : b;
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& probe_cols =
      build_a ? layout.b_key_cols : layout.a_key_cols;

  OpTimer op(ctx, "join.hash", a.NumRows() + b.NumRows());
  op.set_build_rows(build.NumRows());
  const size_t est_rows = BuildAndCount(a, b, layout, build_a, ctx, threads);
  const FlatGroupTable& table = ctx.group_table();
  std::span<const uint64_t> probe_hashes = ctx.hash_buf();
  const size_t n = probe.NumRows();

  auto probe_range = [&](size_t begin, size_t end, CountedRelation* out,
                         std::vector<Value>& scratch) {
    scratch.resize(layout.out_src.size());
    for (size_t j = begin; j < end; ++j) {
      std::span<const Value> pr = probe.Row(j);
      for (uint32_t i : table.Probe(pr, probe_cols, probe_hashes[j])) {
        std::span<const Value> br = build.Row(i);
        std::span<const Value> ra = build_a ? br : pr;
        std::span<const Value> rb = build_a ? pr : br;
        EmitRow(layout, ra, rb, build.CountAt(i) * probe.CountAt(j), out,
                scratch);
      }
    }
  };

  if (ShouldRunParallel(threads, n) && n >= kParallelProbeMinRows) {
    const size_t parts = static_cast<size_t>(threads);
    std::vector<CountedRelation> outputs;
    outputs.reserve(parts);
    for (size_t p = 0; p < parts; ++p) outputs.emplace_back(layout.out_attrs);
    ParallelApply(ctx, threads, parts, [&](size_t p, ExecContext& wctx) {
      const size_t begin = p * n / parts;
      const size_t end = (p + 1) * n / parts;
      outputs[p].Reserve(std::min(est_rows / parts + 1, kMaxReserveRows));
      probe_range(begin, end, &outputs[p], wctx.row_buf());
    });
    CountedRelation out = std::move(outputs[0]);
    // One growth to the exact pre-merge size up front, so the concat loop
    // never reallocates its way from est_rows/parts to est_rows.
    out.Reserve(std::min(est_rows, kMaxReserveRows));
    for (size_t p = 1; p < parts; ++p) out.AppendRows(outputs[p]);
    out.MarkUnique();
    op.set_rows_out(out.NumRows());
    return out;
  }

  CountedRelation out(layout.out_attrs);
  out.Reserve(std::min(est_rows, kMaxReserveRows));
  probe_range(0, n, &out, ctx.row_buf());
  out.MarkUnique();
  op.set_rows_out(out.NumRows());
  return out;
}

CountedRelation SortMergeJoin(const CountedRelation& a,
                              const CountedRelation& b,
                              const JoinLayout& layout, ExecContext& ctx) {
  OpTimer op(ctx, "join.sort_merge", a.NumRows() + b.NumRows());
  std::vector<uint32_t>& pa = ctx.perm_a();
  std::vector<uint32_t>& pb = ctx.perm_b();
  SortRowsBy(a, layout.a_key_cols, pa, ctx);
  SortRowsBy(b, layout.b_key_cols, pb, ctx);

  auto key_cmp = [&](std::span<const Value> ra, std::span<const Value> rb) {
    for (size_t i = 0; i < layout.a_key_cols.size(); ++i) {
      Value va = ra[static_cast<size_t>(layout.a_key_cols[i])];
      Value vb = rb[static_cast<size_t>(layout.b_key_cols[i])];
      if (va < vb) return -1;
      if (va > vb) return 1;
    }
    return 0;
  };

  CountedRelation out(layout.out_attrs);
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  size_t i = 0;
  size_t j = 0;
  while (i < pa.size() && j < pb.size()) {
    int cmp = key_cmp(a.Row(pa[i]), b.Row(pb[j]));
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      // Find the group extents on both sides.
      size_t i_end = i + 1;
      while (i_end < pa.size() && key_cmp(a.Row(pa[i_end]), b.Row(pb[j])) == 0)
        ++i_end;
      size_t j_end = j + 1;
      while (j_end < pb.size() && key_cmp(a.Row(pa[i]), b.Row(pb[j_end])) == 0)
        ++j_end;
      for (size_t x = i; x < i_end; ++x) {
        for (size_t y = j; y < j_end; ++y) {
          EmitRow(layout, a.Row(pa[x]), b.Row(pb[y]),
                  a.CountAt(pa[x]) * b.CountAt(pb[y]), &out, scratch);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  out.MarkUnique();
  op.set_rows_out(out.NumRows());
  return out;
}

}  // namespace

CountedRelation NaturalJoin(const CountedRelation& a, const CountedRelation& b,
                            const JoinOptions& options) {
  // O(1): the kernels emit one row per matching input pair and never merge,
  // so a raw input's duplicates would leak into the output.
  LSENS_CHECK_MSG(a.unique() && b.unique(),
                  "NaturalJoin inputs must be unique (Normalize raw rows)");
  ExecContext& ctx = ResolveExecContext(options.ctx);
  // Defaulted sides: route through the covering-join path.
  if (a.has_default() || b.has_default()) {
    LSENS_CHECK_MSG(!(a.has_default() && b.has_default()),
                    "at most one defaulted side per join");
    if (b.has_default()) {
      LSENS_CHECK_MSG(IsSubset(b.attrs(), a.attrs()),
                      "defaulted side must be attribute-covered by the other");
      return JoinWithDefault(a, b, ctx);
    }
    LSENS_CHECK_MSG(IsSubset(a.attrs(), b.attrs()),
                    "defaulted side must be attribute-covered by the other");
    return JoinWithDefault(b, a, ctx);
  }

  JoinLayout layout = MakeLayout(a, b);
  if (layout.key.empty()) return CrossProduct(a, b, ctx);
  bool merge = options.algorithm == JoinAlgorithm::kSortMerge;
  if (options.algorithm == JoinAlgorithm::kAuto) {
    // Two sides already ordered on the key merge in one linear pass, with
    // no sort and no table build; anything else hashes.
    merge = RowsSortedBy(a, layout.a_key_cols) &&
            RowsSortedBy(b, layout.b_key_cols);
  }
  if (merge) return SortMergeJoin(a, b, layout, ctx);
  return HashJoin(a, b, layout, ctx, options.threads);
}

size_t EstimateJoinRows(const CountedRelation& a, const CountedRelation& b,
                        ExecContext* ctx_in, int threads) {
  JoinLayout layout = MakeLayout(a, b);
  if (layout.key.empty()) return a.NumRows() * b.NumRows();
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "estimate_join_rows", a.NumRows() + b.NumRows());
  const bool build_a = a.NumRows() < b.NumRows();
  op.set_build_rows(std::min(a.NumRows(), b.NumRows()));
  const size_t total = BuildAndCount(a, b, layout, build_a, ctx, threads);
  op.set_rows_out(total);
  return total;
}

}  // namespace lsens
