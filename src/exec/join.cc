#include "exec/join.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
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

// Calls emit(ra, rb, count) for every pair of rows, a's rows outer.
template <typename Emit>
void ForEachCrossPair(const CountedRelation& a, const CountedRelation& b,
                      Emit&& emit) {
  for (size_t i = 0; i < a.NumRows(); ++i) {
    for (size_t j = 0; j < b.NumRows(); ++j) {
      emit(a.Row(i), b.Row(j), a.CountAt(i) * b.CountAt(j));
    }
  }
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
  ForEachCrossPair(
      a, b,
      [&](std::span<const Value> ra, std::span<const Value> rb, Count c) {
        EmitRow(layout, ra, rb, c, &out, scratch);
      });
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

// Builds ctx.group_table() on `a` if `build_a`, else on `b`, and
// batch-hashes the other side's keys into ctx.hash_buf() (one column pass,
// reused per row by every later probe).
void BuildAndHash(const CountedRelation& a, const CountedRelation& b,
                  const JoinLayout& layout, bool build_a, ExecContext& ctx) {
  ctx.group_table().Build(build_a ? a : b,
                          build_a ? layout.a_key_cols : layout.b_key_cols);
  HashRowKeysBatch(build_a ? b : a,
                   build_a ? layout.b_key_cols : layout.a_key_cols,
                   ctx.gather_buf(), ctx.hash_buf());
}

// The exact pre-merge join cardinality of a table built by BuildAndHash.
// Runs are key-verified, so the count is exact even under hash collisions.
size_t CountMatches(const CountedRelation& a, const CountedRelation& b,
                    const JoinLayout& layout, bool build_a, ExecContext& ctx,
                    int threads) {
  return ProbeTotalRows(ctx.group_table(), build_a ? b : a,
                        build_a ? layout.b_key_cols : layout.a_key_cols,
                        ctx.hash_buf(), ctx, threads);
}

// Calls emit(ra, rb, count) for every match of probe rows [begin, end)
// against the table and probe hashes BuildAndHash left in `ctx`, which
// are only read (partitions probe them concurrently): probe rows in order,
// within one in ascending build-row order (the table's runs ascend).
template <typename Emit>
void ForEachHashMatch(const CountedRelation& a, const CountedRelation& b,
                      const JoinLayout& layout, bool build_a,
                      ExecContext& ctx, size_t begin, size_t end,
                      Emit&& emit) {
  const CountedRelation& build = build_a ? a : b;
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& probe_cols =
      build_a ? layout.b_key_cols : layout.a_key_cols;
  const FlatGroupTable& table = ctx.group_table();
  const std::vector<uint64_t>& probe_hashes = ctx.hash_buf();
  for (size_t j = begin; j < end; ++j) {
    std::span<const Value> pr = probe.Row(j);
    for (uint32_t i : table.Probe(pr, probe_cols, probe_hashes[j])) {
      std::span<const Value> br = build.Row(i);
      emit(build_a ? br : pr, build_a ? pr : br,
           build.CountAt(i) * probe.CountAt(j));
    }
  }
}

// True when a hash kernel's probe of `n` rows fans out over the pool.
bool ParallelProbe(int threads, size_t n) {
  return ShouldRunParallel(threads, n) && n >= kParallelProbeMinRows;
}

// Hash join: a flat group table on the smaller side, probed by the larger.
// The output is reserved up front. When the key covers every build
// attribute, each probe row matches at most one build row (inputs are
// unique), so the probe side's size bounds it; otherwise a counting probe
// takes the exact size, cheaper than the reallocation doublings it
// replaces on expanding joins. Output rows come in ForEachHashMatch order.
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
  OpTimer op(ctx, "join.hash", a.NumRows() + b.NumRows());
  op.set_build_rows(build_a ? a.NumRows() : b.NumRows());
  BuildAndHash(a, b, layout, build_a, ctx);
  const size_t n = build_a ? b.NumRows() : a.NumRows();
  const size_t est_rows =
      layout.key.size() == (build_a ? a : b).arity()
          ? n
          : CountMatches(a, b, layout, build_a, ctx, threads);

  auto probe_range = [&](size_t begin, size_t end, CountedRelation* out,
                         std::vector<Value>& scratch) {
    scratch.resize(layout.out_src.size());
    ForEachHashMatch(
        a, b, layout, build_a, ctx, begin, end,
        [&](std::span<const Value> ra, std::span<const Value> rb, Count c) {
          EmitRow(layout, ra, rb, c, out, scratch);
        });
  };

  if (ParallelProbe(threads, n)) {
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
    // One growth to the full size up front, so the concat loop never
    // reallocates its way from est_rows/parts to est_rows.
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

// Sorts both sides by the key (SortRowsBy; perm_a/perm_b from `ctx`) and
// calls emit(ra, rb, count) for every match, in key order: within one key,
// a's rows outer, each side in sorted order.
template <typename Emit>
void ForEachMergeMatch(const CountedRelation& a, const CountedRelation& b,
                       const JoinLayout& layout, ExecContext& ctx,
                       Emit&& emit) {
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
          emit(a.Row(pa[x]), b.Row(pb[y]), a.CountAt(pa[x]) * b.CountAt(pb[y]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

CountedRelation SortMergeJoin(const CountedRelation& a,
                              const CountedRelation& b,
                              const JoinLayout& layout, ExecContext& ctx) {
  OpTimer op(ctx, "join.sort_merge", a.NumRows() + b.NumRows());
  CountedRelation out(layout.out_attrs);
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  ForEachMergeMatch(
      a, b, layout, ctx,
      [&](std::span<const Value> ra, std::span<const Value> rb, Count c) {
        EmitRow(layout, ra, rb, c, &out, scratch);
      });
  out.MarkUnique();
  op.set_rows_out(out.NumRows());
  return out;
}

// The kernel NaturalJoin runs for a shared key: sort-merge when forced, or
// under kAuto when both sides are already ordered on the key (one linear
// merge, no sort and no table build); hash otherwise.
bool UseSortMerge(const CountedRelation& a, const CountedRelation& b,
                  const JoinLayout& layout, JoinAlgorithm algorithm) {
  if (algorithm == JoinAlgorithm::kAuto) {
    return RowsSortedBy(a, layout.a_key_cols) &&
           RowsSortedBy(b, layout.b_key_cols);
  }
  return algorithm == JoinAlgorithm::kSortMerge;
}

// --- Fused join-group-by ------------------------------------------------

// One group column of γ_G(a ⋈ b): the side it is read from (0 = a,
// 1 = b), its column there, and its field of the packed group key.
struct GroupColumn {
  int side = 0;
  size_t col = 0;
  PackedColumn field;
};

// The packed group key of one matching pair.
uint64_t PackGroupKey(std::span<const GroupColumn> group,
                      std::span<const Value> ra, std::span<const Value> rb) {
  uint64_t key = 0;
  for (const GroupColumn& g : group) {
    key |= g.field.Pack((g.side == 0 ? ra : rb)[g.col]);
  }
  return key;
}

// The fused kernel's join output under construction: per run of
// consecutive matches with equal group keys, the key (indexing its count)
// and the run's summed count. The matches of one probe row share their key
// whenever the group's columns lie on the probe side or in the join key,
// so there are far fewer runs than matches; the sums are order-free.
struct GroupRuns {
  std::vector<SortKey64> keys;
  std::vector<Count> counts;
  size_t matches = 0;

  void Add(uint64_t key, Count count) {
    ++matches;
    if (!keys.empty() && keys.back().key == key) {
      counts.back() += count;
      return;
    }
    // Indices are 32-bit, as SortKey64's are.
    LSENS_CHECK_MSG(counts.size() < UINT32_MAX,
                    "fused join-group-by is limited to 2^32-1 runs");
    keys.push_back({key, static_cast<uint32_t>(counts.size())});
    counts.push_back(count);
  }
};

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
  if (UseSortMerge(a, b, layout, options.algorithm)) {
    return SortMergeJoin(a, b, layout, ctx);
  }
  return HashJoin(a, b, layout, ctx, options.threads);
}

CountedRelation JoinGroupBySum(const CountedRelation& a,
                               const CountedRelation& b,
                               const AttributeSet& group,
                               const JoinOptions& options) {
  LSENS_CHECK_MSG(a.unique() && b.unique(),
                  "NaturalJoin inputs must be unique (Normalize raw rows)");
  ExecContext& ctx = ResolveExecContext(options.ctx);
  const JoinLayout layout = MakeLayout(a, b);
  LSENS_CHECK(IsSubset(group, layout.out_attrs));
  // A defaulted side needs the covering join's unmatched-row default, and
  // a group wider than 64 bits has no packed key: both build the join.
  auto build_and_group = [&] {
    return GroupBySum(NaturalJoin(a, b, options), group, &ctx);
  };
  if (a.has_default() || b.has_default()) return build_and_group();

  // Each group column is read from `a` when `a` has it, and packs over the
  // range of its values there: matches only carry values of that side.
  std::vector<GroupColumn> cols;
  cols.reserve(group.size());
  for (AttrId attr : group) {
    const int ca = a.ColumnOf(attr);
    const int side = ca >= 0 ? 0 : 1;
    cols.push_back({side, static_cast<size_t>(ca >= 0 ? ca : b.ColumnOf(attr)),
                    PackedColumn{}});
  }
  const PackedKeyLayout packing(group.size(), [&](size_t j) {
    const CountedRelation& side = cols[j].side == 0 ? a : b;
    uint64_t min = ~uint64_t{0};
    uint64_t max = 0;
    for (size_t i = 0; i < side.NumRows(); ++i) {
      const uint64_t x = OrderedBits(side.Row(i)[cols[j].col]);
      min = std::min(min, x);
      max = std::max(max, x);
    }
    return std::pair{min, max};
  });
  if (!packing.fits()) return build_and_group();
  for (size_t j = 0; j < cols.size(); ++j) cols[j].field = packing.column(j);

  // The join: every matching pair's packed group key and product count,
  // summed into runs, recorded under the kernel NaturalJoin would have run
  // with rows_out = the matches. The runs are this call's own buffers,
  // grown as they fill: arena slots would keep their largest capacity in
  // every worker context, which raised peak memory more than it saved.
  GroupRuns runs;
  auto add_to = [&cols](GroupRuns& r) {
    return [&cols, &r](std::span<const Value> ra, std::span<const Value> rb,
                       Count count) {
      r.Add(PackGroupKey(cols, ra, rb), count);
    };
  };
  const uint64_t rows_in = a.NumRows() + b.NumRows();
  if (layout.key.empty()) {
    OpTimer op(ctx, "join.cross", rows_in);
    ForEachCrossPair(a, b, add_to(runs));
    op.set_rows_out(runs.matches);
  } else if (UseSortMerge(a, b, layout, options.algorithm)) {
    OpTimer op(ctx, "join.sort_merge", rows_in);
    ForEachMergeMatch(a, b, layout, ctx, add_to(runs));
    op.set_rows_out(runs.matches);
  } else {
    // HashJoin's build and (partitioned) probe. Each partition sums into
    // runs of its own, concatenated in partition order, count indices
    // rebased.
    const bool build_a = a.NumRows() < b.NumRows();
    OpTimer op(ctx, "join.hash", rows_in);
    op.set_build_rows(build_a ? a.NumRows() : b.NumRows());
    BuildAndHash(a, b, layout, build_a, ctx);
    const size_t n = build_a ? b.NumRows() : a.NumRows();
    if (ParallelProbe(options.threads, n)) {
      const size_t parts = static_cast<size_t>(options.threads);
      std::vector<GroupRuns> part_runs(parts);
      ParallelApply(ctx, options.threads, parts, [&](size_t p, ExecContext&) {
        ForEachHashMatch(a, b, layout, build_a, ctx, p * n / parts,
                         (p + 1) * n / parts, add_to(part_runs[p]));
      });
      for (const GroupRuns& part : part_runs) {
        const size_t offset = runs.counts.size();
        LSENS_CHECK_MSG(offset + part.counts.size() < UINT32_MAX,
                        "fused join-group-by is limited to 2^32-1 runs");
        for (const SortKey64& e : part.keys) {
          runs.keys.push_back({e.key, e.idx + static_cast<uint32_t>(offset)});
        }
        runs.counts.insert(runs.counts.end(), part.counts.begin(),
                           part.counts.end());
        runs.matches += part.matches;
      }
    } else {
      ForEachHashMatch(a, b, layout, build_a, ctx, 0, n, add_to(runs));
    }
    op.set_rows_out(runs.matches);
  }

  // γ: the runs sorted by key (nothing to do when they arrive in order),
  // each stretch of equal keys one output row, decoded, carrying the
  // stretch's summed count. Saturating sums of non-zero counts do not
  // depend on order and are never zero, so this is GroupBySum over the
  // joined rows, bit for bit.
  std::vector<SortKey64>& keys = runs.keys;
  CountedRelation out(group);
  if (group.empty()) {
    // A total (every key is 0: one run per probe partition at most),
    // recorded under the join alone, as TotalCount over the built join
    // would be.
    Count total = Count::Zero();
    for (Count c : runs.counts) total += c;
    if (!total.IsZero()) out.AppendRow(std::span<const Value>{}, total);
    out.MarkUnique();
    return out;
  }
  OpTimer op(ctx, "group_by_sum", runs.matches);
  if (keys.empty()) return out;
  std::vector<SortKey64> tmp;
  SortPackedKeys(keys, tmp);
  size_t distinct = 1;
  for (size_t i = 1; i < keys.size(); ++i) {
    distinct += keys[i - 1].key != keys[i].key;
  }
  const CountedRelation::RawRows dst =
      out.AppendRowsRaw(distinct, Count::Zero());
  const size_t k = group.size();
  size_t begin = 0;
  for (size_t row = 0; row < distinct; ++row) {
    const uint64_t key = keys[begin].key;
    Count total = Count::Zero();
    size_t end = begin;
    for (; end < keys.size() && keys[end].key == key; ++end) {
      total += runs.counts[keys[end].idx];
    }
    Value* values = dst.values.data() + row * k;
    for (size_t j = 0; j < k; ++j) values[j] = cols[j].field.Unpack(key);
    dst.counts[row] = total;
    begin = end;
  }
  out.MarkUnique();
  op.set_rows_out(distinct);
  return out;
}

size_t EstimateJoinRows(const CountedRelation& a, const CountedRelation& b,
                        ExecContext* ctx_in, int threads) {
  JoinLayout layout = MakeLayout(a, b);
  if (layout.key.empty()) return a.NumRows() * b.NumRows();
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "estimate_join_rows", a.NumRows() + b.NumRows());
  const bool build_a = a.NumRows() < b.NumRows();
  op.set_build_rows(std::min(a.NumRows(), b.NumRows()));
  BuildAndHash(a, b, layout, build_a, ctx);
  const size_t total = CountMatches(a, b, layout, build_a, ctx, threads);
  op.set_rows_out(total);
  return total;
}

}  // namespace lsens
