#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/hash_group_table.h"
#include "exec/join.h"
#include "exec/row_sort.h"
#include "query/atom_scan.h"
#include "query/eval.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;
using testing::SameRowsUpToOrder;

CountedRelation MakeCounted(AttributeSet attrs,
                            std::vector<std::pair<std::vector<Value>, uint64_t>>
                                rows) {
  CountedRelation r(std::move(attrs));
  for (auto& [row, cnt] : rows) r.AppendRow(row, Count(cnt));
  r.Normalize();
  return r;
}

TEST(CountedRelationTest, NormalizeMergesDuplicates) {
  CountedRelation r({1, 2});
  r.AppendRow({5, 6}, Count(2));
  r.AppendRow({1, 2}, Count(1));
  r.AppendRow({5, 6}, Count(3));
  r.Normalize();
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.Row(0)[0], 1);
  EXPECT_EQ(r.CountAt(1), Count(5));
  EXPECT_EQ(r.TotalCount(), Count(6));
  EXPECT_EQ(r.MaxCount(), Count(5));
  EXPECT_EQ(r.ArgMaxRow(), 1u);
}

// Normalize against a std::map from row to summed count, on random
// relations: narrow and full-range values, repeated rows (summed), explicit
// zero counts (dropped, also when a row's counts sum to zero), input that is
// already ordered without being flagged, and a default count (kept).
TEST(CountedRelationTest, NormalizeMatchesMapReference) {
  Rng rng(17);
  int trial = 0;
  for (size_t arity = 1; arity <= 4; ++arity) {
    // 0: random order; 1: in row order, repeats and zero counts included;
    // 2: distinct rows in order, some counting zero; 3: distinct rows in
    // order, none counting zero (kept as they are).
    for (int order = 0; order < 4; ++order) {
      for (bool big : {false, true}) {
        for (bool full_range : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "arity " << arity << " order " << order << " big "
                       << big << " full_range " << full_range);
          const size_t rows =
              big ? 256 + rng.NextBounded(600) : rng.NextBounded(256);
          std::vector<std::pair<std::vector<Value>, Count>> input;
          for (size_t i = 0; i < rows; ++i) {
            std::vector<Value> row(arity);
            if (i > 0 && rng.NextBounded(3) == 0) {
              row = input[rng.NextBounded(i)].first;
            } else {
              for (Value& v : row) {
                v = full_range ? static_cast<Value>(rng.NextUint64())
                               : rng.NextInRange(-4, 4);
              }
            }
            input.emplace_back(std::move(row), Count(rng.NextBounded(4)));
          }
          std::map<std::vector<Value>, Count> sums;
          for (const auto& [row, count] : input) sums[row] += count;
          std::map<std::vector<Value>, Count> want = sums;
          std::erase_if(want, [](const auto& kv) { return kv.second.IsZero(); });
          if (order == 1) {
            std::stable_sort(input.begin(), input.end(),
                             [](const auto& x, const auto& y) {
                               return x.first < y.first;
                             });
          } else if (order == 2) {
            input.assign(sums.begin(), sums.end());
          } else if (order == 3) {
            input.assign(want.begin(), want.end());
          }

          AttributeSet attrs;
          for (size_t c = 0; c < arity; ++c) {
            attrs.push_back(static_cast<AttrId>(c + 1));
          }
          CountedRelation r(attrs);
          for (const auto& [row, count] : input) r.AppendRow(row, count);
          const Count default_count = trial++ % 3 == 0 ? Count(2) : Count();
          r.set_default_count(default_count);
          ExecContext ctx;
          r.Normalize(&ctx);
          EXPECT_TRUE(r.sorted());
          EXPECT_TRUE(r.unique());
          EXPECT_EQ(r.default_count(), default_count);
          ASSERT_EQ(r.NumRows(), want.size());
          size_t i = 0;
          for (const auto& [row, count] : want) {
            ASSERT_TRUE(std::ranges::equal(r.Row(i), row)) << "row " << i;
            ASSERT_EQ(r.CountAt(i), count) << "row " << i;
            ++i;
          }
          EXPECT_EQ(ctx.FindStats("normalize") != nullptr, !input.empty());
        }
      }
    }
  }
}

TEST(CountedRelationTest, LookupFindsRowsAndDefault) {
  CountedRelation r = MakeCounted({1}, {{{7}, 3}, {{9}, 5}});
  Value v7[] = {7};
  Value v8[] = {8};
  EXPECT_EQ(r.Lookup(v7), Count(3));
  EXPECT_EQ(r.Lookup(v8), Count::Zero());
  r.set_default_count(Count(2));
  EXPECT_EQ(r.Lookup(v8), Count(2));
}

TEST(CountedRelationTest, UnitBehaves) {
  CountedRelation unit = CountedRelation::Unit();
  EXPECT_EQ(unit.arity(), 0u);
  EXPECT_EQ(unit.NumRows(), 1u);
  EXPECT_EQ(unit.TotalCount(), Count::One());
}

TEST(ScanAtomTest, ProjectsAndCounts) {
  auto ex = MakeFigure1Example();
  const Relation& r1 = *ex.db.Find("R1");
  AttrId a = ex.db.attrs().Lookup("A");
  // Project R1(A,B,C) onto {A}: a1 x2, a2 x1.
  CountedRelation s =
      ScanAtom(r1, ex.query.atom(0), {a});
  ASSERT_EQ(s.NumRows(), 2u);
  EXPECT_EQ(s.TotalCount(), Count(3));
  EXPECT_EQ(s.MaxCount(), Count(2));
}

TEST(ScanAtomTest, AppliesPredicates) {
  auto ex = MakeFigure1Example();
  ConjunctiveQuery q;
  int atom = q.AddAtom(ex.db, "R1", {"A", "B", "C"});
  Predicate p;
  p.var = ex.db.attrs().Lookup("A");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("a1");
  q.AddPredicate(atom, p);
  AttrId a = ex.db.attrs().Lookup("A");
  CountedRelation s =
      ScanAtom(*ex.db.Find("R1"), q.atom(0), {a});
  ASSERT_EQ(s.NumRows(), 1u);
  EXPECT_EQ(s.CountAt(0), Count(2));  // two a1 rows
}

// What ScanAtom computed before it sorted packed keys: a row-major
// projection of the selected rows, each with count one, then Normalize.
CountedRelation ReferenceScan(const Relation& rel, const Atom& atom,
                              const AttributeSet& keep) {
  CountedRelation out(keep);
  std::vector<Value> row;
  std::vector<Value> projected(keep.size());
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    rel.RowInto(i, &row);
    bool pass = true;
    for (const Predicate& pred : atom.predicates) {
      size_t col = 0;
      while (atom.vars[col] != pred.var) ++col;
      pass = pass && pred.Eval(row[col]);
    }
    if (!pass) continue;
    for (size_t j = 0; j < keep.size(); ++j) {
      size_t col = 0;
      while (atom.vars[col] != keep[j]) ++col;
      projected[j] = row[col];
    }
    out.AppendRow(projected, Count::One());
  }
  out.Normalize();
  return out;
}

// ScanAtom of `atom` over the relation it names, for every subset of the
// atom's variables as `keep` (the empty one too: one arity-0 row counting
// the selected rows), matches ReferenceScan row for row and count
// for count, and records one "scan" call over the selected rows; exactly
// `want_fallbacks` of those scans fall back to Normalize (keys wider than
// 64 bits).
void ExpectScansMatchReference(const Database& db, const Atom& atom,
                               uint64_t want_fallbacks) {
  const Relation& rel = *db.Find(atom.relation);
  const AttributeSet vars = atom.VarSet();
  uint64_t fallbacks = 0;
  for (uint32_t mask = 0; mask < (1u << vars.size()); ++mask) {
    AttributeSet keep;
    for (size_t j = 0; j < vars.size(); ++j) {
      if (mask & (1u << j)) keep.push_back(vars[j]);
    }
    SCOPED_TRACE(::testing::Message() << "keep mask " << mask);
    const CountedRelation want = ReferenceScan(rel, atom, keep);
    ExecContext ctx;
    const CountedRelation got = ScanAtom(rel, atom, keep, &ctx);
    EXPECT_TRUE(got.sorted());
    EXPECT_TRUE(got.unique());
    EXPECT_EQ(got.attrs(), want.attrs());
    ASSERT_EQ(got.NumRows(), want.NumRows());
    for (size_t i = 0; i < got.NumRows(); ++i) {
      ASSERT_TRUE(std::ranges::equal(got.Row(i), want.Row(i))) << "row " << i;
      ASSERT_EQ(got.CountAt(i), want.CountAt(i)) << "row " << i;
    }
    const OperatorStats* scan = ctx.FindStats("scan");
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->calls, 1u);
    EXPECT_EQ(scan->rows_in, want.TotalCount().ToUint64Saturated());
    EXPECT_EQ(scan->rows_out, got.NumRows());
    if (ctx.FindStats("normalize") != nullptr) ++fallbacks;
  }
  EXPECT_EQ(fallbacks, want_fallbacks);
}

// A predicate on column `column` (0 = A, ..., 3 = D) of MakeScanInstance's
// relation.
struct ColumnPredicate {
  int column;
  Predicate::Op op;
  Value rhs;
};

struct ScanInstance {
  Database db;
  ConjunctiveQuery query;
};

// A relation R(A, B, C, D) of `n` rows, row i's column c being gen(i, c),
// and the atom R(A, B, C, D) carrying `preds`.
template <typename Gen>
ScanInstance MakeScanInstance(size_t n, Gen&& gen,
                              const std::vector<ColumnPredicate>& preds = {}) {
  ScanInstance inst;
  Relation* r = inst.db.AddRelation("R", {"A", "B", "C", "D"});
  for (size_t i = 0; i < n; ++i) {
    r->AppendRow({gen(i, 0), gen(i, 1), gen(i, 2), gen(i, 3)});
  }
  const int atom = inst.query.AddAtom(inst.db, "R", {"A", "B", "C", "D"});
  for (const ColumnPredicate& cp : preds) {
    Predicate p;
    p.var = inst.query.atom(atom).vars[static_cast<size_t>(cp.column)];
    p.op = cp.op;
    p.rhs = cp.rhs;
    inst.query.AddPredicate(atom, p);
  }
  return inst;
}

TEST(ScanAtomTest, RandomizedMatchesProjectionAndNormalize) {
  Rng rng(7);
  constexpr size_t kRows = 3 * kChunkRows + 517;
  // Past one chunk, with duplicates: narrow domains of unequal widths.
  const int64_t width[] = {3, 40, 1000, 70000};
  auto narrow = [&](size_t, int c) {
    return rng.NextInRange(0, width[c] - 1);
  };
  {
    ScanInstance inst = MakeScanInstance(kRows, narrow);
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  // Rows arrive ordered by (A, B), so keys over A, or A and B, need no sort.
  {
    auto ordered = [&](size_t i, int c) {
      return c == 0 ? static_cast<Value>(i / 500)
                    : c == 1 ? static_cast<Value>(i % 500 / 8)
                             : rng.NextInRange(0, 9);
    };
    ScanInstance inst = MakeScanInstance(kRows, ordered);
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  // Predicates select through the row list; negative values.
  {
    auto signed_vals = [&](size_t, int c) {
      return rng.NextInRange(-width[c], width[c]);
    };
    ScanInstance inst = MakeScanInstance(
        kRows, signed_vals,
        {{0, Predicate::Op::kNe, 0},
         {2, Predicate::Op::kLt, 300}});
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  // Small relation (the std::sort path), one predicate.
  {
    ScanInstance inst = MakeScanInstance(
        200, narrow, {{1, Predicate::Op::kGe, 10}});
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  // Constant columns B and D.
  {
    auto constants = [&](size_t, int c) {
      return c == 1 ? Value{-5} : c == 3 ? Value{1} << 40
                                         : rng.NextInRange(0, 30);
    };
    ScanInstance inst = MakeScanInstance(kRows, constants);
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  // An empty relation, and a predicate no row passes.
  {
    ScanInstance inst = MakeScanInstance(0, narrow);
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
  {
    ScanInstance inst =
        MakeScanInstance(kRows, narrow, {{3, Predicate::Op::kLt, 0}});
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
}

// A lone kept column whose selected values strictly increase is copied
// out as it is checked; one that stops increasing (last row, a tie) falls
// back to the packed path mid-copy. Either way the rows and counts are the
// reference's and no Normalize runs.
TEST(ScanAtomTest, StrictlyIncreasingColumnIsCopiedOut) {
  constexpr size_t kRows = 2 * kChunkRows + 91;
  // A strictly increases through negative values and across chunks; B
  // too, except for its last row; C repeats every value twice; D is
  // strictly increasing but selected through predicates.
  auto gen = [](size_t i, int c) -> Value {
    const auto v = static_cast<Value>(i);
    switch (c) {
      case 0:
        return 3 * v - 5000;
      case 1:
        return i + 1 == kRows ? Value{0} : v + 1;
      case 2:
        return v / 2;
      default:
        return 7 * v - 100000;
    }
  };
  {
    ScanInstance inst = MakeScanInstance(kRows, gen);
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
    const Atom& atom = inst.query.atom(0);
    ExecContext ctx;
    const CountedRelation a = ScanAtom(*inst.db.Find("R"), atom,
                                       AttributeSet{atom.vars[0]}, &ctx);
    ASSERT_EQ(a.NumRows(), kRows);
    EXPECT_TRUE(a.sorted());
    for (size_t i = 0; i < kRows; ++i) {
      ASSERT_EQ(a.Row(i)[0], gen(i, 0)) << "row " << i;
      ASSERT_EQ(a.CountAt(i), Count::One()) << "row " << i;
    }
    EXPECT_EQ(ctx.FindStats("normalize"), nullptr);
  }
  {
    ScanInstance inst = MakeScanInstance(
        kRows, gen, {{0, Predicate::Op::kGt, -2000},
                     {3, Predicate::Op::kLt, 30000}});
    ExpectScansMatchReference(inst.db, inst.query.atom(0), 0u);
  }
}

// Columns spanning INT64_MIN..INT64_MAX take all 64 bits, so any key with
// a second varying column falls back to projection plus Normalize.
TEST(ScanAtomTest, FullRangeKeysFallBackToNormalize) {
  Rng rng(11);
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const Value extremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  auto wide = [&](size_t, int c) {
    if (c <= 1) return extremes[rng.NextBounded(std::size(extremes))];
    return rng.NextInRange(0, 4);
  };
  ScanInstance inst = MakeScanInstance(kChunkRows + 100, wide);
  // Keeps that pack: {} (1), each lone column (4), {C, D} (1). Every other
  // keep has two varying columns including A or B (10 of 16).
  ExpectScansMatchReference(inst.db, inst.query.atom(0), 10u);
  ScanInstance filtered = MakeScanInstance(
      kChunkRows + 100, wide, {{0, Predicate::Op::kGt, kMin}});
  ExpectScansMatchReference(filtered.db, filtered.query.atom(0), 10u);
}

// Dictionary-encoded string columns scan as their codes.
TEST(ScanAtomTest, DictionaryColumnsMatchReference) {
  Rng rng(5);
  Database db;
  Relation* r = db.AddRelation("S", {"Name", "City", "N"});
  r->set_column_dictionary(0, true);
  r->set_column_dictionary(1, true);
  std::vector<Value> names;
  std::vector<Value> cities;
  for (int i = 0; i < 300; ++i) {
    names.push_back(db.dict().Intern("name" + std::to_string(i)));
  }
  for (const char* city : {"Oslo", "Lima", "Pune", "Kyiv", "Quito"}) {
    cities.push_back(db.dict().Intern(city));
  }
  for (size_t i = 0; i < kChunkRows + 900; ++i) {
    r->AppendRow({names[rng.NextBounded(names.size())],
                  cities[rng.NextBounded(cities.size())],
                  rng.NextInRange(-3, 3)});
  }
  ConjunctiveQuery q;
  const int atom = q.AddAtom(db, "S", {"Name", "City", "N"});
  ExpectScansMatchReference(db, q.atom(atom), 0u);
  Predicate p;
  p.var = db.attrs().Lookup("City");
  p.op = Predicate::Op::kNe;
  p.rhs = db.dict().Lookup("Lima");
  q.AddPredicate(atom, p);
  ExpectScansMatchReference(db, q.atom(atom), 0u);
}

TEST(CountedRelationTest, GroupBySum) {
  CountedRelation r = MakeCounted(
      {1, 2}, {{{0, 0}, 1}, {{0, 1}, 2}, {{1, 0}, 4}});
  CountedRelation g = GroupBySum(r, {1});
  ASSERT_EQ(g.NumRows(), 2u);
  Value v0[] = {0};
  Value v1[] = {1};
  EXPECT_EQ(g.Lookup(v0), Count(3));
  EXPECT_EQ(g.Lookup(v1), Count(4));
  // Group by nothing = total.
  CountedRelation total = GroupBySum(r, {});
  ASSERT_EQ(total.NumRows(), 1u);
  EXPECT_EQ(total.CountAt(0), Count(7));
}

// γ onto every attribute: a sorted input comes back as it is, recorded as
// one group_by_sum call over n rows; an unsorted unique input is still
// sorted by the merge.
TEST(CountedRelationTest, GroupBySumOntoAllAttributes) {
  Rng rng(29);
  std::map<std::vector<Value>, Count> want;
  CountedRelation unsorted({1, 2, 3});
  for (int i = 0; i < 500; ++i) {
    const std::vector<Value> row = {rng.NextInRange(-9, 9),
                                    rng.NextInRange(0, 30),
                                    rng.NextInRange(-5, 5)};
    const Count count(1 + rng.NextBounded(5));
    if (!want.emplace(row, count).second) continue;
    unsorted.AppendRow(row, count);
  }
  unsorted.MarkUnique();
  ASSERT_TRUE(unsorted.unique());
  ASSERT_FALSE(unsorted.sorted());

  const CountedRelation merged = GroupBySum(unsorted, unsorted.attrs());
  EXPECT_TRUE(merged.sorted());
  ASSERT_EQ(merged.NumRows(), want.size());
  size_t i = 0;
  for (const auto& [row, count] : want) {
    ASSERT_TRUE(std::ranges::equal(merged.Row(i), row)) << "row " << i;
    ASSERT_EQ(merged.CountAt(i), count) << "row " << i;
    ++i;
  }

  CountedRelation sorted = unsorted;
  sorted.Normalize();
  ASSERT_TRUE(sorted.sorted());
  ExecContext ctx;
  const CountedRelation copy = GroupBySum(sorted, sorted.attrs(), &ctx);
  EXPECT_TRUE(copy.sorted());
  EXPECT_TRUE(copy.unique());
  EXPECT_TRUE(testing::SameRowsInOrder(sorted, copy));
  const OperatorStats* stats = ctx.FindStats("group_by_sum");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 1u);
  EXPECT_EQ(stats->rows_in, sorted.NumRows());
  EXPECT_EQ(stats->rows_out, sorted.NumRows());
}

TEST(CountedRelationTest, GroupByMaxKeepsFirstRowAttainingTheMax) {
  // Attrs {1, 2}; grouping on attr 2 (the second column) needs a sort.
  CountedRelation r = MakeCounted(
      {1, 2}, {{{0, 5}, 3}, {{1, 5}, 7}, {{2, 5}, 7}, {{0, 6}, 2}, {{3, 6}, 1}});
  std::vector<uint32_t> arg_rows;
  CountedRelation g = GroupByMax(r, {2}, &arg_rows);
  ASSERT_EQ(g.NumRows(), 2u);
  ASSERT_EQ(arg_rows.size(), 2u);
  EXPECT_TRUE(g.sorted());
  EXPECT_EQ(g.Row(0)[0], 5);
  EXPECT_EQ(g.CountAt(0), Count(7));
  EXPECT_EQ(r.Row(arg_rows[0])[0], 1);  // the smaller of the tied rows
  EXPECT_EQ(g.Row(1)[0], 6);
  EXPECT_EQ(g.CountAt(1), Count(2));
  EXPECT_EQ(r.Row(arg_rows[1])[0], 0);
  // Max over everything: one arity-0 row.
  CountedRelation all = GroupByMax(r, {}, &arg_rows);
  ASSERT_EQ(all.NumRows(), 1u);
  EXPECT_EQ(all.CountAt(0), Count(7));
  EXPECT_EQ(r.Row(arg_rows[0])[0], 1);
  Value v6[] = {6};
  EXPECT_EQ(g.FindRow(v6), 1u);
  Value v7[] = {7};
  EXPECT_EQ(g.FindRow(v7), SIZE_MAX);
}

TEST(CountedRelationTest, RowsUniqueOnKeyColumns) {
  CountedRelation r =
      MakeCounted({1, 2}, {{{0, 5}, 1}, {{1, 5}, 1}, {{2, 6}, 1}});
  ExecContext ctx;
  const int first[] = {0};
  const int second[] = {1};
  EXPECT_TRUE(RowsUniqueOn(r, first, ctx));
  EXPECT_FALSE(RowsUniqueOn(r, second, ctx));
  EXPECT_FALSE(RowsUniqueOn(r, {}, ctx));
  EXPECT_TRUE(RowsUniqueOn(MakeCounted({1}, {{{4}, 3}}), {}, ctx));
}

TEST(CountedRelationTest, TruncateTopK) {
  CountedRelation r = MakeCounted(
      {1}, {{{1}, 10}, {{2}, 7}, {{3}, 5}, {{4}, 2}});
  r.TruncateTopK(2);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.default_count(), Count(7));
  Value v1[] = {1};
  Value v3[] = {3};
  EXPECT_EQ(r.Lookup(v1), Count(10));
  EXPECT_EQ(r.Lookup(v3), Count(7));  // raised to the k-th largest
}

TEST(CountedRelationTest, TruncateTopKNoOpWhenSmall) {
  CountedRelation r = MakeCounted({1}, {{{1}, 10}, {{2}, 7}});
  r.TruncateTopK(5);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_FALSE(r.has_default());
}

TEST(CountedRelationTest, FilterDropsRows) {
  CountedRelation r = MakeCounted({1}, {{{1}, 2}, {{2}, 3}, {{3}, 4}});
  r.Filter([](std::span<const Value> row) { return row[0] != 2; });
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.TotalCount(), Count(6));
}

// FlatGroupTable against a std::map from key to its rows in ascending
// order. One table is rebuilt across every case, so each build must wholly
// replace the last (a large build is followed by smaller ones).
class FlatGroupTableTest : public ::testing::Test {
 protected:
  // Relation of `arity` columns (attrs 1..arity) whose `num_keys` leading
  // columns draw from `key_of(i)` and whose others are noise.
  static CountedRelation MakeRows(size_t arity, size_t num_keys, size_t n,
                                  Rng& rng,
                                  const std::function<Value(size_t)>& key_of) {
    AttributeSet attrs;
    for (size_t c = 0; c < arity; ++c) {
      attrs.push_back(static_cast<AttrId>(c + 1));
    }
    CountedRelation r(attrs);
    std::vector<Value> row(arity);
    for (size_t i = 0; i < n; ++i) {
      const Value key = key_of(i);
      for (size_t c = 0; c < arity; ++c) {
        // Key column c holds a different function of the key, so a probe
        // must match every key column, not just the first.
        row[c] = c < num_keys ? key * static_cast<Value>(c + 1) - 3
                              : static_cast<Value>(rng.NextUint64());
      }
      r.AppendRow(row, Count(1));
    }
    return r;
  }

  // Builds `table_` on `rel`'s first `num_keys` columns (in reverse order)
  // and checks num_groups() and both Probe overloads for every present key
  // and for absent ones.
  void ExpectMatchesReference(const CountedRelation& rel, size_t num_keys,
                              const std::string& what) {
    std::vector<int> build_cols;
    for (size_t c = num_keys; c-- > 0;) {
      build_cols.push_back(static_cast<int>(c));
    }
    std::map<std::vector<Value>, std::vector<uint32_t>> want;
    for (size_t i = 0; i < rel.NumRows(); ++i) {
      std::vector<Value> key;
      for (int c : build_cols) {
        key.push_back(rel.Row(i)[static_cast<size_t>(c)]);
      }
      want[key].push_back(static_cast<uint32_t>(i));
    }
    table_.Build(rel, build_cols);
    EXPECT_EQ(table_.num_groups(), want.size()) << what;

    // Probe rows carry a leading noise column and the key reversed
    // again, so the probe routing differs from the build's.
    std::vector<int> probe_cols;
    for (size_t j = 0; j < num_keys; ++j) {
      probe_cols.push_back(static_cast<int>(num_keys - j));
    }
    auto probe_row = [&](const std::vector<Value>& key) {
      std::vector<Value> row(num_keys + 1, 12345);
      for (size_t j = 0; j < num_keys; ++j) {
        row[static_cast<size_t>(probe_cols[j])] = key[j];
      }
      return row;
    };
    auto expect_probe = [&](const std::vector<Value>& key,
                            const std::vector<uint32_t>& rows) {
      const std::vector<Value> row = probe_row(key);
      const std::span<const uint32_t> plain = table_.Probe(row, probe_cols);
      const std::span<const uint32_t> hashed =
          table_.Probe(row, probe_cols, HashRowKey(row, probe_cols));
      EXPECT_TRUE(std::ranges::equal(plain, rows)) << what;
      EXPECT_TRUE(std::ranges::equal(hashed, rows)) << what;
    };
    for (const auto& [key, rows] : want) expect_probe(key, rows);
    // Absent keys: outside every column's range, and present values in
    // combinations no row has.
    expect_probe(std::vector<Value>(num_keys, -1'000'000'007), {});
    for (const auto& [key, rows] : want) {
      if (num_keys < 2) break;
      std::vector<Value> mixed = key;
      mixed.back() += 1;
      if (!want.contains(mixed)) expect_probe(mixed, {});
    }
  }

  FlatGroupTable table_;
};

TEST_F(FlatGroupTableTest, ProbeMatchesMapReference) {
  Rng rng(71);
  for (size_t arity = 1; arity <= 3; ++arity) {
    for (size_t num_keys = 1; num_keys <= arity; ++num_keys) {
      const std::string what = "arity " + std::to_string(arity) + " keys " +
                               std::to_string(num_keys);
      const size_t n = 2000 + rng.NextBounded(2000);
      // A large build first; the cases after it rebuild the same table
      // smaller.
      ExpectMatchesReference(
          MakeRows(arity, num_keys, n, rng,
                   [](size_t i) { return static_cast<Value>(i); }),
          num_keys, what + " all distinct");
      ExpectMatchesReference(
          MakeRows(arity, num_keys, n / 4, rng,
                   [&](size_t) {
                     return static_cast<Value>(rng.NextBounded(n / 8));
                   }),
          num_keys, what + " mixed group sizes");
      ExpectMatchesReference(
          MakeRows(arity, num_keys, 300, rng,
                   [](size_t i) { return static_cast<Value>(i / 2); }),
          num_keys, what + " pairs");
      ExpectMatchesReference(
          MakeRows(arity, num_keys, 200, rng, [](size_t) { return 7; }),
          num_keys, what + " one group");
      ExpectMatchesReference(
          MakeRows(arity, num_keys, 0, rng, [](size_t) { return 0; }),
          num_keys, what + " empty");
      ExpectMatchesReference(
          MakeRows(arity, num_keys, 1, rng, [](size_t) { return 5; }),
          num_keys, what + " one row");
    }
  }
}

class JoinAlgoTest : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinAlgoTest, SharedKeyJoinMultipliesCounts) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation b = MakeCounted({2, 3}, {{{5, 8}, 5}, {{5, 9}, 1}});
  CountedRelation j = NaturalJoin(a, b, opts);
  // key = attr 2; only value 5 matches.
  ASSERT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.attrs(), (AttributeSet{1, 2, 3}));
  Value r1[] = {0, 5, 8};
  Value r2[] = {0, 5, 9};
  EXPECT_EQ(j.Lookup(r1), Count(10));
  EXPECT_EQ(j.Lookup(r2), Count(2));
}

TEST_P(JoinAlgoTest, CrossProductWhenNoSharedAttr) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 3}});
  CountedRelation b = MakeCounted({2}, {{{7}, 5}});
  CountedRelation j = NaturalJoin(a, b, opts);
  ASSERT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.TotalCount(), Count(25));
}

TEST_P(JoinAlgoTest, JoinWithUnitIsIdentity) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 3}});
  CountedRelation j = NaturalJoin(a, CountedRelation::Unit(), opts);
  EXPECT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.TotalCount(), Count(5));
}

TEST_P(JoinAlgoTest, EmptyInputYieldsEmpty) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {});
  CountedRelation b = MakeCounted({1, 2}, {{{0, 1}, 1}});
  EXPECT_EQ(NaturalJoin(a, b, opts).NumRows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, JoinAlgoTest,
                         ::testing::Values(JoinAlgorithm::kHash,
                                           JoinAlgorithm::kSortMerge));

TEST(JoinTest, HashAndSortMergeAgreeOnRandomInputs) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    CountedRelation a({1, 2});
    CountedRelation b({2, 3});
    int na = static_cast<int>(rng.NextBounded(20));
    int nb = static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < na; ++i) {
      a.AppendRow({static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4))},
                  Count(1 + rng.NextBounded(3)));
    }
    for (int i = 0; i < nb; ++i) {
      b.AppendRow({static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4))},
                  Count(1 + rng.NextBounded(3)));
    }
    a.Normalize();
    b.Normalize();
    CountedRelation h = NaturalJoin(a, b, {JoinAlgorithm::kHash});
    CountedRelation s = NaturalJoin(a, b, {JoinAlgorithm::kSortMerge});
    EXPECT_TRUE(SameRowsUpToOrder(s, h));
  }
}

TEST(JoinTest, DefaultedSideActsAsTotalFunction) {
  CountedRelation a = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation b = MakeCounted({2}, {{{5}, 4}});
  b.set_default_count(Count(10));
  CountedRelation j = NaturalJoin(a, b);
  ASSERT_EQ(j.NumRows(), 2u);
  Value r1[] = {0, 5};
  Value r2[] = {1, 6};
  EXPECT_EQ(j.Lookup(r1), Count(8));    // matched: 2*4
  EXPECT_EQ(j.Lookup(r2), Count(30));   // default: 3*10
  EXPECT_FALSE(j.has_default());
}

TEST(JoinTest, EstimateJoinRowsIsExact) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    CountedRelation a({1, 2});
    CountedRelation b({2, 3});
    for (uint64_t i = 0; i < rng.NextBounded(15); ++i) {
      a.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count::One());
    }
    for (uint64_t i = 0; i < rng.NextBounded(15); ++i) {
      b.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count::One());
    }
    a.Normalize();
    b.Normalize();
    // NaturalJoin normalizes (merging duplicate output rows), so compare
    // against the pre-merge pair count.
    size_t expected = 0;
    for (size_t i = 0; i < a.NumRows(); ++i) {
      for (size_t j = 0; j < b.NumRows(); ++j) {
        expected += (a.Row(i)[1] == b.Row(j)[0]);
      }
    }
    EXPECT_EQ(EstimateJoinRows(a, b), expected);
  }
}

TEST(JoinTest, DefaultedLeftSideAlsoWorks) {
  // Symmetric case: `a` carries the default, `b` covers its attributes.
  CountedRelation a = MakeCounted({2}, {{{5}, 4}});
  a.set_default_count(Count(10));
  CountedRelation b = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation j = NaturalJoin(a, b);
  ASSERT_EQ(j.NumRows(), 2u);
  Value r1[] = {0, 5};
  Value r2[] = {1, 6};
  EXPECT_EQ(j.Lookup(r1), Count(8));
  EXPECT_EQ(j.Lookup(r2), Count(30));
}

TEST(CountedRelationTest, ArgMaxRowUnknownWhenDefaultWins) {
  CountedRelation r = MakeCounted({1}, {{{1}, 3}, {{2}, 5}});
  EXPECT_EQ(r.ArgMaxRow(), 1u);
  r.set_default_count(Count(9));
  EXPECT_EQ(r.MaxCount(), Count(9));
  EXPECT_EQ(r.ArgMaxRow(), SIZE_MAX);  // attained by an unlisted row
}

TEST(CountedRelationTest, EmptyRelationBehaviors) {
  CountedRelation r({1, 2});
  EXPECT_EQ(r.NumRows(), 0u);
  EXPECT_EQ(r.TotalCount(), Count::Zero());
  EXPECT_EQ(r.MaxCount(), Count::Zero());
  EXPECT_EQ(r.ArgMaxRow(), SIZE_MAX);
  Value probe[] = {1, 2};
  r.Normalize();
  EXPECT_EQ(r.Lookup(probe), Count::Zero());
}

TEST(FoldJoinTest, PrefersSharedAttributesOverCrossProducts) {
  // Pieces: A(x), B(y), C(x,y). Starting from the smallest, the greedy
  // fold must join the attribute-sharing piece before any cross product —
  // observable through the exact result (which is order-independent) and,
  // more importantly, through not tripping the defaulted-piece guard when
  // C is defaulted and only covered after A ⋈ B ... here simply verify the
  // result is correct with all orders of sizes.
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 5}});
  CountedRelation b = MakeCounted({2}, {{{7}, 3}});
  CountedRelation c = MakeCounted({1, 2}, {{{0, 7}, 1}, {{1, 7}, 10}});
  CountedRelation r = FoldJoin({&a, &b, &c});
  ASSERT_EQ(r.NumRows(), 2u);
  Value r1[] = {0, 7};
  Value r2[] = {1, 7};
  EXPECT_EQ(r.Lookup(r1), Count(6));    // 2*3*1
  EXPECT_EQ(r.Lookup(r2), Count(150));  // 5*3*10
}

TEST(FoldJoinTest, EmptyPiecesYieldUnit) {
  CountedRelation r = FoldJoin({});
  EXPECT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.arity(), 0u);
}

TEST(FoldJoinTest, ChainFold) {
  CountedRelation a = MakeCounted({1}, {{{0}, 2}});
  CountedRelation b = MakeCounted({1, 2}, {{{0, 5}, 3}});
  CountedRelation c = MakeCounted({2}, {{{5}, 7}});
  CountedRelation r = FoldJoin({&a, &b, &c});
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.CountAt(0), Count(42));
}

TEST(EvalTest, Figure1CountIsOne) {
  auto ex = MakeFigure1Example();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count::One());
  auto brute = BruteForceCount(ex.query, ex.db);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(*brute, Count::One());
}

// Every operator of an evaluation, atom scans included, records into the
// caller's context; the thread-local default sees none of it.
TEST(EvalTest, ExplicitContextRecordsScans) {
  auto ex = MakeFigure1Example();
  uint64_t scanned = 0;
  for (int a = 0; a < ex.query.num_atoms(); ++a) {
    scanned += (*ex.db.Get(ex.query.atom(a).relation))->NumRows();
  }
  auto default_scan_rows = [] {
    const OperatorStats* s = DefaultExecContext().FindStats("scan");
    return s == nullptr ? uint64_t{0} : s->rows_in;
  };
  const uint64_t default_before = default_scan_rows();

  ExecContext ctx;
  auto count = CountQuery(ex.query, ex.db, {JoinAlgorithm::kAuto, &ctx});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count::One());
  const OperatorStats* scan = ctx.FindStats("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->calls, static_cast<uint64_t>(ex.query.num_atoms()));
  EXPECT_EQ(scan->rows_in, scanned);

  ExecContext join_ctx;
  ASSERT_TRUE(BruteForceJoin(ex.query, ex.db, {JoinAlgorithm::kAuto,
                                               &join_ctx}).ok());
  ASSERT_NE(join_ctx.FindStats("scan"), nullptr);
  EXPECT_GE(join_ctx.FindStats("scan")->rows_in, scanned);
  EXPECT_EQ(default_scan_rows(), default_before);
}

TEST(EvalTest, Figure3CountIsFour) {
  auto ex = MakeFigure3Example();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(4));
}

TEST(EvalTest, BruteForceJoinMaterializesOutput) {
  auto ex = MakeFigure1Example();
  auto join = BruteForceJoin(ex.query, ex.db);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->NumRows(), 1u);
  EXPECT_EQ(join->arity(), 6u);
}

TEST(EvalTest, DisconnectedComponentsMultiply) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  r->AppendRow({1});
  r->AppendRow({2});
  t->AppendRow({7});
  t->AppendRow({8});
  t->AppendRow({9});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(6));
}

TEST(EvalTest, EmptyRelationZeroesCount) {
  auto ex = MakeFigure1Example();
  ex.db.Find("R3")->Clear();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count::Zero());
}

TEST(EvalTest, CyclicTriangleViaGhd) {
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  // Two triangles sharing an edge: (1,2,3) and (1,2,4).
  e0->AppendRow({1, 2});
  e1->AppendRow({2, 3});
  e1->AppendRow({2, 4});
  e2->AppendRow({3, 1});
  e2->AppendRow({4, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto count = CountQuery(q, db);  // falls back to SearchGhd
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(2));
  auto brute = BruteForceCount(q, db);
  EXPECT_EQ(*count, *brute);
}

TEST(EvalTest, BagSemanticsCountDuplicates) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* s = db.AddRelation("S", {"A"});
  r->AppendRow({1});
  r->AppendRow({1});  // duplicate
  s->AppendRow({1});
  s->AppendRow({1});
  s->AppendRow({1});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "S", {"A"});
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(6));
}

}  // namespace
}  // namespace lsens
