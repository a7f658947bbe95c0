// Differential property suite for the vectorized join core: every join
// algorithm (flat-table hash, sort-merge, and the filtered-cross-product
// oracle) must produce identical normalized outputs on randomized inputs,
// the kAuto rule must pick its kernel from key order alone (no estimate
// pass), the fused join-group-by must equal the join grouped after it, and
// ExecContext must collect operator stats end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/join.h"
#include "exec/row_sort.h"
#include "query/explain.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::SameRowsUpToOrder;

CountedRelation MakeRandom(Rng& rng, AttributeSet attrs, size_t max_rows,
                           uint64_t domain, bool spread_values = false) {
  CountedRelation r(std::move(attrs));
  const size_t rows = rng.NextBounded(max_rows + 1);
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) {
      v = static_cast<Value>(rng.NextBounded(domain));
      // Exercise the full int64 range (negatives included) so the sort
      // machinery's order-preserving bit flip is covered, not just the
      // radix-friendly narrow domains.
      if (spread_values && rng.NextBounded(2) == 0) {
        v = v * -1'000'003 + static_cast<Value>(rng.NextBounded(7));
      }
    }
    r.AppendRow(row, Count(1 + rng.NextBounded(4)));
  }
  r.Normalize();
  return r;
}

// Reference implementation: filtered cross product by nested loops —
// every pair whose shared attributes agree, counts multiplied.
CountedRelation NestedLoopJoin(const CountedRelation& a,
                               const CountedRelation& b) {
  AttributeSet out_attrs = Union(a.attrs(), b.attrs());
  AttributeSet key = Intersect(a.attrs(), b.attrs());
  std::vector<int> a_key;
  std::vector<int> b_key;
  for (AttrId attr : key) {
    a_key.push_back(a.ColumnOf(attr));
    b_key.push_back(b.ColumnOf(attr));
  }
  CountedRelation out(out_attrs);
  std::vector<Value> row(out_attrs.size());
  for (size_t i = 0; i < a.NumRows(); ++i) {
    for (size_t j = 0; j < b.NumRows(); ++j) {
      bool match = true;
      for (size_t k = 0; k < key.size(); ++k) {
        match = match && a.Row(i)[static_cast<size_t>(a_key[k])] ==
                             b.Row(j)[static_cast<size_t>(b_key[k])];
      }
      if (!match) continue;
      for (size_t c = 0; c < out_attrs.size(); ++c) {
        int ca = a.ColumnOf(out_attrs[c]);
        row[c] = ca >= 0 ? a.Row(i)[static_cast<size_t>(ca)]
                         : b.Row(j)[static_cast<size_t>(
                               b.ColumnOf(out_attrs[c]))];
      }
      out.AppendRow(row, a.CountAt(i) * b.CountAt(j));
    }
  }
  out.Normalize();
  return out;
}

TEST(JoinDifferentialTest, AllAlgorithmsMatchNestedLoopOracle) {
  Rng rng(2024);
  // Attribute shapes: overlapping keys, full overlap, and disjoint
  // (empty-key cross product) pairs.
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {2, 3}}, {{1, 2}, {1, 2}}, {{1}, {2}}, {{1, 2, 3}, {3, 4}},
      {{2}, {1, 2, 3}}};
  for (int trial = 0; trial < 120; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    const bool spread = trial % 3 == 0;
    CountedRelation a = MakeRandom(rng, attrs_a, 24, 5, spread);
    CountedRelation b = MakeRandom(rng, attrs_b, 24, 5, spread);
    CountedRelation oracle = NestedLoopJoin(a, b);
    CountedRelation hash = NaturalJoin(a, b, {JoinAlgorithm::kHash});
    CountedRelation merge = NaturalJoin(a, b, {JoinAlgorithm::kSortMerge});
    CountedRelation automatic = NaturalJoin(a, b, {JoinAlgorithm::kAuto});
    EXPECT_TRUE(SameRowsUpToOrder(oracle, hash)) << "hash vs nested-loop";
    EXPECT_TRUE(SameRowsUpToOrder(oracle, merge))
        << "sort-merge vs nested-loop";
    EXPECT_TRUE(SameRowsUpToOrder(oracle, automatic)) << "auto vs nested-loop";
  }
}

TEST(JoinDifferentialTest, DefaultedSideMatchesManualExpansion) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    CountedRelation a = MakeRandom(rng, {1, 2}, 20, 4);
    CountedRelation b = MakeRandom(rng, {2}, 6, 4);
    b.set_default_count(Count(1 + rng.NextBounded(5)));

    CountedRelation joined = NaturalJoin(a, b);
    // Manual expansion: every a-row times its match count or the default.
    CountedRelation expected(a.attrs());
    for (size_t i = 0; i < a.NumRows(); ++i) {
      Value key[] = {a.Row(i)[1]};
      Count c = a.CountAt(i) * b.Lookup(key);
      if (!c.IsZero()) expected.AppendRow(a.Row(i), c);
    }
    expected.Normalize();
    EXPECT_TRUE(SameRowsUpToOrder(expected, joined)) << "defaulted join";
  }
}

TEST(JoinDifferentialTest, EmptyKeyAndEmptyInputEdgeCases) {
  // Empty inputs under every algorithm, with and without a shared key.
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kAuto, JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
    CountedRelation empty({1, 2});
    CountedRelation one({2, 3});
    one.AppendRow({5, 6}, Count(2));
    one.Normalize();
    EXPECT_EQ(NaturalJoin(empty, one, {algo}).NumRows(), 0u);
    EXPECT_EQ(NaturalJoin(one, empty, {algo}).NumRows(), 0u);

    CountedRelation disjoint({9});
    disjoint.AppendRow({1}, Count(3));
    disjoint.Normalize();
    CountedRelation cross = NaturalJoin(one, disjoint, {algo});
    ASSERT_EQ(cross.NumRows(), 1u);
    EXPECT_EQ(cross.CountAt(0), Count(6));

    // Unit is the neutral element regardless of algorithm.
    CountedRelation u = NaturalJoin(one, CountedRelation::Unit(), {algo});
    EXPECT_TRUE(SameRowsUpToOrder(one, u)) << "unit join";
  }
}

// --- Fused join-group-by ---------------------------------------------------

// Random unique relation over `attrs`. Values are drawn from [0, domain),
// `spread` also mapping half of them far out and negative, and `wide`
// pinning some to INT64_MIN / INT64_MAX so a column spans all 64 bits.
// Counts are small, and with `huge` some are near or at Count::Max(), so
// products and sums saturate.
struct RandomShape {
  size_t max_rows;
  uint64_t domain;
  bool spread = false;
  bool wide = false;
  bool huge = false;
};

CountedRelation MakeRandomCounted(Rng& rng, AttributeSet attrs,
                                  const RandomShape& shape) {
  CountedRelation r(std::move(attrs));
  const size_t rows = rng.NextBounded(shape.max_rows + 1);
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) {
      v = static_cast<Value>(rng.NextBounded(shape.domain));
      if (shape.spread && rng.NextBounded(2) == 0) {
        v = v * -1'000'003 + static_cast<Value>(rng.NextBounded(7));
      }
      if (shape.wide && rng.NextBounded(8) == 0) {
        v = rng.NextBounded(2) == 0 ? std::numeric_limits<Value>::min()
                                    : std::numeric_limits<Value>::max();
      }
    }
    Count c(1 + rng.NextBounded(4));
    if (shape.huge && rng.NextBounded(3) == 0) {
      c = rng.NextBounded(2) == 0
              ? Count::Max()
              : Count(~uint64_t{0}) * Count(~uint64_t{0} >> rng.NextBounded(3));
    }
    r.AppendRow(row, c);
  }
  r.Normalize();
  return r;
}

// A random subset of `attrs` with at most `max_size` attributes.
AttributeSet RandomGroup(Rng& rng, const AttributeSet& attrs,
                         size_t max_size) {
  AttributeSet group;
  for (AttrId attr : attrs) {
    if (group.size() < max_size && rng.NextBounded(2) == 0) {
      group.push_back(attr);
    }
  }
  return group;
}

// JoinGroupBySum(a, b, group) is GroupBySum(NaturalJoin(a, b), group) bit
// for bit — rows, order, counts, sorted() — under the same options, and
// records the same join work (the kernel's calls, rows in and out) and,
// for a non-empty group, the same group-by work.
void ExpectFusedMatchesTwoStep(const CountedRelation& a,
                               const CountedRelation& b,
                               const AttributeSet& group, JoinAlgorithm algo,
                               int threads, const std::string& what) {
  ExecContext ref_ctx;
  ExecContext fused_ctx;
  const CountedRelation want = GroupBySum(
      NaturalJoin(a, b, {algo, &ref_ctx, threads}), group, &ref_ctx);
  const CountedRelation got =
      JoinGroupBySum(a, b, group, {algo, &fused_ctx, threads});
  EXPECT_TRUE(got.sorted()) << what;
  EXPECT_TRUE(got.unique()) << what;
  EXPECT_TRUE(testing::SameRowsInOrder(want, got)) << what;
  std::vector<const char*> ops = {"join.hash", "join.sort_merge",
                                  "join.cross", "join.default"};
  if (!group.empty()) ops.push_back("group_by_sum");
  for (const char* op : ops) {
    const OperatorStats* w = ref_ctx.FindStats(op);
    const OperatorStats* g = fused_ctx.FindStats(op);
    ASSERT_EQ(w == nullptr, g == nullptr) << what << " " << op;
    if (w == nullptr) continue;
    EXPECT_EQ(w->calls, g->calls) << what << " " << op;
    EXPECT_EQ(w->rows_in, g->rows_in) << what << " " << op;
    EXPECT_EQ(w->rows_out, g->rows_out) << what << " " << op;
    EXPECT_EQ(w->build_rows, g->build_rows) << what << " " << op;
  }
}

TEST(JoinGroupBySumTest, RandomizedMatchesGroupBySumOfNaturalJoin) {
  Rng rng(2106);
  // Shared keys that trail one side's attributes (sort-merge has to sort
  // that side), a key leading both sides, full overlap, a key covering the
  // build side, and a disjoint pair (cross product).
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {2, 3}}, {{1, 2, 3}, {3, 4}}, {{1, 3}, {1, 2}},
      {{1, 2}, {1, 2}}, {{2}, {1, 2, 3}},    {{1}, {2}}};
  const JoinAlgorithm algos[] = {JoinAlgorithm::kAuto, JoinAlgorithm::kHash,
                                 JoinAlgorithm::kSortMerge};
  for (int trial = 0; trial < 90; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    RandomShape shape{40, 6};
    if (trial % 3 == 1) shape = {600, 40, true, false, false};  // radix sorts
    if (trial % 5 == 2) shape.huge = true;
    const CountedRelation a = MakeRandomCounted(rng, attrs_a, shape);
    const CountedRelation b = MakeRandomCounted(rng, attrs_b, shape);
    const AttributeSet group =
        RandomGroup(rng, Union(attrs_a, attrs_b), trial % 4);
    for (JoinAlgorithm algo : algos) {
      for (int threads : {0, 4}) {
        ExpectFusedMatchesTwoStep(
            a, b, group, algo, threads,
            "trial " + std::to_string(trial) + " algo " +
                std::to_string(static_cast<int>(algo)) + " threads " +
                std::to_string(threads));
      }
    }
  }
}

TEST(JoinGroupBySumTest, PartitionedProbeMatchesSerial) {
  // Both sides past the partitioned-probe threshold, so threads = 4 fans
  // the hash probe out; groups from either side and across both.
  Rng rng(2107);
  const RandomShape shape{12000, 3000, true, false, true};
  CountedRelation a = MakeRandomCounted(rng, {1, 2}, shape);
  CountedRelation b = MakeRandomCounted(rng, {2, 3}, shape);
  while (a.NumRows() < 4096) a = MakeRandomCounted(rng, {1, 2}, shape);
  while (b.NumRows() < 4096) b = MakeRandomCounted(rng, {2, 3}, shape);
  for (const AttributeSet& group :
       {AttributeSet{}, AttributeSet{1}, AttributeSet{2}, AttributeSet{3},
        AttributeSet{1, 3}, AttributeSet{1, 2, 3}}) {
    for (JoinAlgorithm algo : {JoinAlgorithm::kAuto, JoinAlgorithm::kHash}) {
      for (int threads : {0, 4}) {
        ExpectFusedMatchesTwoStep(
            a, b, group, algo, threads,
            "group size " + std::to_string(group.size()) + " threads " +
                std::to_string(threads));
      }
    }
  }

  // A build side whose keys are all distinct, so every group the
  // partitions read concurrently is a one-row group answered from its
  // bucket: once keyed on part of the build's attributes (a counting probe
  // sizes the output) and once on all of them.
  for (const AttributeSet& build_attrs :
       {AttributeSet{2, 4}, AttributeSet{2}}) {
    CountedRelation build(build_attrs);
    for (Value key = 0; key < 3000;
         key += 1 + static_cast<Value>(rng.NextBounded(2))) {
      std::vector<Value> row = {key};
      if (build_attrs.size() == 2) row.push_back(rng.NextInRange(-50, 50));
      build.AppendRow(row, Count(1 + rng.NextBounded(4)));
    }
    build.Normalize();
    ASSERT_LT(build.NumRows(), a.NumRows());
    const std::string what =
        "distinct build of arity " + std::to_string(build_attrs.size());
    EXPECT_TRUE(testing::SameRowsInOrder(
        NaturalJoin(a, build, {JoinAlgorithm::kHash}),
        NaturalJoin(a, build, {JoinAlgorithm::kHash, nullptr, 4})))
        << what;
    for (const AttributeSet& group :
         {AttributeSet{}, AttributeSet{1}, AttributeSet{2},
          Union(a.attrs(), build_attrs)}) {
      const CountedRelation serial_grouped =
          JoinGroupBySum(a, build, group, {JoinAlgorithm::kHash});
      ExpectFusedMatchesTwoStep(a, build, group, JoinAlgorithm::kHash, 4,
                                what + " group size " +
                                    std::to_string(group.size()));
      EXPECT_TRUE(testing::SameRowsInOrder(
          serial_grouped,
          JoinGroupBySum(a, build, group, {JoinAlgorithm::kHash, nullptr, 4})))
          << what;
    }
  }
}

TEST(JoinGroupBySumTest, FallbacksMatchGroupBySumOfNaturalJoin) {
  Rng rng(2108);
  for (int trial = 0; trial < 30; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    // Group columns 1 (of a) and 3 (of b) both span INT64_MIN..INT64_MAX,
    // so together they need 128 bits.
    const RandomShape wide{60, 5, true, true, trial % 2 == 0};
    CountedRelation a = MakeRandomCounted(rng, {1, 2}, wide);
    CountedRelation b = MakeRandomCounted(rng, {2, 3}, wide);
    constexpr Value kMin = std::numeric_limits<Value>::min();
    constexpr Value kMax = std::numeric_limits<Value>::max();
    a.AppendRow({kMin, 0}, Count(1));
    a.AppendRow({kMax, 1}, Count(2));
    b.AppendRow({0, kMax}, Count(3));
    b.AppendRow({1, kMin}, Count(1));
    a.Normalize();
    b.Normalize();
    for (JoinAlgorithm algo : {JoinAlgorithm::kAuto, JoinAlgorithm::kHash,
                               JoinAlgorithm::kSortMerge}) {
      for (int threads : {0, 4}) {
        ExpectFusedMatchesTwoStep(a, b, {1, 3}, algo, threads,
                                  "wide " + what);
      }
    }
    // A defaulted side covered by the other: the covering join's default
    // reaches the rows it does not match.
    CountedRelation covered = MakeRandomCounted(rng, {2}, {6, 5});
    covered.set_default_count(Count(1 + rng.NextBounded(5)));
    for (const AttributeSet& group :
         {AttributeSet{}, AttributeSet{1}, AttributeSet{2}}) {
      ExpectFusedMatchesTwoStep(a, covered, group, JoinAlgorithm::kAuto, 0,
                                "defaulted " + what);
      ExpectFusedMatchesTwoStep(covered, a, group, JoinAlgorithm::kAuto, 0,
                                "defaulted first " + what);
    }
  }
}

// FoldJoin with a group is FoldJoin then GroupBySum, for one piece (no
// join to fuse) and for several (the last join fused).
TEST(JoinGroupBySumTest, FoldJoinWithGroupMatchesGroupedFold) {
  Rng rng(2109);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomShape shape{50, 6, trial % 2 == 0, false, trial % 3 == 0};
    const CountedRelation r = MakeRandomCounted(rng, {1, 2}, shape);
    const CountedRelation s = MakeRandomCounted(rng, {2, 3}, shape);
    const CountedRelation t = MakeRandomCounted(rng, {3, 4}, shape);
    const AttributeSet group = RandomGroup(rng, {1, 2, 3, 4}, 3);
    const std::string what = "trial " + std::to_string(trial);
    const CountedRelation want = GroupBySum(FoldJoin({&r, &s, &t}), group);
    EXPECT_TRUE(testing::SameRowsInOrder(
        want, FoldJoin({&r, &s, &t}, {}, group)))
        << what;
    const AttributeSet lone = Intersect(group, r.attrs());
    EXPECT_TRUE(testing::SameRowsInOrder(GroupBySum(r, lone),
                                         FoldJoin({&r}, {}, lone)))
        << what;
  }
}

// --- kAuto rule: key order decides, no estimate pass --------------------

// Runs NaturalJoin(a, b) under kAuto and checks from the recorded stats
// that `kernel` ran once, `other` never did, and no estimate was taken.
void ExpectAutoRuns(const CountedRelation& a, const CountedRelation& b,
                    const char* kernel, const char* other) {
  ExecContext ctx;
  NaturalJoin(a, b, {JoinAlgorithm::kAuto, &ctx});
  const OperatorStats* ran = ctx.FindStats(kernel);
  ASSERT_NE(ran, nullptr) << kernel;
  EXPECT_EQ(ran->calls, 1u);
  EXPECT_EQ(ctx.FindStats(other), nullptr) << other;
  EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr);
}

TEST(JoinPickerTest, PrefersSortMergeWhenBothSidesKeySorted) {
  // Key {1} is the leading column of both normalized relations, so both
  // sides are already ordered on it and the merge needs no sort.
  Rng rng(5);
  CountedRelation a = MakeRandom(rng, {1, 2}, 2000, 50);
  CountedRelation b = MakeRandom(rng, {1, 3}, 2000, 50);
  ASSERT_GT(a.NumRows(), 500u);
  ExpectAutoRuns(a, b, "join.sort_merge", "join.hash");
}

TEST(JoinPickerTest, PrefersHashWhenOneSideUnsorted) {
  // Key {2} leads `b` but trails `a`, so `a` is not ordered on it.
  Rng rng(6);
  CountedRelation a = MakeRandom(rng, {1, 2}, 2000, 2000);
  CountedRelation b = MakeRandom(rng, {2, 3}, 2000, 2000);
  ASSERT_FALSE(RowsSortedBy(a, std::vector<int>{1}));
  ASSERT_TRUE(RowsSortedBy(b, std::vector<int>{0}));
  ExpectAutoRuns(a, b, "join.hash", "join.sort_merge");
}

TEST(JoinPickerTest, FoldJoinEstimatesOnlyContestedSteps) {
  Rng rng(7);
  CountedRelation small = MakeRandom(rng, {1}, 20, 50);
  CountedRelation small_wide = MakeRandom(rng, {1, 4}, 20, 50);
  CountedRelation left = MakeRandom(rng, {1, 2}, 400, 50);
  CountedRelation right = MakeRandom(rng, {1, 3}, 400, 50);
  ASSERT_LT(small.NumRows(), left.NumRows());
  ASSERT_LT(small.NumRows(), right.NumRows());
  ASSERT_LT(small_wide.NumRows(), left.NumRows());
  ASSERT_LT(small_wide.NumRows(), right.NumRows());

  // {1} then {1,2}: a lone sharing candidate is joined without a count.
  ExecContext lone;
  FoldJoin({&small, &left}, {JoinAlgorithm::kAuto, &lone});
  EXPECT_EQ(lone.FindStats("estimate_join_rows"), nullptr);

  // {1} against {1,2} and {1,3}: both contenders are keyed on the
  // accumulator's attributes, so each join has at most the contender's
  // rows and the contest ranks those bounds without a count.
  ExecContext keyed;
  FoldJoin({&small, &left, &right}, {JoinAlgorithm::kAuto, &keyed});
  EXPECT_EQ(keyed.FindStats("estimate_join_rows"), nullptr);

  // {1,4} against {1,2} and {1,3}: neither side's attributes lie inside
  // the other's, so the first step counts each candidate exactly; the last
  // step has one candidate left.
  ExecContext contested;
  FoldJoin({&small_wide, &left, &right}, {JoinAlgorithm::kAuto, &contested});
  const OperatorStats* est = contested.FindStats("estimate_join_rows");
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est->calls, 2u);
}

// Whatever order FoldJoin's contests pick, by key bounds or by exact
// counts, its output is the join of the pieces: it equals a left-deep
// NaturalJoin chain in input order (grouped after, with a group). Keyed
// sets draw every piece's attributes from one chain {1} ⊂ {1,2} ⊂ ... so
// every contest is key-bounded and nothing is counted.
TEST(JoinPickerTest, FoldJoinMatchesLeftDeepChain) {
  Rng rng(2411);
  const std::vector<AttributeSet> chain = {
      {1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}};
  for (int trial = 0; trial < 120; ++trial) {
    const bool keyed_set = trial % 2 == 0;
    const RandomShape shape{12, 3, false, false, trial % 5 == 0};
    const size_t num_pieces = 2 + rng.NextBounded(3);
    std::vector<CountedRelation> pieces;
    for (size_t i = 0; i < num_pieces; ++i) {
      AttributeSet attrs;
      if (keyed_set) {
        attrs = chain[rng.NextBounded(chain.size())];
      } else {
        while (attrs.empty()) attrs = RandomGroup(rng, {1, 2, 3, 4, 5}, 3);
      }
      pieces.push_back(MakeRandomCounted(rng, attrs, shape));
    }
    std::vector<const CountedRelation*> ptrs;
    for (const CountedRelation& piece : pieces) ptrs.push_back(&piece);
    CountedRelation want = pieces[0];
    AttributeSet scope = pieces[0].attrs();
    for (size_t i = 1; i < pieces.size(); ++i) {
      want = NaturalJoin(want, pieces[i]);
      scope = Union(scope, pieces[i].attrs());
    }
    const std::string what = "trial " + std::to_string(trial);

    ExecContext ctx;
    EXPECT_TRUE(SameRowsUpToOrder(
        want, FoldJoin(ptrs, {JoinAlgorithm::kAuto, &ctx})))
        << what;
    const AttributeSet group = RandomGroup(rng, scope, 3);
    EXPECT_TRUE(SameRowsUpToOrder(
        GroupBySum(want, group),
        FoldJoin(ptrs, {JoinAlgorithm::kAuto, &ctx}, group)))
        << what;
    if (keyed_set) {
      EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr) << what;
    }
  }
}

// --- ExecContext stats ----------------------------------------------------

TEST(ExecContextTest, TSensOverGhdReportsOperatorStats) {
  auto ex = testing::MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  Ghd ghd = MakeTrivialGhd(ex.query, *forest);

  ExecContext ctx;
  TSensOptions options;
  options.join.ctx = &ctx;
  auto result = TSensOverGhd(ex.query, ghd, ex.db, options);
  ASSERT_TRUE(result.ok());

  EXPECT_TRUE(ctx.has_stats());
  const OperatorStats* fold = ctx.FindStats("fold_join");
  ASSERT_NE(fold, nullptr);
  EXPECT_GT(fold->calls, 0u);
  EXPECT_NE(ctx.FindStats("group_by_sum"), nullptr);

  std::string report = RenderExecStats(ctx);
  EXPECT_NE(report.find("fold_join"), std::string::npos);
  EXPECT_NE(report.find("group_by_sum"), std::string::npos);

  ctx.ResetStats();
  EXPECT_FALSE(ctx.has_stats());
  EXPECT_NE(RenderExecStats(ctx).find("none collected"), std::string::npos);
}

TEST(ExecContextTest, StatsAccumulateAcrossCalls) {
  Rng rng(11);
  CountedRelation a = MakeRandom(rng, {1, 2}, 50, 6);
  CountedRelation b = MakeRandom(rng, {2, 3}, 50, 6);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kHash, &ctx};
  NaturalJoin(a, b, opts);
  const OperatorStats* first = ctx.FindStats("join.hash");
  ASSERT_NE(first, nullptr);
  const uint64_t calls_after_one = first->calls;
  NaturalJoin(a, b, opts);
  EXPECT_EQ(ctx.FindStats("join.hash")->calls, calls_after_one + 1);

  ctx.collect_stats = false;
  NaturalJoin(a, b, opts);
  EXPECT_EQ(ctx.FindStats("join.hash")->calls, calls_after_one + 1);
}

// --- Shared sort machinery ------------------------------------------------

TEST(RowSortTest, SortRowsByMatchesReferenceOnRandomInputs) {
  Rng rng(13);
  ExecContext ctx;
  // SortRowsBy's permutation of `r` by `cols` is exactly std::stable_sort's.
  auto expect_reference = [&](const CountedRelation& r,
                              const std::vector<int>& cols,
                              const std::string& what) {
    std::vector<uint32_t> perm;
    SortRowsBy(r, cols, perm, ctx);
    std::vector<uint32_t> expected(r.NumRows());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](uint32_t x, uint32_t y) {
                       return CompareRowsAt(r.Row(x), r.Row(y), cols) < 0;
                     });
    ASSERT_EQ(perm, expected) << what;
  };
  auto make_attrs = [](size_t arity) {
    AttributeSet attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back(static_cast<AttrId>(i + 1));
    return attrs;
  };
  for (int trial = 0; trial < 80; ++trial) {
    // Narrow domains (negatives included), so every key packs into 64
    // bits; up to 600 rows, so both the radix and the std::sort side of
    // 256 run.
    const size_t arity = 1 + trial % 4;
    CountedRelation r(make_attrs(arity));
    const size_t rows = 1 + rng.NextBounded(600);
    std::vector<Value> row(arity);
    for (size_t i = 0; i < rows; ++i) {
      for (auto& v : row) {
        v = static_cast<Value>(rng.NextBounded(trial % 2 ? 4 : 1000));
        if (trial % 5 == 0) v -= 500;
      }
      r.AppendRow(row, Count::One());
    }
    std::vector<int> cols;
    for (size_t c = 0; c < arity; ++c) {
      if (rng.NextBounded(2) == 0) cols.push_back(static_cast<int>(c));
    }
    if (cols.empty()) cols.push_back(static_cast<int>(arity - 1));
    expect_reference(r, cols, "packed trial " + std::to_string(trial));
  }
  // Full-range random values: two or more key columns need more than 64
  // bits together, so these take the comparison path. Row counts fall on
  // both sides of 256, and about half the rows repeat an earlier row, so
  // ties must keep row order.
  for (int trial = 0; trial < 24; ++trial) {
    const size_t arity = 2 + trial % 3;
    CountedRelation r(make_attrs(arity));
    const size_t rows = trial % 2 == 0 ? 2 + rng.NextBounded(254)
                                       : 256 + rng.NextBounded(500);
    std::vector<Value> row(arity);
    for (size_t i = 0; i < rows; ++i) {
      if (i > 0 && rng.NextBounded(2) == 0) {
        const std::span<const Value> earlier = r.Row(rng.NextBounded(i));
        row.assign(earlier.begin(), earlier.end());
      } else {
        for (auto& v : row) v = static_cast<Value>(rng.NextUint64());
      }
      r.AppendRow(row, Count::One());
    }
    // Every column in a random order, or a random subset of two or more.
    std::vector<int> cols(arity);
    std::iota(cols.begin(), cols.end(), 0);
    for (size_t c = arity; c > 1; --c) {
      std::swap(cols[c - 1], cols[rng.NextBounded(c)]);
    }
    if (trial % 3 == 0) cols.resize(2 + rng.NextBounded(arity - 1));
    const PackedKeyLayout layout(cols.size(), [&](size_t j) {
      uint64_t lo = ~uint64_t{0};
      uint64_t hi = 0;
      for (size_t i = 0; i < r.NumRows(); ++i) {
        const uint64_t x =
            OrderedBits(r.Row(i)[static_cast<size_t>(cols[j])]);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      return std::pair{lo, hi};
    });
    ASSERT_FALSE(layout.fits()) << "wide trial " << trial;
    expect_reference(r, cols, "wide trial " + std::to_string(trial));
  }
}

TEST(RowSortTest, DetectsPresortedInput) {
  CountedRelation r({1, 2});
  r.AppendRow({1, 9}, Count::One());
  r.AppendRow({2, 3}, Count::One());
  r.AppendRow({2, 5}, Count::One());
  r.Normalize();
  std::vector<int> prefix{0};
  std::vector<int> trailing{1};
  EXPECT_TRUE(RowsSortedBy(r, prefix));
  EXPECT_FALSE(RowsSortedBy(r, trailing));
}

// Key columns whose value ranges sit exactly at the 64-bit packing limit
// (and one bit past it), with INT64_MIN/INT64_MAX endpoints, negative
// values, duplicate rows (ties broken by row index) and inputs on both
// sides of the 256-row radix cutoff: the permutation must be exactly
// std::stable_sort's.
TEST(RowSortTest, PackedKeyBoundariesMatchStableSort) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  constexpr Value k2to31 = Value{1} << 31;
  constexpr Value k2to32 = Value{1} << 32;
  // Per case: each column's [lo, hi] range. Column widths in bits are
  // noted; the key is the columns in order unless reordered below.
  const std::vector<std::vector<std::pair<Value, Value>>> cases = {
      {{kMin, kMax}},                                   // 64
      {{-5, 5}},                                        // 4
      {{0, k2to32 - 1}, {-k2to31, k2to31 - 1}},         // 32 + 32 = 64
      {{0, k2to32 - 1}, {-k2to32, k2to32 - 1}},         // 32 + 33 = 65
      {{kMin, kMax}, {0, 1}},                           // 64 + 1 = 65
      {{0, 1}, {7, 7}, {kMin, kMax}},                   // 1 + 0 + 64 = 65
      {{-3, 3}, {kMin, kMin + 15}, {kMax - 255, kMax}}, // 3 + 4 + 8
      {{-100, 100}, {0, 1}, {-1, 0}, {-k2to31, k2to31}},  // 8+1+1+33
      {{kMin, kMax}, {kMin, kMax}, {-2, 2}, {5, 9}},    // 64 + 64 + 3 + 3
  };
  Rng rng(29);
  ExecContext ctx;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& ranges = cases[ci];
    const size_t arity = ranges.size();
    // A pool of 6 values per column, endpoints included, so rows repeat.
    std::vector<std::vector<Value>> pools(arity);
    for (size_t c = 0; c < arity; ++c) {
      const auto [lo, hi] = ranges[c];
      const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      pools[c] = {lo, hi};
      for (int k = 0; k < 4; ++k) {
        const uint64_t off =
            span == ~uint64_t{0} ? rng.NextUint64()
                              : rng.NextBounded(span + 1);
        pools[c].push_back(
            static_cast<Value>(static_cast<uint64_t>(lo) + off));
      }
    }
    for (size_t rows : {size_t{100}, size_t{255}, size_t{256}, size_t{700}}) {
      AttributeSet attrs;
      for (size_t c = 0; c < arity; ++c) {
        attrs.push_back(static_cast<AttrId>(c + 1));
      }
      CountedRelation r(attrs);
      std::vector<Value> row(arity);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t c = 0; c < arity; ++c) {
          // Rows 0 and 1 pin every column's range endpoints.
          row[c] = i < 2 ? pools[c][i] : pools[c][rng.NextBounded(6)];
        }
        r.AppendRow(row, Count::One());
      }
      std::vector<int> in_order(arity);
      std::iota(in_order.begin(), in_order.end(), 0);
      std::vector<int> reversed(in_order.rbegin(), in_order.rend());
      for (const std::vector<int>& cols : {in_order, reversed}) {
        std::vector<uint32_t> perm;
        SortRowsBy(r, cols, perm, ctx);
        std::vector<uint32_t> expected(r.NumRows());
        std::iota(expected.begin(), expected.end(), 0);
        std::stable_sort(expected.begin(), expected.end(),
                         [&](uint32_t x, uint32_t y) {
                           return CompareRowsAt(r.Row(x), r.Row(y), cols) < 0;
                         });
        ASSERT_EQ(perm, expected)
            << "case " << ci << " rows " << rows << " cols "
            << (cols == in_order ? "in order" : "reversed");
      }
    }
  }
}

// --- Join output contract: unique, order unspecified but deterministic -----

bool StrictlyIncreasing(const CountedRelation& r) {
  for (size_t i = 1; i < r.NumRows(); ++i) {
    if (CompareRows(r.Row(i - 1), r.Row(i)) >= 0) return false;
  }
  return true;
}

// `out` came straight from a kernel: unique rows, non-zero counts, sorted()
// exactly when strictly increasing, and a later Normalize only reorders it.
void ExpectJoinContract(const CountedRelation& out, const std::string& what) {
  EXPECT_TRUE(out.unique()) << what;
  EXPECT_EQ(out.sorted(), StrictlyIncreasing(out)) << what;
  std::vector<std::pair<std::vector<Value>, Count>> rows;
  for (size_t i = 0; i < out.NumRows(); ++i) {
    EXPECT_FALSE(out.CountAt(i).IsZero()) << what << " row " << i;
    rows.emplace_back(std::vector<Value>(out.Row(i).begin(), out.Row(i).end()),
                      out.CountAt(i));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });
  CountedRelation normalized = out;
  normalized.Normalize();
  ASSERT_EQ(normalized.NumRows(), out.NumRows()) << what;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(CompareRows(normalized.Row(i), rows[i].first), 0)
        << what << " row " << i;
    EXPECT_EQ(normalized.CountAt(i), rows[i].second) << what << " row " << i;
  }
}

TEST(JoinContractTest, KernelsReturnUniqueRowsWithoutNormalize) {
  Rng rng(31);
  // Shared keys (hash / sort-merge), a disjoint pair (cross product), and
  // a defaulted covered side (JoinWithDefault).
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {2, 3}}, {{1, 2, 3}, {3, 4}}, {{2}, {1, 2, 3}}, {{1}, {2}}};
  for (int trial = 0; trial < 60; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    CountedRelation a = MakeRandom(rng, attrs_a, 30, 5, trial % 3 == 0);
    CountedRelation b = MakeRandom(rng, attrs_b, 30, 5, trial % 3 == 0);
    for (JoinAlgorithm algo : {JoinAlgorithm::kAuto, JoinAlgorithm::kHash,
                               JoinAlgorithm::kSortMerge}) {
      const std::string what = "trial " + std::to_string(trial) + " algo " +
                               std::to_string(static_cast<int>(algo));
      ExpectJoinContract(NaturalJoin(a, b, {algo}), what);
    }
    CountedRelation covered = MakeRandom(rng, {2}, 4, 5);
    covered.set_default_count(Count(2));
    ExpectJoinContract(NaturalJoin(a.attrs() == AttributeSet{1} ? b : a,
                                   covered),
                       "defaulted trial " + std::to_string(trial));
  }
}

TEST(JoinContractTest, ParallelProbeKeepsContractAndSerialOrder) {
  Rng rng(37);
  // Past the 4096-row partitioned-probe threshold on both sides.
  auto make = [&](AttributeSet attrs) {
    CountedRelation r(std::move(attrs));
    for (int i = 0; i < 12000; ++i) {
      r.AppendRow({static_cast<Value>(rng.NextBounded(3000)),
                   static_cast<Value>(rng.NextBounded(3000))},
                  Count(1 + rng.NextBounded(3)));
    }
    r.Normalize();
    return r;
  };
  CountedRelation a = make({1, 2});
  CountedRelation b = make({2, 3});
  ASSERT_GE(std::min(a.NumRows(), b.NumRows()), 4096u);
  const CountedRelation serial = NaturalJoin(a, b, {JoinAlgorithm::kHash});
  for (int threads : {0, 2, 4, 8}) {
    ExecContext ctx;
    CountedRelation out =
        NaturalJoin(a, b, {JoinAlgorithm::kHash, &ctx, threads});
    const std::string what = "threads " + std::to_string(threads);
    ExpectJoinContract(out, what);
    EXPECT_TRUE(testing::SameRowsInOrder(serial, out)) << what;
    EXPECT_EQ(ctx.FindStats("normalize"), nullptr) << what;
  }
}

TEST(JoinContractTest, SortedFlagTracksOrder) {
  CountedRelation r({1, 2});
  EXPECT_TRUE(r.sorted());  // vacuously, while empty
  r.AppendRow({1, 2}, Count(1));
  r.AppendRow({0, 5}, Count(2));
  EXPECT_FALSE(r.sorted());
  EXPECT_FALSE(r.unique());
  r.MarkUnique();
  EXPECT_TRUE(r.unique());
  EXPECT_FALSE(r.sorted());  // (1,2) before (0,5)
  r.Normalize();
  EXPECT_TRUE(r.sorted());
  EXPECT_TRUE(StrictlyIncreasing(r));
  CountedRelation in_order({1});
  in_order.AppendRow({3}, Count(1));
  in_order.AppendRow({4}, Count(1));
  in_order.MarkUnique();
  EXPECT_TRUE(in_order.sorted());
}

TEST(JoinContractTest, NaturalJoinRejectsRawInput) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation raw({1, 2});
  raw.AppendRow({0, 5}, Count(1));
  raw.AppendRow({0, 5}, Count(1));  // a duplicate Normalize would merge
  CountedRelation b({2, 3});
  b.AppendRow({5, 1}, Count(1));
  b.Normalize();
  EXPECT_DEATH(NaturalJoin(raw, b), "unique");
  EXPECT_DEATH(NaturalJoin(b, raw), "unique");
}

TEST(JoinContractTest, MaxTiesGoToTheSmallestRowInAnyOrder) {
  // Unique, deliberately unsorted rows: (3,1) and (1,1) tie at 5, (2,0)
  // and (0,0) at 2.
  CountedRelation r({1, 2});
  r.AppendRow({3, 1}, Count(5));
  r.AppendRow({2, 0}, Count(2));
  r.AppendRow({1, 1}, Count(5));
  r.AppendRow({-1, 0}, Count(1));
  r.AppendRow({0, 0}, Count(2));
  r.MarkUnique();
  ASSERT_FALSE(r.sorted());
  const size_t arg = r.ArgMaxRow();
  ASSERT_NE(arg, SIZE_MAX);
  EXPECT_EQ(r.Row(arg)[0], 1);

  std::vector<uint32_t> arg_rows;
  CountedRelation g = GroupByMax(r, {2}, &arg_rows);
  ASSERT_EQ(g.NumRows(), 2u);
  EXPECT_TRUE(g.sorted());
  EXPECT_EQ(g.CountAt(0), Count(2));
  EXPECT_EQ(r.Row(arg_rows[0])[0], 0);  // group 0: (0,0) over (2,0)
  EXPECT_EQ(g.CountAt(1), Count(5));
  EXPECT_EQ(r.Row(arg_rows[1])[0], 1);  // group 1: (1,1) over (3,1)
  CountedRelation all = GroupByMax(r, {}, &arg_rows);
  ASSERT_EQ(all.NumRows(), 1u);
  EXPECT_EQ(r.Row(arg_rows[0])[0], 1);
}

}  // namespace
}  // namespace lsens
