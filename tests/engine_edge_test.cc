// Edge cases and failure injection for the execution and sensitivity
// engines: degenerate shapes (empty relations, unit relations, saturating
// counts), contract violations (death tests), and option interactions.

#include <gtest/gtest.h>

#include "dp/tsens_dp.h"
#include "query/enumerate.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/incremental.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using testing::MakeFigure3Example;
using testing::MakeRandomAcyclicInstance;

TEST(EngineEdgeTest, PredicateEmptiesARelation) {
  auto ex = MakeFigure3Example();
  // No R3 row has C = <fresh value>; the predicate empties R3.
  Predicate p;
  p.var = ex.db.attrs().Lookup("C");
  p.op = Predicate::Op::kEq;
  p.rhs = 999999;
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Inserting a satisfying R3 tuple could still connect paths: (c,d) with
  // c = 999999 never joins R2 (no such C value), so everything is zero.
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
}

TEST(EngineEdgeTest, PredicateOnSharedValueKeepsInsertionAlive) {
  auto ex = MakeFigure3Example();
  // R3 restricted to C = c1 (which exists): inserting more (c1, d) tuples
  // still joins; LS must stay positive.
  Predicate p;
  p.var = ex.db.attrs().Lookup("C");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("c1");
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->local_sensitivity, Count::Zero());
  // Matches the oracle.
  auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(result->local_sensitivity, naive->local_sensitivity);
}

TEST(EngineEdgeTest, AllRelationsEmpty) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"B", "C"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"B", "C"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Adding one tuple anywhere cannot produce output (the other relation is
  // empty), so LS = 0 and there is no witness.
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
  EXPECT_EQ(result->MostSensitive(), nullptr);
  EXPECT_FALSE(MaterializeMostSensitiveTuple(*result, q).ok());
}

TEST(EngineEdgeTest, LargeCrossProductCountsStayExact) {
  // Five disconnected unary relations, each one distinct tuple duplicated
  // 4096 times: LS = 4096^4 (inserting a fresh tuple into one component
  // multiplies the other four components' totals) — 2^48, well past what a
  // 32-bit counter would hold, exercising the wide-count path end to end.
  Database db;
  ConjunctiveQuery q;
  for (int i = 0; i < 5; ++i) {
    std::string name = "R" + std::to_string(i);
    std::string var = "x" + std::to_string(i);
    auto* rel = db.AddRelation(name, {var});
    for (int r = 0; r < 4096; ++r) rel->AppendRow({7});
    q.AddAtom(db, name, {var});
  }
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  Count expected_total = Count::One();
  for (int i = 0; i < 5; ++i) expected_total *= Count(4096);
  EXPECT_EQ(*count, expected_total);

  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  Count expected_ls = Count::One();
  for (int i = 0; i < 4; ++i) expected_ls *= Count(4096);
  EXPECT_EQ(result->local_sensitivity, expected_ls);
}

TEST(EngineEdgeTest, KeepTablesOnMultiAtomBags) {
  // Per-tuple sensitivities through a GHD whose bag holds two atoms must
  // match the oracle (the multiplicity table folds the co-atom in).
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  e0->AppendRow({1, 2});
  e0->AppendRow({1, 3});
  e1->AppendRow({2, 5});
  e1->AppendRow({3, 5});
  e2->AppendRow({5, 1});
  e2->AppendRow({5, 1});  // duplicate
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  TSensOptions opts;
  opts.keep_tables = true;
  auto result = TSensOverGhd(q, *ghd, db, opts);
  ASSERT_TRUE(result.ok());
  for (int atom = 0; atom < 3; ++atom) {
    auto sens = TupleSensitivities(*result, q, db, atom);
    ASSERT_TRUE(sens.ok());
    const Relation* rel = db.Find(q.atom(atom).relation);
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < rel->NumRows(); ++r) {
      rows.push_back(rel->Row(r));
    }
    NaiveOptions nopts;
    nopts.ghd = &*ghd;
    for (size_t r = 0; r < rows.size(); ++r) {
      auto naive = NaiveTupleSensitivity(q, db, atom, rows[r], nopts);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ((*sens)[r], *naive) << "atom " << atom << " row " << r;
    }
  }
}

TEST(EngineEdgeTest, DisconnectedKeepTablesScalesTables) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  r->AppendRow({1});
  r->AppendRow({1});
  t->AppendRow({5});
  t->AppendRow({6});
  t->AppendRow({7});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  TSensComputeOptions opts;
  opts.keep_tables = true;
  auto result = ComputeLocalSensitivity(q, db, opts);
  ASSERT_TRUE(result.ok());
  // Every R tuple participates in |T| = 3 outputs; every T tuple in 2.
  auto r_sens = TupleSensitivities(*result, q, db, 0);
  ASSERT_TRUE(r_sens.ok());
  EXPECT_EQ((*r_sens)[0], Count(3));
  auto t_sens = TupleSensitivities(*result, q, db, 1);
  ASSERT_TRUE(t_sens.ok());
  EXPECT_EQ((*t_sens)[0], Count(2));
}

TEST(EngineEdgeTest, SkipAtomsNeverRaisesLs) {
  Rng rng(31007);
  testing::RandomQuerySpec spec;
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto full = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(full.ok());
    for (int skip = 0; skip < ex.query.num_atoms(); ++skip) {
      TSensComputeOptions opts;
      opts.skip_atoms = {skip};
      auto partial = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(partial.ok());
      EXPECT_LE(partial->local_sensitivity, full->local_sensitivity);
      EXPECT_TRUE(partial->atoms[static_cast<size_t>(skip)].skipped);
      // And it equals the max over non-skipped atoms of the full run.
      Count expected = Count::Zero();
      for (int a = 0; a < ex.query.num_atoms(); ++a) {
        if (a == skip) continue;
        expected = std::max(expected,
                            full->atoms[static_cast<size_t>(a)]
                                .max_sensitivity);
      }
      EXPECT_EQ(partial->local_sensitivity, expected);
    }
  }
}

// A GHD that does not decompose `q` is InvalidArgument for the cache and
// for TSensDP too, and the cache keeps no node of the failed run.
void ExpectCacheAndDpReject(const ConjunctiveQuery& q, Database& db,
                            const Ghd& ghd) {
  TSensComputeOptions opts;
  opts.ghd = &ghd;
  SensitivityCache cache;
  EXPECT_EQ(cache.Compute(q, db, opts).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(cache.stats().shared_nodes, 0u);
  TSensDpOptions dp;
  dp.ghd = &ghd;
  EXPECT_EQ(RunTSensDp(q, db, 0, dp).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(EngineEdgeTest, GhdOfAnotherQueryIsRejected) {
  // q3's decomposition names atoms 5..7, which q1 (5 atoms) lacks.
  TpchOptions topts;
  topts.scale = 0.0002;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  WorkloadQuery q3 = MakeTpchQ3(db);
  TSensComputeOptions opts;
  opts.ghd = q3.ghd_ptr();
  EXPECT_EQ(ComputeLocalSensitivity(q1.query, db, opts).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(TSensOverGhd(q1.query, *q3.ghd, db).status().code(),
            Status::Code::kInvalidArgument);
  ExpectCacheAndDpReject(q1.query, db, *q3.ghd);
}

TEST(EngineEdgeTest, GhdBagAtomIndicesAreValidated) {
  Rng rng(5);
  auto ex = testing::MakeRandomTriangleInstance(rng, 6, 3);
  auto good = BuildGhd(ex.query, {{0, 1}, {2}});
  ASSERT_TRUE(good.ok());
  for (const std::vector<int>& second_bag :
       {std::vector<int>{-1}, std::vector<int>{3}, std::vector<int>{1},
        std::vector<int>{2, 2}}) {
    Ghd bad = *good;
    bad.bags[1].atom_indices = second_bag;
    TSensComputeOptions opts;
    opts.ghd = &bad;
    EXPECT_EQ(ComputeLocalSensitivity(ex.query, ex.db, opts).status().code(),
              Status::Code::kInvalidArgument)
        << "second bag of size " << second_bag.size();
    ExpectCacheAndDpReject(ex.query, ex.db, bad);
  }
}

TEST(EngineEdgeTest, OutOfRangeSkipAtomsAreRejected) {
  // Figure 3 is a path query: the default facade dispatch runs its chain
  // tree, prefer_path_algorithm = false its GYO tree. Both must refuse.
  auto ex = MakeFigure3Example();
  for (bool prefer_path : {true, false}) {
    for (int skip : {-1, 4, 99}) {
      TSensComputeOptions opts;
      opts.prefer_path_algorithm = prefer_path;
      opts.skip_atoms = {0, skip};
      EXPECT_EQ(ComputeLocalSensitivity(ex.query, ex.db, opts).status().code(),
                Status::Code::kInvalidArgument)
          << "skip " << skip << " prefer_path " << prefer_path;
    }
  }
  // The engine itself refuses one too, under any decomposition.
  auto plan = ChooseTSensPlan(ex.query, nullptr, /*allow_path=*/true);
  ASSERT_TRUE(plan.ok());
  for (int skip : {-1, 4, 99}) {
    TSensOptions opts;
    opts.skip_atoms = {skip};
    EXPECT_EQ(TSensOverGhd(ex.query, plan->ghd, ex.db, opts).status().code(),
              Status::Code::kInvalidArgument)
        << "skip " << skip;
  }
}

TEST(EngineEdgeTest, SearchGhdRefusesHugeQueries) {
  Database db;
  ConjunctiveQuery q;
  for (int i = 0; i < 14; ++i) {
    std::string name = "R" + std::to_string(i);
    db.AddRelation(name, {"a" + std::to_string(i),
                          "a" + std::to_string(i + 1)});
    q.AddAtom(db, name,
              {"a" + std::to_string(i), "a" + std::to_string(i + 1)});
  }
  EXPECT_EQ(SearchGhd(q, 2, /*max_atoms=*/12).status().code(),
            Status::Code::kUnsupported);
}

TEST(EngineEdgeTest, TupleSensitivitiesValidatesInputs) {
  auto ex = MakeFigure3Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(TupleSensitivities(*result, ex.query, ex.db, 0).ok());
  EXPECT_FALSE(TupleSensitivities(*result, ex.query, ex.db, -1).ok());
  EXPECT_FALSE(TupleSensitivities(*result, ex.query, ex.db, 99).ok());

  TSensComputeOptions keep;
  keep.keep_tables = true;
  keep.skip_atoms = {1};
  auto kept = ComputeLocalSensitivity(ex.query, ex.db, keep);
  ASSERT_TRUE(kept.ok());
  auto skipped = TupleSensitivities(*kept, ex.query, ex.db, 1);
  EXPECT_EQ(skipped.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(skipped.status().message().find("skipped"), std::string::npos)
      << skipped.status().ToString();
  ASSERT_TRUE(TupleSensitivities(*kept, ex.query, ex.db, 0).ok());

  // A result computed for another query over the same database: atom 0
  // binds another relation, or the same relation under other variables.
  ConjunctiveQuery reordered;
  reordered.AddAtom(ex.db, "R2", {"B", "C"});
  reordered.AddAtom(ex.db, "R1", {"A", "B"});
  EXPECT_EQ(TupleSensitivities(*kept, reordered, ex.db, 0).status().code(),
            Status::Code::kInvalidArgument);
  ConjunctiveQuery renamed;
  renamed.AddAtom(ex.db, "R1", {"A", "Z"});
  EXPECT_EQ(TupleSensitivities(*kept, renamed, ex.db, 0).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(EngineEdgeDeathTest, DoubleDefaultedJoinIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation a({1});
  a.AppendRow({0}, Count::One());
  a.Normalize();
  a.set_default_count(Count(2));
  CountedRelation b({1});
  b.AppendRow({0}, Count::One());
  b.Normalize();
  b.set_default_count(Count(3));
  EXPECT_DEATH(NaturalJoin(a, b), "at most one defaulted side");
}

TEST(EngineEdgeDeathTest, UncoveredDefaultedJoinIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation a({1});
  a.AppendRow({0}, Count::One());
  a.Normalize();
  CountedRelation b({1, 2});  // attrs not covered by a's
  b.AppendRow({0, 7}, Count::One());
  b.Normalize();
  b.set_default_count(Count(3));
  EXPECT_DEATH(NaturalJoin(a, b), "covered");
}

TEST(EngineEdgeDeathTest, GroupByOnDefaultedRelationIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation r({1, 2});
  r.AppendRow({0, 1}, Count::One());
  r.Normalize();
  r.set_default_count(Count(5));
  EXPECT_DEATH(GroupBySum(r, {1}), "defaulted");
}

}  // namespace
}  // namespace lsens
