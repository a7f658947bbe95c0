#include <gtest/gtest.h>

#include "query/enumerate.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeRandomAcyclicInstance;
using testing::MakeRandomTriangleInstance;
using testing::SameRowsInOrder;

TEST(SemijoinTest, FiltersByMatchingKeys) {
  CountedRelation a({1, 2});
  a.AppendRow({0, 5}, Count(2));
  a.AppendRow({1, 6}, Count(3));
  a.Normalize();
  CountedRelation b({2});
  b.AppendRow({5}, Count(99));  // multiplicity irrelevant for semijoin
  b.Normalize();
  CountedRelation r = Semijoin(a, b);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.Row(0)[1], 5);
  EXPECT_EQ(r.CountAt(0), Count(2));  // counts preserved
}

TEST(SemijoinTest, DisjointAttrsDependOnEmptiness) {
  CountedRelation a({1});
  a.AppendRow({7}, Count(1));
  a.Normalize();
  CountedRelation non_empty({2});
  non_empty.AppendRow({0}, Count(1));
  non_empty.Normalize();
  EXPECT_EQ(Semijoin(a, non_empty).NumRows(), 1u);
  CountedRelation empty({2});
  EXPECT_EQ(Semijoin(a, empty).NumRows(), 0u);
}

TEST(EnumerateTest, Figure1FullOutput) {
  auto ex = MakeFigure1Example();
  auto out = EnumerateQuery(ex.query, ex.db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->arity(), 6u);
  EXPECT_EQ(out->TotalCount(), Count::One());
}

TEST(EnumerateTest, MatchesBruteForceOnRandomAcyclic) {
  Rng rng(4242);
  testing::RandomQuerySpec spec;
  for (int trial = 0; trial < 40; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto fast = EnumerateQuery(ex.query, ex.db);
    auto brute = BruteForceJoin(ex.query, ex.db);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(fast->sorted());
    EXPECT_TRUE(SameRowsInOrder(*fast, *brute));
  }
}

TEST(EnumerateTest, MatchesBruteForceOnTriangles) {
  Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomTriangleInstance(rng, 8, 3);
    auto ghd = BuildGhd(ex.query, {{0, 1}, {2}});
    ASSERT_TRUE(ghd.ok());
    auto fast = EnumerateJoin(ex.query, *ghd, ex.db);
    auto brute = BruteForceJoin(ex.query, ex.db);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(fast->sorted());
    EXPECT_TRUE(SameRowsInOrder(*fast, *brute));
  }
}

TEST(EnumerateTest, CountAgreesWithCountQuery) {
  Rng rng(9);
  testing::RandomQuerySpec spec;
  for (int trial = 0; trial < 20; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto enumerated = EnumerateQuery(ex.query, ex.db);
    auto counted = CountQuery(ex.query, ex.db);
    ASSERT_TRUE(enumerated.ok());
    ASSERT_TRUE(counted.ok());
    EXPECT_EQ(enumerated->TotalCount(), *counted);
  }
}

TEST(EnumerateTest, RespectsRowLimit) {
  // Cross-product heavy instance: output larger than the cap.
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  for (Value i = 0; i < 100; ++i) r->AppendRow({i});
  for (Value i = 0; i < 100; ++i) t->AppendRow({i});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  auto limited = EnumerateQuery(q, db, {}, /*max_rows=*/1000);
  EXPECT_EQ(limited.status().code(), Status::Code::kUnsupported);
  auto allowed = EnumerateQuery(q, db, {}, /*max_rows=*/20000);
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->NumRows(), 10000u);
}

TEST(EnumerateTest, SemijoinReductionPreventsBlowup) {
  // A chain where the unreduced join of the first two relations would be
  // quadratic but the final output is empty: enumeration must stay cheap
  // and return empty (this is the point of the Yannakakis reduction).
  Database db;
  auto* r1 = db.AddRelation("R1", {"A", "B"});
  auto* r2 = db.AddRelation("R2", {"B", "C"});
  auto* r3 = db.AddRelation("R3", {"C", "D"});
  for (Value i = 0; i < 200; ++i) {
    r1->AppendRow({i, 0});
    r2->AppendRow({0, i});
    r3->AppendRow({i + 1000, i});  // C values never match R2's
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B"});
  q.AddAtom(db, "R2", {"B", "C"});
  q.AddAtom(db, "R3", {"C", "D"});
  // 200x200 = 40000 pairs before reduction; cap far below that.
  auto out = EnumerateQuery(q, db, {}, /*max_rows=*/5000);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 0u);
}

}  // namespace
}  // namespace lsens
