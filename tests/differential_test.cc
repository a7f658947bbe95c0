// Differential and randomized sweeps across module boundaries: every
// component with two independent implementations (or an algebraic identity)
// is fuzzed against itself. Parameterized over seeds so failures pinpoint a
// reproducible stream.

#include <gtest/gtest.h>

#include <map>

#include "exec/exec_context.h"
#include "query/enumerate.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "query/parser.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "storage/csv.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using testing::MakeRandomAcyclicInstance;
using testing::RandomQuerySpec;
using testing::SameRowsUpToOrder;

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- join algebra -------------------------------------------------------

TEST_P(SeededTest, JoinIsCommutativeUpToNormalization) {
  Rng rng(GetParam() * 13 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    CountedRelation a({1, 2, 3});
    CountedRelation b({2, 3, 4});
    for (uint64_t i = 0; i < rng.NextBounded(12); ++i) {
      a.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count(1 + rng.NextBounded(4)));
    }
    for (uint64_t i = 0; i < rng.NextBounded(12); ++i) {
      b.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count(1 + rng.NextBounded(4)));
    }
    a.Normalize();
    b.Normalize();
    CountedRelation ab = NaturalJoin(a, b);
    CountedRelation ba = NaturalJoin(b, a);
    EXPECT_TRUE(SameRowsUpToOrder(ab, ba));
  }
}

TEST_P(SeededTest, GroupByConservesTotalCount) {
  Rng rng(GetParam() * 17 + 2);
  for (int trial = 0; trial < 20; ++trial) {
    CountedRelation r({1, 2, 3});
    for (uint64_t i = 0; i < 1 + rng.NextBounded(20); ++i) {
      r.AppendRow({static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4))},
                  Count(1 + rng.NextBounded(5)));
    }
    r.Normalize();
    Count total = r.TotalCount();
    for (AttributeSet group :
         {AttributeSet{}, AttributeSet{1}, AttributeSet{2, 3},
          AttributeSet{1, 2, 3}}) {
      EXPECT_EQ(GroupBySum(r, group).TotalCount(), total);
    }
  }
}

TEST_P(SeededTest, JoinAssociativityOnChains) {
  Rng rng(GetParam() * 19 + 3);
  for (int trial = 0; trial < 15; ++trial) {
    auto random_rel = [&](AttributeSet attrs) {
      CountedRelation r(std::move(attrs));
      for (uint64_t i = 0; i < rng.NextBounded(10); ++i) {
        std::vector<Value> row(r.arity());
        for (auto& v : row) v = static_cast<Value>(rng.NextBounded(3));
        r.AppendRow(row, Count(1 + rng.NextBounded(3)));
      }
      r.Normalize();
      return r;
    };
    CountedRelation a = random_rel({1, 2});
    CountedRelation b = random_rel({2, 3});
    CountedRelation c = random_rel({3, 4});
    CountedRelation left = NaturalJoin(NaturalJoin(a, b), c);
    CountedRelation right = NaturalJoin(a, NaturalJoin(b, c));
    EXPECT_TRUE(SameRowsUpToOrder(left, right));
  }
}

// --- decomposition ------------------------------------------------------

TEST_P(SeededTest, GyoIsDeterministicAndValid) {
  Rng rng(GetParam() * 23 + 4);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto f1 = BuildJoinForestGYO(ex.query);
    auto f2 = BuildJoinForestGYO(ex.query);
    ASSERT_TRUE(f1.ok());
    ASSERT_TRUE(f2.ok());
    ASSERT_EQ(f1->trees.size(), f2->trees.size());
    for (size_t t = 0; t < f1->trees.size(); ++t) {
      EXPECT_EQ(f1->trees[t].members(), f2->trees[t].members());
      EXPECT_EQ(f1->trees[t].root(), f2->trees[t].root());
      EXPECT_TRUE(f1->trees[t].ValidateAgainst(ex.query).ok());
      for (int atom : f1->trees[t].members()) {
        EXPECT_EQ(f1->trees[t].Parent(atom), f2->trees[t].Parent(atom));
      }
    }
  }
}

TEST_P(SeededTest, AllTriangleGhdsCountIdentically) {
  Rng rng(GetParam() * 29 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = testing::MakeRandomTriangleInstance(rng, 7, 3);
    auto brute = BruteForceCount(ex.query, ex.db);
    ASSERT_TRUE(brute.ok());
    for (auto bags : {std::vector<std::vector<int>>{{0, 1}, {2}},
                      std::vector<std::vector<int>>{{1, 2}, {0}},
                      std::vector<std::vector<int>>{{0, 2}, {1}},
                      std::vector<std::vector<int>>{{0, 1, 2}}}) {
      auto ghd = BuildGhd(ex.query, bags);
      ASSERT_TRUE(ghd.ok());
      auto count = CountGhd(ex.query, *ghd, ex.db);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, *brute);
      auto enumerated = EnumerateJoin(ex.query, *ghd, ex.db);
      ASSERT_TRUE(enumerated.ok());
      EXPECT_EQ(enumerated->TotalCount(), *brute);
    }
  }
}

// --- parser round trip --------------------------------------------------

TEST_P(SeededTest, ParserRoundTripsGeneratedQueries) {
  Rng rng(GetParam() * 31 + 6);
  RandomQuerySpec spec;
  spec.predicate_probability = 0.0;  // ToString doesn't render predicates
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    std::string text = ex.query.ToString(ex.db.attrs());
    // ToString renders "Q :- body"; strip the informal head "Q ".
    auto parsed = ParseQuery(text.substr(1), ex.db);
    ASSERT_TRUE(parsed.ok())
        << text << " -> " << parsed.status().ToString();
    ASSERT_EQ(parsed->num_atoms(), ex.query.num_atoms());
    for (int i = 0; i < parsed->num_atoms(); ++i) {
      EXPECT_EQ(parsed->atom(i).relation, ex.query.atom(i).relation);
      EXPECT_EQ(parsed->atom(i).vars, ex.query.atom(i).vars);
    }
    // Same sensitivity either way.
    auto a = ComputeLocalSensitivity(ex.query, ex.db);
    auto b = ComputeLocalSensitivity(*parsed, ex.db);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->local_sensitivity, b->local_sensitivity);
  }
}

// --- storage round trips ------------------------------------------------

TEST_P(SeededTest, CsvRoundTripsRandomRelations) {
  Rng rng(GetParam() * 37 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    auto* rel = db.AddRelation("R", {"a", "b", "c"});
    for (uint64_t i = 0; i < rng.NextBounded(30); ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextInRange(-50, 50)),
                      static_cast<Value>(rng.NextBounded(10)),
                      static_cast<Value>(rng.NextInRange(-5, 5))});
    }
    auto text = SaveCsvText(db, "R");
    ASSERT_TRUE(text.ok());
    Database reloaded;
    ASSERT_TRUE(LoadCsvText(reloaded, "R", *text).ok());
    EXPECT_TRUE(reloaded.Find("R")->IdenticalTo(*db.Find("R")));
  }
}

// --- sensitivity algebra ------------------------------------------------

TEST_P(SeededTest, LsInvariantUnderAtomPermutation) {
  Rng rng(GetParam() * 41 + 8);
  RandomQuerySpec spec;
  spec.max_atoms = 4;
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto base = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(base.ok());
    // Rebuild the query with atoms reversed; the LS must not change.
    ConjunctiveQuery reversed;
    for (int i = ex.query.num_atoms() - 1; i >= 0; --i) {
      reversed.AddAtom(ex.query.atom(i));
    }
    auto flipped = ComputeLocalSensitivity(reversed, ex.db);
    ASSERT_TRUE(flipped.ok());
    EXPECT_EQ(base->local_sensitivity, flipped->local_sensitivity)
        << ex.query.ToString(ex.db.attrs());
  }
}

TEST_P(SeededTest, DuplicatingARowRaisesItsNeighborsNotItself) {
  // Bag-semantics sanity: duplicating tuple t doubles the paths through
  // t's values for *other* relations, while δ(t) itself is unchanged
  // (multiplicity tables exclude the tuple's own relation).
  Rng rng(GetParam() * 43 + 9);
  for (int trial = 0; trial < 10; ++trial) {
    testing::PaperExample ex;
    auto* r = ex.db.AddRelation("R", {"A", "B"});
    auto* s = ex.db.AddRelation("S", {"B", "C"});
    r->AppendRow({1, 2});
    s->AppendRow({2, 3});
    for (uint64_t i = 0; i < rng.NextBounded(4); ++i) r->AppendRow({1, 2});
    ex.query.AddAtom(ex.db, "R", {"A", "B"});
    ex.query.AddAtom(ex.db, "S", {"B", "C"});
    uint64_t copies = r->NumRows();
    auto result = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(result.ok());
    // δ of the S tuple = #R copies; δ of the R tuple = #S rows = 1.
    EXPECT_EQ(result->atoms[1].max_sensitivity, Count(copies));
    EXPECT_EQ(result->atoms[0].max_sensitivity, Count(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- factorized multiplicity max vs materialized tables ------------------
// When only max and argmax are needed and a group determines its join rows,
// TSensOverGhd maxes T_a per factor instead of building it; keep_tables
// forces the materializing path. Both must report the same bits.

uint64_t FactorizedMaxCalls(const ExecContext& ctx) {
  const OperatorStats* s = ctx.FindStats("tsens.factorized_max");
  return s == nullptr ? 0 : s->calls;
}

// Runs `opts` once max-only and once with keep_tables, checks LS, the
// winning atom, and every atom's max/argmax agree, and returns the max-only
// run (its factorized-path call count in *calls).
SensitivityResult ExpectMaxOnlyMatchesTables(const ConjunctiveQuery& q,
                                             const Database& db,
                                             TSensComputeOptions opts,
                                             const std::string& what,
                                             uint64_t* calls) {
  ExecContext ctx;
  opts.join.ctx = &ctx;
  opts.keep_tables = false;
  auto maxed = ComputeLocalSensitivity(q, db, opts);
  EXPECT_TRUE(maxed.ok()) << what << ": " << maxed.status().ToString();
  *calls = FactorizedMaxCalls(ctx);
  opts.join.ctx = nullptr;
  opts.keep_tables = true;
  auto tables = ComputeLocalSensitivity(q, db, opts);
  EXPECT_TRUE(tables.ok()) << what << ": " << tables.status().ToString();
  if (!maxed.ok() || !tables.ok()) return {};
  EXPECT_EQ(maxed->local_sensitivity, tables->local_sensitivity) << what;
  EXPECT_EQ(maxed->argmax_atom, tables->argmax_atom) << what;
  EXPECT_EQ(maxed->atoms.size(), tables->atoms.size()) << what;
  for (size_t a = 0; a < maxed->atoms.size() && a < tables->atoms.size();
       ++a) {
    EXPECT_EQ(maxed->atoms[a].max_sensitivity,
              tables->atoms[a].max_sensitivity)
        << what << " atom " << a;
    EXPECT_EQ(maxed->atoms[a].argmax, tables->atoms[a].argmax)
        << what << " atom " << a;
  }
  return *std::move(maxed);
}

TEST(FactorizedMaxTest, TpchQ3MatchesMaterializedTables) {
  for (double scale : {0.0005, 0.001, 0.002}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      TpchOptions topts;
      topts.scale = scale;
      topts.seed = seed;
      Database db = MakeTpchDatabase(topts);
      WorkloadQuery w = MakeTpchQ3(db);
      for (bool skip : {true, false}) {
        const std::string what = "scale " + std::to_string(scale) + " seed " +
                                 std::to_string(seed) +
                                 (skip ? " skip" : " no skip");
        TSensComputeOptions opts;
        opts.ghd = w.ghd_ptr();
        if (skip) opts.skip_atoms = w.skip_atoms;
        uint64_t calls = 0;
        ExpectMaxOnlyMatchesTables(w.query, db, opts, what, &calls);
        // Orders (CK determines NK), plus Lineitem unless skipped (OK
        // determines NK, NK determines RK).
        EXPECT_EQ(calls, skip ? 1u : 2u) << what;
      }
    }
  }
}

TEST(FactorizedMaxTest, TpchQ3MatchesNaiveOracle) {
  // The oracle re-evaluates q3 once per candidate tuple; scale 0.0001 keeps
  // that to a few thousand evaluations per seed.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TpchOptions topts;
    topts.scale = 0.0001;
    topts.seed = seed;
    Database db = MakeTpchDatabase(topts);
    WorkloadQuery w = MakeTpchQ3(db);
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    uint64_t calls = 0;
    SensitivityResult tsens = ExpectMaxOnlyMatchesTables(
        w.query, db, opts, "seed " + std::to_string(seed), &calls);
    EXPECT_GE(calls, 2u);
    NaiveOptions nopts;
    nopts.ghd = w.ghd_ptr();
    auto naive = NaiveLocalSensitivity(w.query, db, nopts);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_EQ(tsens.local_sensitivity, naive->local_sensitivity)
        << "seed " << seed;
  }
}

TEST(FactorizedMaxTest, KeyedCyclesTakeTheFactorizedPath) {
  Rng rng(4242);
  for (int length : {3, 4}) {
    for (int trial = 0; trial < 25; ++trial) {
      auto ex = testing::MakeRandomCycleInstance(rng, length, 8, 3,
                                                 testing::CycleKeys::kKeyed);
      Ghd ghd = testing::PairedCycleGhd(ex.query);
      TSensComputeOptions opts;
      opts.ghd = &ghd;
      const std::string what = "length " + std::to_string(length) +
                               " trial " + std::to_string(trial);
      uint64_t calls = 0;
      SensitivityResult tsens =
          ExpectMaxOnlyMatchesTables(ex.query, ex.db, opts, what, &calls);
      EXPECT_GE(calls, 1u) << what;
      NaiveOptions nopts;
      nopts.ghd = &ghd;
      auto naive = NaiveLocalSensitivity(ex.query, ex.db, nopts);
      ASSERT_TRUE(naive.ok()) << naive.status().ToString();
      EXPECT_EQ(tsens.local_sensitivity, naive->local_sensitivity) << what;
    }
  }
}

TEST(FactorizedMaxTest, UnkeyedCyclesFallBack) {
  Rng rng(2424);
  for (int length : {3, 4}) {
    for (int trial = 0; trial < 25; ++trial) {
      auto ex = testing::MakeRandomCycleInstance(rng, length, 8, 3,
                                                 testing::CycleKeys::kUnkeyed);
      Ghd ghd = testing::PairedCycleGhd(ex.query);
      TSensComputeOptions opts;
      opts.ghd = &ghd;
      const std::string what = "length " + std::to_string(length) +
                               " trial " + std::to_string(trial);
      uint64_t calls = 0;
      ExpectMaxOnlyMatchesTables(ex.query, ex.db, opts, what, &calls);
      EXPECT_EQ(calls, 0u) << what;
    }
  }
}

// --- TPC-H round trip through CSV (integration) --------------------------

TEST(DifferentialTest, TpchRelationsSurviveCsv) {
  TpchOptions opts;
  opts.scale = 0.0002;
  Database db = MakeTpchDatabase(opts);
  for (const auto& name : db.relation_names()) {
    auto text = SaveCsvText(db, name);
    ASSERT_TRUE(text.ok()) << name;
    Database reloaded;
    ASSERT_TRUE(LoadCsvText(reloaded, name, *text).ok()) << name;
    EXPECT_TRUE(reloaded.Find(name)->IdenticalTo(*db.Find(name))) << name;
  }
}

}  // namespace
}  // namespace lsens
