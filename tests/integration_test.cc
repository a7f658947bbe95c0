// End-to-end integration tests: the actual §7 evaluation queries on scaled-
// down instances, cross-checked against the naive oracle and brute-force
// evaluation wherever those are feasible.

#include <gtest/gtest.h>

#include "dp/tsens_dp.h"
#include "query/eval.h"
#include "sensitivity/elastic.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "workload/queries.h"
#include "workload/social.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

Database TinyTpch() {
  TpchOptions opts;
  opts.scale = 0.0002;
  return MakeTpchDatabase(opts);
}

Database TinySocial() {
  SocialOptions opts;
  opts.num_nodes = 25;
  opts.num_circles = 30;
  opts.target_directed_edges = 160;
  return MakeSocialDatabase(opts);
}

TEST(IntegrationTest, Q1AgainstOracle) {
  Database db = TinyTpch();
  WorkloadQuery w = MakeTpchQ1(db);
  auto tsens = ComputeLocalSensitivity(w.query, db);
  ASSERT_TRUE(tsens.ok());
  NaiveOptions nopts;
  nopts.max_insert_candidates = 500000;
  auto naive = NaiveLocalSensitivity(w.query, db, nopts);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity);
}

TEST(IntegrationTest, Q2AgainstOracle) {
  Database db = TinyTpch();
  WorkloadQuery w = MakeTpchQ2(db);
  auto tsens = ComputeLocalSensitivity(w.query, db);
  ASSERT_TRUE(tsens.ok());
  NaiveOptions nopts;
  nopts.max_insert_candidates = 500000;
  auto naive = NaiveLocalSensitivity(w.query, db, nopts);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity);
}

TEST(IntegrationTest, FacebookQueriesAgainstOracle) {
  Database db = TinySocial();
  for (auto make :
       {MakeFacebookTriangle, MakeFacebookCycle, MakeFacebookStar}) {
    WorkloadQuery w = make(db);
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    auto tsens = ComputeLocalSensitivity(w.query, db, opts);
    ASSERT_TRUE(tsens.ok()) << w.name;
    NaiveOptions nopts;
    nopts.ghd = w.ghd_ptr();
    nopts.max_insert_candidates = 500000;
    auto naive = NaiveLocalSensitivity(w.query, db, nopts);
    ASSERT_TRUE(naive.ok()) << w.name << ": " << naive.status().ToString();
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity) << w.name;
  }
}

TEST(IntegrationTest, FacebookPathAgainstOracle) {
  Database db = TinySocial();
  WorkloadQuery w = MakeFacebookPath(db);
  auto tsens = ComputeLocalSensitivity(w.query, db);
  ASSERT_TRUE(tsens.ok());
  NaiveOptions nopts;
  nopts.max_insert_candidates = 500000;
  auto naive = NaiveLocalSensitivity(w.query, db, nopts);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity);
}

TEST(IntegrationTest, Q3SkipListStillSound) {
  // Skipping Lineitem's multiplicity table must not change the LS: its
  // tuple sensitivity is at most 1 because its variables are a superkey of
  // the output. Verify by computing with and without the skip.
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery w = MakeTpchQ3(db);
  TSensComputeOptions with_skip;
  with_skip.ghd = w.ghd_ptr();
  with_skip.skip_atoms = w.skip_atoms;
  TSensComputeOptions without_skip;
  without_skip.ghd = w.ghd_ptr();
  auto a = ComputeLocalSensitivity(w.query, db, with_skip);
  auto b = ComputeLocalSensitivity(w.query, db, without_skip);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->local_sensitivity, b->local_sensitivity);
  // And the Lineitem table really is <= 1 everywhere.
  int lineitem_atom = w.skip_atoms[0];
  EXPECT_LE(b->atoms[static_cast<size_t>(lineitem_atom)].max_sensitivity,
            Count(1));
}

TEST(IntegrationTest, MostSensitiveWitnessesVerifyOnAllQueries) {
  TpchOptions topts;
  topts.scale = 0.0005;
  Database tpch = MakeTpchDatabase(topts);
  Database social = TinySocial();
  for (auto& w : MakeAllWorkloadQueries(tpch, social)) {
    Database& db = (w.name.size() == 2) ? tpch : social;
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    opts.skip_atoms = w.skip_atoms;
    auto tsens = ComputeLocalSensitivity(w.query, db, opts);
    ASSERT_TRUE(tsens.ok()) << w.name;
    if (tsens->local_sensitivity.IsZero()) continue;
    auto witness = MaterializeMostSensitiveTuple(*tsens, w.query);
    ASSERT_TRUE(witness.ok()) << w.name;
    NaiveOptions nopts;
    nopts.ghd = w.ghd_ptr();
    auto delta = NaiveTupleSensitivity(w.query, db, witness->first,
                                       witness->second, nopts);
    ASSERT_TRUE(delta.ok()) << w.name;
    EXPECT_EQ(*delta, tsens->local_sensitivity) << w.name;
  }
}

TEST(IntegrationTest, ElasticDominatesTSensOnAllQueries) {
  TpchOptions topts;
  topts.scale = 0.001;
  Database tpch = MakeTpchDatabase(topts);
  Database social = TinySocial();
  for (auto& w : MakeAllWorkloadQueries(tpch, social)) {
    Database& db = (w.name.size() == 2) ? tpch : social;
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    opts.skip_atoms = w.skip_atoms;
    auto tsens = ComputeLocalSensitivity(w.query, db, opts);
    ASSERT_TRUE(tsens.ok()) << w.name;
    for (ElasticMode mode :
         {ElasticMode::kTightened, ElasticMode::kFlexFaithful}) {
      auto elastic = ElasticSensitivity(w.query, db, w.ghd_ptr(), mode);
      ASSERT_TRUE(elastic.ok()) << w.name;
      EXPECT_GE(elastic->local_sensitivity_bound, tsens->local_sensitivity)
          << w.name;
    }
  }
}

TEST(IntegrationTest, TSensDpRunsOnAllQueries) {
  TpchOptions topts;
  topts.scale = 0.002;
  Database tpch = MakeTpchDatabase(topts);
  Database social = TinySocial();
  for (auto& w : MakeAllWorkloadQueries(tpch, social)) {
    Database& db = (w.name.size() == 2) ? tpch : social;
    // ℓ is meant to upper-bound the tuple sensitivity (§6.2); derive it
    // from the instance as a user with domain knowledge would.
    TSensComputeOptions sopts;
    sopts.ghd = w.ghd_ptr();
    sopts.skip_atoms = w.skip_atoms;
    sopts.keep_tables = true;
    auto tsens = ComputeLocalSensitivity(w.query, db, sopts);
    ASSERT_TRUE(tsens.ok()) << w.name;
    auto sens = TupleSensitivities(*tsens, w.query, db, w.private_atom);
    ASSERT_TRUE(sens.ok()) << w.name;
    Count max_delta = Count::Zero();
    for (Count c : *sens) max_delta = std::max(max_delta, c);
    if (max_delta.IsZero()) continue;  // nothing joins; nothing to test

    TSensDpOptions opts;
    opts.epsilon = 100.0;  // near-noiseless smoke check
    opts.ell = 2 * max_delta.ToUint64Saturated();
    opts.seed = 3;
    opts.ghd = w.ghd_ptr();
    auto run = RunTSensDp(w.query, db, w.private_atom, opts);
    ASSERT_TRUE(run.ok()) << w.name << ": " << run.status().ToString();
    if (run->true_answer > 0) {
      EXPECT_LT(run->error() / run->true_answer, 0.2) << w.name;
    }
  }
}

}  // namespace
}  // namespace lsens
