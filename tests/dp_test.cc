#include <gtest/gtest.h>

#include <cmath>

#include "dp/laplace.h"
#include "dp/privsql.h"
#include "dp/svt.h"
#include "dp/truncation.h"
#include "dp/tsens_dp.h"
#include "query/eval.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/social.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using testing::MakeFigure3Example;

TEST(LaplaceTest, ZeroScaleIsDeterministic) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SampleLaplace(rng, 0.0), 0.0);
}

TEST(LaplaceTest, EmpiricalMoments) {
  Rng rng(2);
  const double scale = 3.0;
  const int n = 200000;
  double sum = 0.0;
  double sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = SampleLaplace(rng, scale);
    sum += x;
    sum_abs += std::abs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);         // mean 0
  EXPECT_NEAR(sum_abs / n, scale, 0.05);   // E|X| = scale
}

TEST(LaplaceTest, MechanismCentersOnValue) {
  Rng rng(3);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += LaplaceMechanism(rng, 100.0, /*sensitivity=*/2.0,
                            /*epsilon=*/1.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 0.2);
}

TEST(SvtTest, NearNoiselessStopsAtFirstAboveThreshold) {
  Rng rng(4);
  SparseVector svt(rng, /*epsilon=*/1e6, /*threshold=*/10.0);
  EXPECT_FALSE(svt.Check(3.0));
  EXPECT_FALSE(svt.Check(9.9));
  EXPECT_TRUE(svt.Check(10.1));
  EXPECT_TRUE(svt.exhausted());
}

TEST(SvtTest, NoiseScalesWithQuerySensitivity) {
  // With large query sensitivity, a clearly-below query fires often.
  int fired = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    SparseVector svt(rng, /*epsilon=*/1.0, /*threshold=*/0.0,
                     /*query_sensitivity=*/100.0);
    if (svt.Check(-50.0)) ++fired;
  }
  EXPECT_GT(fired, trials / 10);  // plenty of spurious firings
  // With sensitivity 1, -50 is ~12.5 noise scales below: almost never fires.
  fired = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(5000 + static_cast<uint64_t>(t));
    SparseVector svt(rng, /*epsilon=*/1.0, /*threshold=*/0.0,
                     /*query_sensitivity=*/1.0);
    if (svt.Check(-50.0)) ++fired;
  }
  EXPECT_LT(fired, trials / 100);
}

TEST(TruncationTest, BySensitivityRemovesHighRows) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  r->AppendRow({1});
  r->AppendRow({2});
  r->AppendRow({3});
  std::vector<Count> sens{Count(5), Count(1), Count(3)};
  auto removed = TruncateBySensitivity(db, "R", sens, Count(3));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  ASSERT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->At(0, 0), 2);  // order-stable
  EXPECT_EQ(r->At(1, 0), 3);
}

TEST(TruncationTest, BySensitivityRejectsMisalignedVector) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  r->AppendRow({1});
  EXPECT_FALSE(TruncateBySensitivity(db, "R", {}, Count(1)).ok());
  EXPECT_FALSE(TruncateBySensitivity(db, "S", {Count(1)}, Count(1)).ok());
}

TEST(TruncationTest, ByFrequencyDropsWholeKeys) {
  Database db;
  auto* r = db.AddRelation("R", {"K", "V"});
  r->AppendRow({1, 10});
  r->AppendRow({1, 11});
  r->AppendRow({1, 12});
  r->AppendRow({2, 20});
  auto removed = TruncateByFrequency(db, "R", {0}, 2);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 3u);  // all of key 1 dropped, not just the excess
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 0), 2);
}

TEST(TruncationTest, RowsAboveFrequencyHistogram) {
  Database db;
  auto* r = db.AddRelation("R", {"K"});
  for (int i = 0; i < 3; ++i) r->AppendRow({1});
  for (int i = 0; i < 1; ++i) r->AppendRow({2});
  auto hist = RowsAboveFrequency(db, "R", {0}, 4);
  ASSERT_TRUE(hist.ok());
  // f=0: all 4 rows have freq > 0; f=1: key1's 3 rows; f=2: 3; f=3: 0.
  EXPECT_EQ((*hist)[0], 4u);
  EXPECT_EQ((*hist)[1], 3u);
  EXPECT_EQ((*hist)[2], 3u);
  EXPECT_EQ((*hist)[3], 0u);
  EXPECT_EQ((*hist)[4], 0u);
}

TEST(TruncationTest, KeysAboveFrequencyHistogram) {
  Database db;
  auto* r = db.AddRelation("R", {"K"});
  for (int i = 0; i < 3; ++i) r->AppendRow({1});
  for (int i = 0; i < 2; ++i) r->AppendRow({2});
  r->AppendRow({3});
  auto hist = KeysAboveFrequency(db, "R", {0}, 3);
  ASSERT_TRUE(hist.ok());
  // f=0: keys {1,2,3}; f=1: {1,2}; f=2: {1}; f=3: none.
  EXPECT_EQ((*hist)[0], 3u);
  EXPECT_EQ((*hist)[1], 2u);
  EXPECT_EQ((*hist)[2], 1u);
  EXPECT_EQ((*hist)[3], 0u);
}

// The load-bearing identity behind TSensDP's O(1)-per-threshold truncated
// counts: Q(T(D,i)) == Q(D) − Σ_{t in PR, δ(t) > i} δ(t).
TEST(TSensDpTest, AdditiveTruncatedCountsMatchRealTruncation) {
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);

  TSensComputeOptions opts;
  opts.keep_tables = true;
  opts.prefer_path_algorithm = false;
  auto tsens = ComputeLocalSensitivity(q1.query, db, opts);
  ASSERT_TRUE(tsens.ok());
  auto sens = TupleSensitivities(*tsens, q1.query, db, q1.private_atom);
  ASSERT_TRUE(sens.ok());
  auto full = CountQuery(q1.query, db);
  ASSERT_TRUE(full.ok());

  const std::string pr = q1.query.atom(q1.private_atom).relation;
  for (uint64_t threshold : {0, 1, 5, 20, 60, 1000}) {
    double additive = full->ToDouble();
    for (Count c : *sens) {
      if (c > Count(threshold)) additive -= c.ToDouble();
    }
    Database truncated = db.Clone();
    auto removed =
        TruncateBySensitivity(truncated, pr, *sens, Count(threshold));
    ASSERT_TRUE(removed.ok());
    auto real = CountQuery(q1.query, truncated);
    ASSERT_TRUE(real.ok());
    EXPECT_DOUBLE_EQ(additive, real->ToDouble()) << "threshold " << threshold;
  }
}

// Same identity on a cyclic query (triangle) where tuples of the private
// relation interact through shared endpoints — each output still contains
// exactly one PR tuple, so additivity must hold.
TEST(TSensDpTest, AdditiveTruncatedCountsOnTriangles) {
  SocialOptions sopts;
  sopts.num_nodes = 40;
  sopts.num_circles = 60;
  sopts.target_directed_edges = 500;
  Database db = MakeSocialDatabase(sopts);
  WorkloadQuery tri = MakeFacebookTriangle(db);

  TSensComputeOptions opts;
  opts.keep_tables = true;
  opts.ghd = tri.ghd_ptr();
  auto tsens = ComputeLocalSensitivity(tri.query, db, opts);
  ASSERT_TRUE(tsens.ok());
  auto sens = TupleSensitivities(*tsens, tri.query, db, tri.private_atom);
  ASSERT_TRUE(sens.ok());
  auto full = CountQuery(tri.query, db, {}, tri.ghd_ptr());
  ASSERT_TRUE(full.ok());

  const std::string pr = tri.query.atom(tri.private_atom).relation;
  for (uint64_t threshold : {0, 1, 2, 4, 8}) {
    double additive = full->ToDouble();
    for (Count c : *sens) {
      if (c > Count(threshold)) additive -= c.ToDouble();
    }
    Database truncated = db.Clone();
    ASSERT_TRUE(
        TruncateBySensitivity(truncated, pr, *sens, Count(threshold)).ok());
    auto real = CountQuery(tri.query, truncated, {}, tri.ghd_ptr());
    ASSERT_TRUE(real.ok());
    EXPECT_DOUBLE_EQ(additive, real->ToDouble()) << "threshold " << threshold;
  }
}

// TSensDP reads |Q(D)| off the private atom's tuple sensitivities: every
// output tuple holds exactly one private tuple, so Σ_t δ(t) = |Q(D)|.
TEST(TSensDpTest, TrueAnswerIsTheQueryCount) {
  auto expect_count = [](const ConjunctiveQuery& q, const Database& db,
                         int private_atom, const Ghd* ghd,
                         const std::string& name) {
    TSensDpOptions opts;
    opts.ghd = ghd;
    auto run = RunTSensDp(q, db, private_atom, opts);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    auto count = CountQuery(q, db, {}, ghd);
    ASSERT_TRUE(count.ok()) << name;
    EXPECT_GT(count->ToDouble(), 0.0) << name;
    EXPECT_EQ(run->true_answer, count->ToDouble()) << name;
  };
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  expect_count(q1.query, db, q1.private_atom, nullptr, "q1");
  WorkloadQuery q3 = MakeTpchQ3(db);
  expect_count(q3.query, db, q3.private_atom, q3.ghd_ptr(), "q3");

  // A predicate on the private atom: its failing rows have δ = 0.
  ConjunctiveQuery filtered = q1.query;
  const Atom& customer = q1.query.atom(q1.private_atom);
  const Relation* rel = db.Find(customer.relation);
  ASSERT_NE(rel, nullptr);
  ASSERT_GT(rel->NumRows(), 1u);
  filtered.AddPredicate(q1.private_atom,
                        Predicate{customer.vars[0], Predicate::Op::kLe,
                                  rel->At(rel->NumRows() / 2, 0)});
  expect_count(filtered, db, q1.private_atom, nullptr, "q1 with predicate");

  // Two trees: the private atom's δ carries the other tree's size.
  Rng rng(31);
  Database fdb;
  ConjunctiveQuery forest;
  for (const auto& [name, vars] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"F1", {"A", "B"}}, {"F2", {"B", "C"}}, {"F3", {"X", "Y"}}}) {
    Relation* r = fdb.AddRelation(name, vars);
    for (int i = 0; i < 12; ++i) {
      r->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                    static_cast<Value>(rng.NextBounded(3))});
    }
    forest.AddAtom(fdb, name, vars);
  }
  TSensComputeOptions kept;
  kept.keep_tables = true;
  auto tsens = ComputeLocalSensitivity(forest, fdb, kept);
  ASSERT_TRUE(tsens.ok());
  EXPECT_EQ(tsens->atoms[0].factors->scale, Count(12));
  expect_count(forest, fdb, 0, nullptr, "two-tree forest");
}

TEST(TSensDpTest, HighBudgetGivesAccurateAnswers) {
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  TSensDpOptions opts;
  opts.epsilon = 1000.0;  // essentially noiseless
  opts.ell = 2000;        // above the true max tuple sensitivity: no bias
  opts.seed = 7;
  auto run = RunTSensDp(q1.query, db, q1.private_atom, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->true_answer, 0.0);
  EXPECT_LT(run->error() / run->true_answer, 0.01);
  EXPECT_LE(run->learned_threshold, 2000u);
  EXPECT_GE(run->learned_threshold, 1u);
}

TEST(TSensDpTest, DeterministicGivenSeed) {
  TpchOptions topts;
  topts.scale = 0.0005;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  TSensDpOptions opts;
  opts.ell = q1.ell;
  opts.seed = 99;
  auto a = RunTSensDp(q1.query, db, q1.private_atom, opts);
  auto b = RunTSensDp(q1.query, db, q1.private_atom, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->noisy_answer, b->noisy_answer);
  EXPECT_EQ(a->learned_threshold, b->learned_threshold);
  // The same bits at any thread count.
  opts.join.threads = 4;
  auto c = RunTSensDp(q1.query, db, q1.private_atom, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->noisy_answer, c->noisy_answer);
  EXPECT_EQ(a->learned_threshold, c->learned_threshold);
}

TEST(TSensDpTest, RejectsBadParameters) {
  auto ex = MakeFigure3Example();
  TSensDpOptions opts;
  opts.epsilon = -1.0;
  EXPECT_FALSE(RunTSensDp(ex.query, ex.db, 0, opts).ok());
  opts.epsilon = 1.0;
  opts.ell = 0;
  EXPECT_FALSE(RunTSensDp(ex.query, ex.db, 0, opts).ok());
}

TEST(PrivSqlTest, HighBudgetOnQ1IsAccurate) {
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  PrivSqlPolicy policy;
  policy.private_atom = q1.private_atom;  // Customer
  AttrId ck = db.attrs().Lookup("CK");
  AttrId ok = db.attrs().Lookup("OK");
  policy.rules.push_back({/*atom=*/3, {ck}, /*max_threshold=*/128});
  policy.rules.push_back({/*atom=*/4, {ok}, /*max_threshold=*/16});
  PrivSqlOptions opts;
  opts.epsilon = 1000.0;
  opts.seed = 5;
  auto run = RunPrivSql(q1.query, db, policy, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->true_answer, 0.0);
  EXPECT_LT(run->error() / run->true_answer, 0.05);
  EXPECT_GT(run->global_sensitivity, 0.0);
}

TEST(PrivSqlTest, NoRulesMeansNoBias) {
  SocialOptions sopts;
  sopts.num_nodes = 40;
  sopts.num_circles = 60;
  sopts.target_directed_edges = 500;
  Database db = MakeSocialDatabase(sopts);
  WorkloadQuery path = MakeFacebookPath(db);
  PrivSqlPolicy policy;
  policy.private_atom = path.private_atom;
  PrivSqlOptions opts;
  opts.seed = 11;
  auto run = RunPrivSql(path.query, db, policy, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->bias(), 0.0);
  // Static sensitivity must dominate the exact local sensitivity.
  TSensComputeOptions topts2;
  auto tsens = ComputeLocalSensitivity(path.query, db, topts2);
  ASSERT_TRUE(tsens.ok());
  EXPECT_GE(run->global_sensitivity, tsens->local_sensitivity.ToDouble());
}

TEST(TSensDpTest, ErrorShrinksWithEpsilon) {
  // Statistical sanity: averaged over seeds, a 10x larger budget should
  // not give materially worse answers (it strictly dominates in
  // distribution; with 15 seeds we allow a small slack).
  TpchOptions topts;
  topts.scale = 0.002;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  auto mean_error = [&](double epsilon) {
    double total = 0.0;
    const int runs = 15;
    for (int r = 0; r < runs; ++r) {
      TSensDpOptions opts;
      opts.epsilon = epsilon;
      opts.ell = 500;  // above the max customer sensitivity at this scale
      opts.seed = static_cast<uint64_t>(r) + 71;
      auto run = RunTSensDp(q1.query, db, q1.private_atom, opts);
      EXPECT_TRUE(run.ok());
      total += run->error() / run->true_answer;
    }
    return total / runs;
  };
  double loose = mean_error(0.5);
  double tight = mean_error(5.0);
  EXPECT_LT(tight, loose * 1.1 + 0.01);
}

TEST(DpComparisonTest, TSensDpBeatsPrivSqlOnQ2) {
  // q2's PrivSQL policy truncates Partsupp by supplier frequency (a
  // constant-80-per-supplier distribution at full scale) with SVT noise
  // scaled by the policy sensitivity; TSensDP's sensitivity-1 SVT is far
  // more accurate. Compare median errors over repeated runs. The scale
  // must leave headroom |Q| >> ℓ or the Q̂ release drowns in noise (the
  // §7.3 failure regime, covered by the parameter-analysis bench).
  TpchOptions topts;
  topts.scale = 0.005;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q2 = MakeTpchQ2(db);
  AttrId sk = db.attrs().Lookup("SK");
  AttrId pk = db.attrs().Lookup("PK");

  std::vector<double> tsens_err;
  std::vector<double> priv_err;
  for (uint64_t seed = 0; seed < 9; ++seed) {
    TSensDpOptions dopts;
    dopts.ell = 1024;  // above the ~600 lineitems/supplier max at this scale
    dopts.seed = seed;
    auto t = RunTSensDp(q2.query, db, q2.private_atom, dopts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tsens_err.push_back(t->error() / t->true_answer);

    PrivSqlPolicy policy;
    policy.private_atom = q2.private_atom;
    policy.rules.push_back({/*atom=*/0, {sk}, /*max_threshold=*/256});
    policy.rules.push_back({/*atom=*/3, MakeAttributeSet({sk, pk}),
                            /*max_threshold=*/64});
    PrivSqlOptions popts;
    popts.seed = seed;
    auto p = RunPrivSql(q2.query, db, policy, popts);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    priv_err.push_back(p->error() / p->true_answer);
  }
  std::sort(tsens_err.begin(), tsens_err.end());
  std::sort(priv_err.begin(), priv_err.end());
  EXPECT_LT(tsens_err[4], priv_err[4]);  // medians
}

}  // namespace
}  // namespace lsens
