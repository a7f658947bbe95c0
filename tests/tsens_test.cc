#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/exec_context.h"
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

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;

TEST(TSensTest, Figure1LocalSensitivityIsFour) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
  // Example 2.1: the most sensitive tuple is (a2, b2, c1) in R1 —
  // bound on A and B, free on C.
  const AtomSensitivity* best = result->MostSensitive();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->relation, "R1");
  ASSERT_EQ(best->argmax.size(), 2u);
  EXPECT_EQ(best->argmax[0], ex.db.dict().Lookup("a2"));
  EXPECT_EQ(best->argmax[1], ex.db.dict().Lookup("b2"));
  ASSERT_EQ(best->free_vars.size(), 1u);
  EXPECT_EQ(best->free_vars[0], ex.db.attrs().Lookup("C"));
}

TEST(TSensTest, Figure1PerRelationMaxima) {
  auto ex = MakeFigure1Example();
  TSensComputeOptions opts;
  opts.keep_tables = true;
  auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(result.ok());
  // Example 2.1 notes δ((a1,b1,c1) in R1) = 1 (downward). The other two R1
  // rows have no matching R2 pair, so removing/re-adding them changes
  // nothing.
  auto sens = TupleSensitivities(*result, ex.query, ex.db, 0);
  ASSERT_TRUE(sens.ok());
  EXPECT_EQ((*sens)[0], Count(1));       // (a1,b1,c1)
  EXPECT_EQ((*sens)[1], Count::Zero());  // (a1,b2,c1): no R2(a1,b2,·)
  EXPECT_EQ((*sens)[2], Count::Zero());  // (a2,b1,c1): no R2(a2,b1,·)
}

TEST(TSensTest, Figure1DescribeMostSensitive) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->DescribeMostSensitive(ex.db.attrs(), &ex.db.dict()),
            "R1(A=a2, B=b2, C=*) with sensitivity 4");
}

TEST(TSensTest, Figure3PathSensitivity) {
  auto ex = MakeFigure3Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Example 4.1: removing R2(b1,c1) removes all 4 outputs; LS = 4.
  EXPECT_EQ(result->local_sensitivity, Count(4));
  const AtomSensitivity* best = result->MostSensitive();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->relation, "R2");
  ASSERT_EQ(best->argmax.size(), 2u);
  EXPECT_EQ(best->argmax[0], ex.db.dict().Lookup("b1"));
  EXPECT_EQ(best->argmax[1], ex.db.dict().Lookup("c1"));
}

// LS, winner atom, and every atom's max and argmax agree.
void ExpectSameResult(const SensitivityResult& a, const SensitivityResult& b) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity);
  EXPECT_EQ(a.argmax_atom, b.argmax_atom);
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    EXPECT_EQ(a.atoms[i].max_sensitivity, b.atoms[i].max_sensitivity)
        << "atom " << i;
    EXPECT_EQ(a.atoms[i].argmax, b.atoms[i].argmax) << "atom " << i;
  }
}

TEST(TSensTest, Figure3PathAndEngineAgree) {
  // The default plan runs Figure 3 over its chain tree,
  // prefer_path_algorithm = false over its GYO tree.
  auto ex = MakeFigure3Example();
  ASSERT_FALSE(PathOrder(ex.query).empty());
  auto chain = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(chain.ok());
  TSensComputeOptions gyo_opts;
  gyo_opts.prefer_path_algorithm = false;
  auto gyo = ComputeLocalSensitivity(ex.query, ex.db, gyo_opts);
  ASSERT_TRUE(gyo.ok());
  ExpectSameResult(*chain, *gyo);

  auto naive = NaiveLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(chain->local_sensitivity, naive->local_sensitivity);
}

TEST(TSensTest, TiesGoToTheLowestAtomWhateverTheChainOrder) {
  // S(B,C), R(A,B), T(C,D), one row each: PathOrder is [1, 0, 2] and every
  // atom has sensitivity 1, so the winner is decided by the tie rule alone.
  Database db;
  db.AddRelation("S", {"B", "C"})->AppendRow({2, 3});
  db.AddRelation("R", {"A", "B"})->AppendRow({1, 2});
  db.AddRelation("T", {"C", "D"})->AppendRow({3, 4});
  ConjunctiveQuery q;
  q.AddAtom(db, "S", {"B", "C"});
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "T", {"C", "D"});
  ASSERT_EQ(PathOrder(q), (std::vector<int>{1, 0, 2}));

  auto chain = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->local_sensitivity, Count::One());
  EXPECT_EQ(chain->argmax_atom, 0);
  TSensComputeOptions gyo_opts;
  gyo_opts.prefer_path_algorithm = false;
  auto gyo = ComputeLocalSensitivity(q, db, gyo_opts);
  ASSERT_TRUE(gyo.ok());
  ExpectSameResult(*chain, *gyo);

  SensitivityCache cache;
  for (const TSensComputeOptions& opts : {TSensComputeOptions{}, gyo_opts}) {
    auto cached = cache.Compute(q, db, opts);
    ASSERT_TRUE(cached.ok());
    ExpectSameResult(*chain, *cached);
  }
}

TEST(TSensTest, Figure3PerAtomSensitivities) {
  auto ex = MakeFigure3Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // From Section 4.1/4.2 reasoning: δmax per relation = 2, 4, 2, 2.
  EXPECT_EQ(result->atoms[0].max_sensitivity, Count(2));
  EXPECT_EQ(result->atoms[1].max_sensitivity, Count(4));
  EXPECT_EQ(result->atoms[2].max_sensitivity, Count(2));
  EXPECT_EQ(result->atoms[3].max_sensitivity, Count(2));
}

TEST(TSensTest, SingleRelationQueryHasSensitivityOne) {
  // "The problem is trivial when there is only one relation: LS = 1."
  Database db;
  auto* r = db.AddRelation("R", {"A", "B"});
  r->AppendRow({1, 2});
  r->AppendRow({3, 4});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count::One());
}

TEST(TSensTest, EmptyOtherRelationZeroesSensitivityOfJoinPartners) {
  auto ex = MakeFigure3Example();
  ex.db.Find("R4")->Clear();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Nothing can join through R4 except a new R4 tuple itself: paths into
  // R4 still exist (via d1/d2), so LS comes from inserting into R4.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  EXPECT_EQ(result->MostSensitive()->relation, "R4");
}

TEST(TSensTest, DisconnectedComponentsScaleSensitivity) {
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
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Adding one tuple to R creates |T| = 3 new outputs.
  EXPECT_EQ(result->local_sensitivity, Count(3));
  EXPECT_EQ(result->MostSensitive()->relation, "R");
}

TEST(TSensTest, SelectionPredicatesLowerSensitivity) {
  auto ex = MakeFigure3Example();
  // Restrict R3 to C = c1 rows... both R3 rows have C=c1, so restrict D:
  // keep only (c1, d1).
  Predicate p;
  p.var = ex.db.attrs().Lookup("D");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("d1");
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Join output halves; R2(b1,c1) now yields 2*1 = 2.
  EXPECT_EQ(result->local_sensitivity, Count(2));
}

TEST(TSensTest, PredicateOnInsertCandidateFiltersMultiplicityTable) {
  auto ex = MakeFigure3Example();
  // Only allow R2 tuples with B = b2 — the high-sensitivity candidate
  // (b1, c1) is excluded, so R2's best drops to inserting (b2, c1): 0
  // incoming paths... b2 has no incoming paths from R1? R1 has (a1,b1),
  // (a2,b1) only, so B=b2 yields no joins: R2's max sensitivity is 0.
  Predicate p;
  p.var = ex.db.attrs().Lookup("B");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("b2");
  ex.query.AddPredicate(1, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->atoms[1].max_sensitivity, Count::Zero());
  // The query output is now empty, and every other relation's sensitivity
  // is 0 too (no surviving R2 rows to join through).
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
}

TEST(TSensTest, SkipAtomsExcludesFromArgmax) {
  auto ex = MakeFigure3Example();
  TSensComputeOptions opts;
  opts.skip_atoms = {1};  // skip R2, whose max is 4
  auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->atoms[1].skipped);
  EXPECT_EQ(result->local_sensitivity, Count(2));
}

TEST(TSensTest, MaterializeMostSensitiveTuple) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  auto tuple = MaterializeMostSensitiveTuple(*result, ex.query);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->first, 0);  // R1
  ASSERT_EQ(tuple->second.size(), 3u);
  EXPECT_EQ(tuple->second[0], ex.db.dict().Lookup("a2"));
  EXPECT_EQ(tuple->second[1], ex.db.dict().Lookup("b2"));
  // Inserting the materialized tuple changes |Q| by exactly LS.
  auto delta = NaiveTupleSensitivity(ex.query, ex.db, tuple->first,
                                     tuple->second);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, result->local_sensitivity);
}

TEST(TSensTest, RejectsSelfJoins) {
  Database db;
  db.AddRelation("E", {"A", "B"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E", {"A", "B"});
  q.AddAtom(db, "E", {"B", "C"});
  auto result = ComputeLocalSensitivity(q, db);
  EXPECT_EQ(result.status().code(), Status::Code::kUnsupported);
}

TEST(TSensTest, TriangleQueryViaManualGhd) {
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  // Triangles (1,2,3) and (1,2,4); edge (1,2) participates in both.
  e0->AppendRow({1, 2});
  e1->AppendRow({2, 3});
  e1->AppendRow({2, 4});
  e2->AppendRow({3, 1});
  e2->AppendRow({4, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  TSensComputeOptions opts;
  opts.ghd = &*ghd;
  auto result = ComputeLocalSensitivity(q, db, opts);
  ASSERT_TRUE(result.ok());
  // Removing edge (1,2) from E0 kills both triangles.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  EXPECT_EQ(result->MostSensitive()->relation, "E0");
  // Against the oracle.
  NaiveResult naive = *NaiveLocalSensitivity(q, db, {});
  EXPECT_EQ(naive.local_sensitivity, result->local_sensitivity);
}

TEST(TSensTest, StarQueryWithCyclicMultiplicityJoin) {
  // §5.2's hard acyclic example: Q :- R1(A,B,C), R2(A,B), R3(B,C), R4(C,A).
  // The multiplicity table of R1 is a triangle join of the three botjoins.
  Database db;
  auto* r1 = db.AddRelation("R1", {"A", "B", "C"});
  auto* r2 = db.AddRelation("R2", {"A", "B"});
  auto* r3 = db.AddRelation("R3", {"B", "C"});
  auto* r4 = db.AddRelation("R4", {"C", "A"});
  r1->AppendRow({1, 2, 3});
  r2->AppendRow({1, 2});
  r2->AppendRow({1, 2});  // duplicate: multiplicity 2
  r3->AppendRow({2, 3});
  r4->AppendRow({3, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B", "C"});
  q.AddAtom(db, "R2", {"A", "B"});
  q.AddAtom(db, "R3", {"B", "C"});
  q.AddAtom(db, "R4", {"C", "A"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Inserting another copy of (1,2,3) into R1 joins 2*1*1 = 2 ways.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  NaiveResult naive = *NaiveLocalSensitivity(q, db, {});
  EXPECT_EQ(naive.local_sensitivity, result->local_sensitivity);
}

TEST(TSensTest, TopKProducesUpperBound) {
  auto ex = MakeFigure3Example();
  TSensComputeOptions exact_opts;
  auto exact = ComputeLocalSensitivity(ex.query, ex.db, exact_opts);
  ASSERT_TRUE(exact.ok());
  for (size_t k = 1; k <= 4; ++k) {
    TSensComputeOptions opts;
    opts.top_k = k;
    auto approx = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(approx.ok());
    EXPECT_GE(approx->local_sensitivity, exact->local_sensitivity)
        << "k=" << k;
    for (int i = 0; i < ex.query.num_atoms(); ++i) {
      EXPECT_GE(approx->atoms[i].max_sensitivity,
                exact->atoms[i].max_sensitivity)
          << "k=" << k << " atom=" << i;
    }
  }
}

// Figure 3 joined with a second tree U(X), W(X, Y): every δ(t) of the
// path carries the other tree's join size (the §5.4 scale), and vice versa.
// `w_rows` W rows join U's single value; 0 makes that tree's size 0.
testing::PaperExample MakeFigure3WithSecondTree(int w_rows) {
  testing::PaperExample ex = MakeFigure3Example();
  auto* u = ex.db.AddRelation("U", {"X"});
  auto* w = ex.db.AddRelation("W", {"X", "Y"});
  u->AppendRow({1});
  u->AppendRow({1});
  for (int i = 0; i < w_rows; ++i) w->AppendRow({1, i});
  w->AppendRow({2, 0});
  ex.query.AddAtom(ex.db, "U", {"X"});
  ex.query.AddAtom(ex.db, "W", {"X", "Y"});
  return ex;
}

TEST(TSensTest, KeepTablesMatchesNaivePerTuple) {
  // Figure 3 is a path query: its tables come from the chain tree.
  std::vector<testing::PaperExample> instances;
  instances.push_back(MakeFigure1Example());
  instances.push_back(MakeFigure3Example());
  // Disconnected forests, the other tree's join size 4 and 0.
  instances.push_back(MakeFigure3WithSecondTree(2));
  instances.push_back(MakeFigure3WithSecondTree(0));
  // Figure 1 with a predicate on R2's A: R2's table is one component of
  // several pieces sharing A and B, which the predicate filters.
  instances.push_back(MakeFigure1Example());
  Predicate p;
  p.var = instances.back().db.attrs().Lookup("A");
  p.op = Predicate::Op::kNe;
  p.rhs = instances.back().db.dict().Lookup("a1");
  instances.back().query.AddPredicate(1, p);
  for (testing::PaperExample& ex : instances) {
    TSensComputeOptions opts;
    opts.keep_tables = true;
    auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(result.ok());
    for (int atom = 0; atom < ex.query.num_atoms(); ++atom) {
      testing::ExpectTupleSensitivitiesMatchOracle(*result, ex, atom);
    }
  }
}

TEST(DownwardSensitivityTest, Figure1DeletionOnlyView) {
  auto ex = MakeFigure1Example();
  auto down = ComputeDownwardLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  // The global LS (4) comes from an *insertion*; the best deletion is
  // removing R1(a1,b1,c1) (or any tuple on the single join path): δ⁻ = 1.
  EXPECT_EQ(down->local_sensitivity, Count(1));
  auto full = ComputeLocalSensitivity(ex.query, ex.db);
  EXPECT_LE(down->local_sensitivity, full->local_sensitivity);
}

TEST(DownwardSensitivityTest, MatchesDeletionOracleOnRandomInstances) {
  Rng rng(90210);
  testing::RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 6;
  // Figure 3 (a path query, run over its chain tree) and random acyclic
  // instances.
  std::vector<testing::PaperExample> instances;
  instances.push_back(MakeFigure3Example());
  for (int trial = 0; trial < 10; ++trial) {
    instances.push_back(testing::MakeRandomAcyclicInstance(rng, spec));
  }
  for (testing::PaperExample& ex : instances) {
    auto down = ComputeDownwardLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(down.ok());

    // Deletion-only oracle: re-evaluate after removing one copy of each
    // distinct existing tuple.
    auto base = CountQuery(ex.query, ex.db);
    ASSERT_TRUE(base.ok());
    Count best = Count::Zero();
    for (int i = 0; i < ex.query.num_atoms(); ++i) {
      Relation* rel = ex.db.Find(ex.query.atom(i).relation);
      std::vector<std::vector<Value>> rows;
      for (size_t r = 0; r < rel->NumRows(); ++r) {
        rows.push_back(rel->Row(r));
      }
      for (size_t r = 0; r < rows.size(); ++r) {
        // Remove one copy (first occurrence), evaluate, restore.
        size_t pos = SIZE_MAX;
        for (size_t s = 0; s < rel->NumRows(); ++s) {
          if (CompareRows(rel->Row(s), rows[r]) == 0) {
            pos = s;
            break;
          }
        }
        rel->SwapRemoveRow(pos);
        auto removed = CountQuery(ex.query, ex.db);
        rel->AppendRow(rows[r]);
        ASSERT_TRUE(removed.ok());
        best = std::max(best, base->SaturatingSub(*removed));
      }
    }
    EXPECT_EQ(down->local_sensitivity, best)
        << ex.query.ToString(ex.db.attrs());
  }
}

TEST(DownwardSensitivityTest, RejectsTopK) {
  auto ex = MakeFigure1Example();
  TSensComputeOptions opts;
  opts.top_k = 2;
  EXPECT_EQ(ComputeDownwardLocalSensitivity(ex.query, ex.db, opts)
                .status()
                .code(),
            Status::Code::kUnsupported);
}

// --- Dataflow plan: a tree total only where §5.4 reads it -----------------

size_t CountTotalFolds(const TSensDataflow& flow) {
  return static_cast<size_t>(
      std::count_if(flow.folds.begin(), flow.folds.end(),
                    [](const TSensFold& fold) { return fold.total; }));
}

// One tree: nothing reads the root's total, so the root has no ⊥ fold and
// the tree's folds are one ⊥ and one ⊤ per non-root bag.
void ExpectLoneTreePlansNoTotal(const ConjunctiveQuery& q, const Ghd& ghd,
                                const std::vector<int>& skip_atoms) {
  ASSERT_EQ(ghd.forest.trees.size(), 1u);
  auto flow = PlanTSensDataflow(q, ghd, skip_atoms);
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  EXPECT_EQ(CountTotalFolds(*flow), 0u);
  ASSERT_EQ(flow->tree_folds.size(), 1u);
  EXPECT_EQ(flow->tree_folds[0].size(), 2 * (ghd.bags.size() - 1));
}

TEST(TSensDataflowTest, LoneTreePlansNoTotal) {
  auto ex = MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  {
    SCOPED_TRACE("Figure 1");
    ExpectLoneTreePlansNoTotal(ex.query, MakeTrivialGhd(ex.query, *forest),
                               {});
  }

  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  {
    SCOPED_TRACE("q1 chain");
    WorkloadQuery q1 = MakeTpchQ1(db);
    auto plan = ChooseTSensPlan(q1.query, q1.ghd_ptr(), /*allow_path=*/true);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->source, TSensPlan::Source::kPath);
    ExpectLoneTreePlansNoTotal(q1.query, plan->ghd, q1.skip_atoms);
  }
  {
    SCOPED_TRACE("q3 Figure 5a GHD");
    WorkloadQuery q3 = MakeTpchQ3(db);
    ASSERT_TRUE(q3.ghd.has_value());
    ExpectLoneTreePlansNoTotal(q3.query, *q3.ghd, q3.skip_atoms);
  }
}

TEST(TSensDataflowTest, ForestPlansOneTotalPerTreeLastAmongItsBotFolds) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"B", "C"});
  db.AddRelation("T", {"C", "D"});
  db.AddRelation("U", {"X", "Y"});
  db.AddRelation("V", {"Y", "Z"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "U", {"X", "Y"});
  q.AddAtom(db, "S", {"B", "C"});
  q.AddAtom(db, "V", {"Y", "Z"});
  q.AddAtom(db, "T", {"C", "D"});
  auto forest = BuildJoinForestGYO(q);
  ASSERT_TRUE(forest.ok());
  const Ghd ghd = MakeTrivialGhd(q, *forest);
  ASSERT_EQ(ghd.forest.trees.size(), 2u);
  auto flow = PlanTSensDataflow(q, ghd, {});
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  EXPECT_EQ(CountTotalFolds(*flow), 2u);
  ASSERT_EQ(flow->tree_folds.size(), 2u);
  for (size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    // The ⊥ folds come first, one per bag in post-order: the root's last.
    const size_t bags = ghd.forest.trees[t].PostOrder().size();
    const std::vector<int>& folds = flow->tree_folds[t];
    ASSERT_EQ(folds.size(), 2 * bags - 1);
    for (size_t i = 0; i < folds.size(); ++i) {
      const TSensFold& fold = flow->folds[static_cast<size_t>(folds[i])];
      EXPECT_EQ(fold.tree, static_cast<int>(t));
      EXPECT_EQ(fold.total, i == bags - 1) << "fold " << i;
      if (fold.total) {
        EXPECT_TRUE(flow->CapturesJoin(static_cast<size_t>(folds[i])));
      }
    }
  }
}

// The fold and join-count work TSens does on the TPC-H queries depends only
// on the plan and the data, not the thread count: pinned, so a fold or an
// exact count nothing reads shows up here when it comes back. q1 and q2
// settle every join-order contest by key bounds; the T_a components of
// q3's multi-atom bags hold many-to-many contests that still count.
TEST(TSensWorkTest, FoldAndCountCallsArePinned) {
  TpchOptions topts;
  topts.scale = 0.001;
  Database db = MakeTpchDatabase(topts);
  struct Pin {
    WorkloadQuery w;
    uint64_t fold_join;
    uint64_t estimate_join_rows;
  };
  const std::vector<Pin> pins = {{MakeTpchQ1(db), 8, 0},
                                 {MakeTpchQ2(db), 7, 0},
                                 {MakeTpchQ3(db), 12, 8}};
  for (const Pin& pin : pins) {
    for (int threads : {0, 4}) {
      SCOPED_TRACE(pin.w.name + " threads " + std::to_string(threads));
      ExecContext ctx;
      TSensComputeOptions opts;
      opts.ghd = pin.w.ghd_ptr();
      opts.skip_atoms = pin.w.skip_atoms;
      opts.join.ctx = &ctx;
      opts.join.threads = threads;
      ASSERT_TRUE(ComputeLocalSensitivity(pin.w.query, db, opts).ok());
      auto calls = [&](const char* op) {
        const OperatorStats* stats = ctx.FindStats(op);
        return stats == nullptr ? uint64_t{0} : stats->calls;
      };
      EXPECT_EQ(calls("fold_join"), pin.fold_join);
      EXPECT_EQ(calls("estimate_join_rows"), pin.estimate_join_rows);
    }
  }
}

TEST(NaiveTest, Figure1MatchesPaper) {
  auto ex = MakeFigure1Example();
  auto result = NaiveLocalSensitivity(ex.query, ex.db, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
  EXPECT_EQ(result->argmax_atom, 0);
  EXPECT_TRUE(result->argmax_is_insertion);
}

TEST(NaiveTest, TupleSensitivityUpAndDown) {
  auto ex = MakeFigure1Example();
  Value a1 = ex.db.dict().Lookup("a1");
  Value b1 = ex.db.dict().Lookup("b1");
  Value c1 = ex.db.dict().Lookup("c1");
  std::vector<Value> existing{a1, b1, c1};
  auto delta = NaiveTupleSensitivity(ex.query, ex.db, 0, existing);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, Count(1));
}

}  // namespace
}  // namespace lsens
