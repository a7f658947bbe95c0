// Property-based tests: TSens must agree exactly with the naive
// re-evaluation oracle (Theorem 3.1) on randomized queries and instances,
// and the execution engine must agree with brute-force join counting.

#include <gtest/gtest.h>

#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::CycleKeys;
using testing::ExpectTupleSensitivitiesMatchOracle;
using testing::MakeRandomAcyclicInstance;
using testing::MakeRandomCycleInstance;
using testing::MakeRandomPathInstance;
using testing::MakeRandomTriangleInstance;
using testing::PairedCycleGhd;
using testing::PaperExample;
using testing::RandomQuerySpec;

class AcyclicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcyclicPropertyTest, CountMatchesBruteForce) {
  Rng rng(GetParam());
  RandomQuerySpec spec;
  for (int trial = 0; trial < 25; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto fast = CountQuery(ex.query, ex.db);
    auto brute = BruteForceCount(ex.query, ex.db);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_EQ(*fast, *brute) << ex.query.ToString(ex.db.attrs());
  }
}

TEST_P(AcyclicPropertyTest, TSensMatchesNaiveOracle) {
  Rng rng(GetParam() ^ 0x5eedULL);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 20; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial << ": " << ex.query.ToString(ex.db.attrs());

    // The reported most sensitive tuple must actually achieve LS.
    if (!tsens->local_sensitivity.IsZero()) {
      auto tuple = MaterializeMostSensitiveTuple(*tsens, ex.query);
      if (tuple.ok()) {
        auto delta = NaiveTupleSensitivity(ex.query, ex.db, tuple->first,
                                           tuple->second);
        ASSERT_TRUE(delta.ok());
        EXPECT_EQ(*delta, tsens->local_sensitivity)
            << ex.query.ToString(ex.db.attrs());
      }
    }
  }
}

// Adds a second connected component S0(y0,y1), S1(y1) to `ex` (1..3 and
// 0..3 rows over {0, 1}), so the query becomes a disconnected forest whose
// other component's join size, the §5.4 scale, ranges over 0..3.
void AddRandomComponent(Rng& rng, PaperExample* ex) {
  auto* s0 = ex->db.AddRelation("S0", {"y0", "y1"});
  auto* s1 = ex->db.AddRelation("S1", {"y1"});
  for (uint64_t r = 1 + rng.NextBounded(3); r > 0; --r) {
    s0->AppendRow({static_cast<Value>(rng.NextBounded(2)),
                   static_cast<Value>(rng.NextBounded(2))});
  }
  for (uint64_t r = rng.NextBounded(4); r > 0; --r) {
    s1->AppendRow({static_cast<Value>(rng.NextBounded(2))});
  }
  ex->query.AddAtom(ex->db, "S0", {"y0", "y1"});
  ex->query.AddAtom(ex->db, "S1", {"y1"});
}

// Every atom's δ(t) against the oracle, over `opts` with keep_tables. With
// `read_only` >= 0 every other atom is skipped, as TSensDP computes it.
void ExpectPerTupleMatchesOracle(PaperExample& ex, TSensComputeOptions opts,
                                 const NaiveOptions& nopts = {},
                                 int read_only = -1) {
  opts.keep_tables = true;
  for (int a = 0; a < ex.query.num_atoms(); ++a) {
    if (read_only >= 0 && a != read_only) opts.skip_atoms.push_back(a);
  }
  auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
  for (int atom = 0; atom < ex.query.num_atoms(); ++atom) {
    if (read_only >= 0 && atom != read_only) continue;
    ExpectTupleSensitivitiesMatchOracle(*tsens, ex, atom, nopts);
  }
}

TEST_P(AcyclicPropertyTest, PerTupleSensitivitiesMatchOracle) {
  Rng rng(GetParam() ^ 0x7a91ULL);
  Rng more(GetParam() ^ 0x7a92ULL);  // the inputs beyond the first
  RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 5;
  for (int trial = 0; trial < 8; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    ExpectPerTupleMatchesOracle(ex, {});
    // Only the atom read is computed.
    const int read = static_cast<int>(
        more.NextBounded(static_cast<uint64_t>(ex.query.num_atoms())));
    ExpectPerTupleMatchesOracle(ex, {}, {}, read);
    // Disconnected forests: every δ(t) carries the other tree's join size.
    // A path's interior atoms also split T_a into two components (⊤ and ⊥
    // share no attribute).
    AddRandomComponent(more, &ex);
    ExpectPerTupleMatchesOracle(ex, {});
    auto path = MakeRandomPathInstance(more, 4, 6, 3);
    AddRandomComponent(more, &path);
    ExpectPerTupleMatchesOracle(path, {});
    // A 4-cycle over its width-2 GHD: each atom's table folds its bag
    // co-atom and the other bag's ⊥ into one multi-piece component, which
    // E0's predicate (half the instances) filters.
    const CycleKeys keys = trial % 2 ? CycleKeys::kUnkeyed : CycleKeys::kKeyed;
    auto cycle = MakeRandomCycleInstance(more, 4, 5, 3, keys);
    const Ghd ghd = PairedCycleGhd(cycle.query);
    TSensComputeOptions cycle_opts;
    cycle_opts.ghd = &ghd;
    NaiveOptions nopts;
    nopts.ghd = &ghd;
    ExpectPerTupleMatchesOracle(cycle, cycle_opts, nopts);
    ExpectPerTupleMatchesOracle(cycle, cycle_opts, nopts, 0);
  }
}

TEST_P(AcyclicPropertyTest, TopKIsAlwaysAnUpperBound) {
  Rng rng(GetParam() ^ 0x70b0ULL);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto exact = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(exact.ok());
    for (size_t k : {1, 2, 3}) {
      TSensComputeOptions opts;
      opts.top_k = k;
      auto approx = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(approx.ok());
      EXPECT_GE(approx->local_sensitivity, exact->local_sensitivity)
          << "k=" << k << " " << ex.query.ToString(ex.db.attrs());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class PathPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathPropertyTest, PathAlgorithmMatchesEngineAndOracle) {
  Rng rng(GetParam() * 7919);
  for (int trial = 0; trial < 12; ++trial) {
    const int m = static_cast<int>(rng.NextInRange(2, 7));
    testing::PaperExample ex = testing::MakeRandomPathInstance(
        rng, m, /*max_rows=*/7, /*domain_size=*/3);
    ASSERT_EQ(PathOrder(ex.query).size(), static_cast<size_t>(m));

    // The default plan runs the chain tree, prefer_path_algorithm = false
    // the GYO tree; both must match each other and the oracle.
    auto chain = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    TSensComputeOptions gyo_opts;
    gyo_opts.prefer_path_algorithm = false;
    auto gyo = ComputeLocalSensitivity(ex.query, ex.db, gyo_opts);
    ASSERT_TRUE(gyo.ok());
    EXPECT_EQ(chain->local_sensitivity, gyo->local_sensitivity);
    EXPECT_EQ(chain->argmax_atom, gyo->argmax_atom);
    for (int i = 0; i < m; ++i) {
      EXPECT_EQ(chain->atoms[i].max_sensitivity, gyo->atoms[i].max_sensitivity)
          << "atom " << i;
      EXPECT_EQ(chain->atoms[i].argmax, gyo->atoms[i].argmax) << "atom " << i;
    }

    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(chain->local_sensitivity, naive->local_sensitivity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class TrianglePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrianglePropertyTest, GhdTSensMatchesNaive) {
  Rng rng(GetParam() * 104729);
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = MakeRandomTriangleInstance(rng, /*max_rows=*/8,
                                         /*domain_size=*/3);
    auto ghd = BuildGhd(ex.query, {{0, 1}, {2}});
    ASSERT_TRUE(ghd.ok());
    TSensComputeOptions opts;
    opts.ghd = &*ghd;
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();

    NaiveOptions nopts;
    nopts.ghd = &*ghd;
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, nopts);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial;

    // GHD evaluation count vs brute force.
    auto fast = CountGhd(ex.query, *ghd, ex.db);
    auto brute = BruteForceCount(ex.query, ex.db);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, *brute);
  }
}

TEST_P(TrianglePropertyTest, AlternativeGhdBagsAgree) {
  Rng rng(GetParam() * 31337 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    auto ex = MakeRandomTriangleInstance(rng, 6, 3);
    std::vector<SensitivityResult> results;
    for (auto bags : {std::vector<std::vector<int>>{{0, 1}, {2}},
                      std::vector<std::vector<int>>{{1, 2}, {0}},
                      std::vector<std::vector<int>>{{0, 2}, {1}}}) {
      auto ghd = BuildGhd(ex.query, bags);
      ASSERT_TRUE(ghd.ok());
      TSensComputeOptions opts;
      opts.ghd = &*ghd;
      auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(tsens.ok());
      results.push_back(*std::move(tsens));
    }
    // The multiplicity tables do not depend on the bags, so neither do the
    // maxima nor their lexmin-among-max argmax rows.
    for (size_t g = 1; g < results.size(); ++g) {
      EXPECT_EQ(results[0].local_sensitivity, results[g].local_sensitivity);
      EXPECT_EQ(results[0].argmax_atom, results[g].argmax_atom);
      for (size_t a = 0; a < results[0].atoms.size(); ++a) {
        EXPECT_EQ(results[0].atoms[a].max_sensitivity,
                  results[g].atoms[a].max_sensitivity)
            << "ghd " << g << " atom " << a;
        EXPECT_EQ(results[0].atoms[a].argmax, results[g].atoms[a].argmax)
            << "ghd " << g << " atom " << a;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrianglePropertyTest,
                         ::testing::Values(1, 2, 3, 4));

class HardAcyclicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HardAcyclicPropertyTest, StarWithCyclicMultiplicityJoinMatchesOracle) {
  // §5.2's worst case for Algorithm 2: Q :- R0(A,B,C), R1(A,B), R2(B,C),
  // R3(C,A) is acyclic, but R0's multiplicity table is the triangle join
  // of the three botjoins (size up to n^{3/2} by the AGM bound). Randomized
  // instances must still match the re-evaluation oracle exactly.
  Rng rng(GetParam() * 7001);
  for (int trial = 0; trial < 8; ++trial) {
    testing::PaperExample ex;
    auto* r0 = ex.db.AddRelation("R0", {"A", "B", "C"});
    auto* r1 = ex.db.AddRelation("R1", {"A", "B"});
    auto* r2 = ex.db.AddRelation("R2", {"B", "C"});
    auto* r3 = ex.db.AddRelation("R3", {"C", "A"});
    auto fill = [&](Relation* rel, uint64_t max_rows) {
      uint64_t rows = rng.NextBounded(max_rows + 1);
      std::vector<Value> row(rel->arity());
      for (uint64_t i = 0; i < rows; ++i) {
        for (auto& v : row) v = static_cast<Value>(rng.NextBounded(3));
        rel->AppendRow(row);
      }
    };
    fill(r0, 6);
    fill(r1, 6);
    fill(r2, 6);
    fill(r3, 6);
    ex.query.AddAtom(ex.db, "R0", {"A", "B", "C"});
    ex.query.AddAtom(ex.db, "R1", {"A", "B"});
    ex.query.AddAtom(ex.db, "R2", {"B", "C"});
    ex.query.AddAtom(ex.db, "R3", {"C", "A"});

    ASSERT_TRUE(IsAcyclic(ex.query));
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial;

    // Per-tuple sensitivities through the cyclic multiplicity join.
    TSensComputeOptions topts;
    topts.keep_tables = true;
    auto with_tables = ComputeLocalSensitivity(ex.query, ex.db, topts);
    ASSERT_TRUE(with_tables.ok());
    ExpectTupleSensitivitiesMatchOracle(*with_tables, ex, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HardAcyclicPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(JoinAlgorithmPropertyTest, SortMergeAndHashAgreeOnQueries) {
  Rng rng(777);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    TSensComputeOptions hash_opts;
    hash_opts.join.algorithm = JoinAlgorithm::kHash;
    TSensComputeOptions merge_opts;
    merge_opts.join.algorithm = JoinAlgorithm::kSortMerge;
    auto a = ComputeLocalSensitivity(ex.query, ex.db, hash_opts);
    auto b = ComputeLocalSensitivity(ex.query, ex.db, merge_opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->local_sensitivity, b->local_sensitivity);
  }
}

}  // namespace
}  // namespace lsens
