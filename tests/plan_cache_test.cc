// Cross-query plan cache: one SensitivityCache serving K overlapping
// queries must (a) stay bit-identical to K independent caches and to
// from-scratch computes after every prefix of a randomized insert/delete
// stream, at thread counts {0, 2, 8}, and (b) actually share: overlapping
// chain prefixes attach to the same canonical store nodes, one delta pass
// repairs each shared node exactly once no matter how many entries depend
// on it, and structurally different projections never share.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sensitivity/incremental.h"
#include "sensitivity/tsens.h"
#include "storage/database.h"
#include "test_util.h"

namespace lsens {
namespace {

void ExpectResultsIdentical(const SensitivityResult& a,
                            const SensitivityResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity) << context;
  EXPECT_EQ(a.argmax_atom, b.argmax_atom) << context;
  ASSERT_EQ(a.atoms.size(), b.atoms.size()) << context;
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const AtomSensitivity& x = a.atoms[i];
    const AtomSensitivity& y = b.atoms[i];
    EXPECT_EQ(x.max_sensitivity, y.max_sensitivity)
        << context << " atom " << i;
    EXPECT_EQ(x.argmax, y.argmax) << context << " atom " << i;
    EXPECT_EQ(x.approximate, y.approximate) << context << " atom " << i;
  }
}

// The overlapping workload: chain queries over a shared relation prefix
//   Q_0: A(x0,x1), B(x1,x2)
//   Q_1: A(x0,x1), B(x1,x2), C(x2,x3)
//   Q_2: A(x0,x1), B(x1,x2), C(x2,x3), D(x3,x4)
//   Q_3: A(x0,x1), B(x1,x2), C(x2,x3), D(x3,x4), E(x4,x5)
// plus a structurally disjoint control P: F(y0,y1), G(y1,y2).
// Every Q_k shares A's source and the top fold chain with its longer
// siblings; interior sources (B in Q_1..Q_3, C in Q_2..Q_3, ...) share
// too because their keep sets agree.
struct Workload {
  Database db;
  std::vector<ConjunctiveQuery> queries;  // Q_0..Q_3, then P
  std::vector<std::string> relations;     // A..E, F, G

  size_t num_chain_queries() const { return queries.size() - 1; }
};

Workload MakeOverlappingWorkload(Rng& rng, int domain) {
  Workload w;
  w.relations = {"A", "B", "C", "D", "E", "F", "G"};
  for (const std::string& name : w.relations) {
    Relation* rel = w.db.AddRelation(name, {"c0", "c1"});
    const size_t rows = 4 + rng.NextBounded(4);
    for (size_t i = 0; i < rows; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(domain)),
                      static_cast<Value>(rng.NextBounded(domain))});
    }
  }
  const std::vector<std::string> chain = {"A", "B", "C", "D", "E"};
  for (size_t len = 2; len <= chain.size(); ++len) {
    ConjunctiveQuery q;
    for (size_t i = 0; i < len; ++i) {
      q.AddAtom(w.db, chain[i],
                {"x" + std::to_string(i), "x" + std::to_string(i + 1)});
    }
    w.queries.push_back(std::move(q));
  }
  ConjunctiveQuery control;
  control.AddAtom(w.db, "F", {"y0", "y1"});
  control.AddAtom(w.db, "G", {"y1", "y2"});
  w.queries.push_back(std::move(control));
  return w;
}

// One randomized batch of 1-3 inserts/deletes against a random relation,
// via the shared seeded-stream generator in test_util.
void MutateRandomRelation(Rng& rng, Workload& w, int domain) {
  testing::ApplyRandomMutation(rng, w.db, w.relations, domain);
}

TSensComputeOptions ThreadedOptions(int threads) {
  TSensComputeOptions options;
  options.join.threads = threads;
  return options;
}

class PlanCacheStreamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// The core contract: a single cache over the overlapping workload is
// bit-identical, after every prefix of a randomized update stream, to K
// independent caches (one per query) and to from-scratch computes.
TEST_P(PlanCacheStreamTest, SharedCacheMatchesIndependentCachesAndScratch) {
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 131 + 7);
  Workload w = MakeOverlappingWorkload(rng, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;  // exercise repair as hard as possible
  SensitivityCache shared(config);
  std::vector<std::unique_ptr<SensitivityCache>> independent;
  for (size_t k = 0; k < w.queries.size(); ++k) {
    independent.push_back(std::make_unique<SensitivityCache>(config));
  }
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 12; ++step) {
    for (size_t k = 0; k < w.queries.size(); ++k) {
      const std::string context =
          "step " + std::to_string(step) + " query " + std::to_string(k);
      auto from_shared = shared.Compute(w.queries[k], w.db, options);
      ASSERT_TRUE(from_shared.ok()) << context << ": "
                                    << from_shared.status().ToString();
      auto from_independent =
          independent[k]->Compute(w.queries[k], w.db, options);
      ASSERT_TRUE(from_independent.ok()) << context;
      ExpectResultsIdentical(*from_shared, *from_independent, context);
      auto fresh = ComputeLocalSensitivity(w.queries[k], w.db, options);
      ASSERT_TRUE(fresh.ok()) << context;
      ExpectResultsIdentical(*from_shared, *fresh, context);
    }
    MutateRandomRelation(rng, w, 3);
  }
  // The chain prefixes overlapped, so the shared cache must actually have
  // shared: fewer store nodes than the independent caches hold combined,
  // reuse on entry construction, and fewer node repairs over the same
  // stream than the independent caches ran combined.
  EXPECT_GT(shared.stats().shared_attaches, 0u);
  uint64_t independent_nodes = 0;
  uint64_t independent_node_repairs = 0;
  for (const auto& cache : independent) {
    independent_nodes += cache->stats().shared_nodes;
    independent_node_repairs += cache->stats().node_repairs;
  }
  EXPECT_LT(shared.stats().shared_nodes, independent_nodes);
  EXPECT_LT(shared.stats().node_repairs, independent_node_repairs);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlanCacheStreamTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(0, 2, 8)));

// One delta against the shared prefix is repaired by exactly one entry's
// pass; every other dependent entry reassembles from already-current
// nodes instead of redoing the repair.
TEST(PlanCacheTest, OneDeltaRepairsSharedNodesOnce) {
  Rng rng(42);
  Workload w = MakeOverlappingWorkload(rng, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  const size_t k = w.num_chain_queries();
  for (size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(cache.Compute(w.queries[i], w.db).ok());
  }
  ASSERT_EQ(cache.stats().misses, k);
  EXPECT_GT(cache.stats().shared_attaches, 0u);

  // Touch only the shared prefix relation A, then refresh every query.
  w.db.Find("A")->AppendRow({1, 1});
  const uint64_t nodes_before = cache.stats().node_repairs;
  for (size_t i = 0; i < k; ++i) {
    auto r = cache.Compute(w.queries[i], w.db);
    ASSERT_TRUE(r.ok());
    auto fresh = ComputeLocalSensitivity(w.queries[i], w.db);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*r, *fresh, "query " + std::to_string(i));
  }
  // Exactly one delta pass ran (first refresh); the other k-1 entries were
  // pure assemblies. Each affected shared node was patched once: A's
  // source is one node for all k entries, so the pass patched strictly
  // fewer nodes than k per-entry repairs would have (A alone would have
  // been patched k times).
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().shared_assemblies, k - 1);
  const uint64_t patched = cache.stats().node_repairs - nodes_before;
  EXPECT_GT(patched, 0u);
  EXPECT_LT(patched, k * 2);  // k entries x (source + >= 1 fold) unshared
}

// Queries that project a relation differently derive different canonical
// signatures and must not share its node — sharing is by structure, not
// by relation name.
TEST(PlanCacheTest, DifferentProjectionsDoNotShare) {
  Database db;
  Relation* a = db.AddRelation("A", {"c0", "c1"});
  Relation* b = db.AddRelation("B", {"c0", "c1"});
  Relation* c = db.AddRelation("C", {"c0", "c1"});
  for (Value v = 0; v < 3; ++v) {
    a->AppendRow({v, v % 2});
    b->AppendRow({v % 2, v});
    c->AppendRow({v, v});
  }
  // q1 joins on A's column 1; q2 joins on A's column 0. A's source table
  // differs (keep col 1 vs keep col 0), so nothing can be reused.
  ConjunctiveQuery q1;
  q1.AddAtom(db, "A", {"x0", "x1"});
  q1.AddAtom(db, "B", {"x1", "x2"});
  ConjunctiveQuery q2;
  q2.AddAtom(db, "A", {"z1", "z0"});
  q2.AddAtom(db, "C", {"z1", "z2"});
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(q1, db).ok());
  const uint64_t attaches_after_q1 = cache.stats().shared_attaches;
  const uint64_t nodes_after_q1 = cache.stats().shared_nodes;
  ASSERT_TRUE(cache.Compute(q2, db).ok());
  EXPECT_EQ(cache.stats().shared_attaches, attaches_after_q1);
  EXPECT_GT(cache.stats().shared_nodes, nodes_after_q1);
  // Both entries still repair independently and correctly.
  a->AppendRow({7, 7});
  for (const ConjunctiveQuery* q : {&q1, &q2}) {
    auto r = cache.Compute(*q, db);
    ASSERT_TRUE(r.ok());
    auto fresh = ComputeLocalSensitivity(*q, db);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*r, *fresh, "projection control");
  }
}

// A byte budget far below the workload's footprint spills shared nodes
// under every entry at once; all results stay correct through the spill /
// reload cycle.
TEST(PlanCacheTest, SpillCascadeStaysCorrectAcrossSharedEntries) {
  Rng rng(7);
  Workload w = MakeOverlappingWorkload(rng, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  config.max_state_bytes = 1;  // nothing repairable fits
  SensitivityCache cache(config);
  const size_t k = w.num_chain_queries();
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < k; ++i) {
      auto r = cache.Compute(w.queries[i], w.db);
      ASSERT_TRUE(r.ok());
      auto fresh = ComputeLocalSensitivity(w.queries[i], w.db);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(
          *r, *fresh,
          "round " + std::to_string(round) + " query " + std::to_string(i));
    }
    EXPECT_EQ(cache.stats().state_bytes, 0u);
    // Mutate chain relations only, so at least the longest chain entry
    // goes stale every round and must take the spilled-state fallback.
    testing::ApplyRandomMutation(rng, w.db, {"A", "B", "C", "D", "E"}, 3);
  }
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_GT(cache.stats().fallback_spilled, 0u);
}

}  // namespace
}  // namespace lsens
