// The incremental sensitivity subsystem: relation versioning + change
// logs, the DynTable maintenance structure, SensitivityCache behavior
// (hit/repair/fallback counters), and the streaming differential suite —
// after every prefix of a randomized insert/delete stream the cached
// result must be bit-identical to a from-scratch ComputeLocalSensitivity
// (and agree with the naive oracle on tiny instances), at thread counts
// {0, 2, 8} and across every repairable shape: paths, trees,
// attribute-sharing multiplicity pieces, disconnected forests, and cyclic
// queries through searched or explicit GHDs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/dyn_table.h"
#include "exec/exec_context.h"
#include "query/ghd.h"
#include "sensitivity/incremental.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "storage/csv.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;
using testing::MakeRandomAcyclicInstance;
using testing::MakeRandomTriangleInstance;
using testing::PaperExample;
using testing::RandomQuerySpec;
using testing::SameRowsInOrder;

// --- bit-identity helper ------------------------------------------------

void ExpectResultsIdentical(const SensitivityResult& a,
                            const SensitivityResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity) << context;
  EXPECT_EQ(a.argmax_atom, b.argmax_atom) << context;
  ASSERT_EQ(a.atoms.size(), b.atoms.size()) << context;
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const AtomSensitivity& x = a.atoms[i];
    const AtomSensitivity& y = b.atoms[i];
    EXPECT_EQ(x.atom_index, y.atom_index) << context;
    EXPECT_EQ(x.relation, y.relation) << context;
    EXPECT_EQ(x.table_attrs, y.table_attrs) << context;
    EXPECT_EQ(x.free_vars, y.free_vars) << context;
    EXPECT_EQ(x.max_sensitivity, y.max_sensitivity) << context << " atom "
                                                    << i;
    EXPECT_EQ(x.argmax, y.argmax) << context << " atom " << i;
    EXPECT_EQ(x.skipped, y.skipped) << context;
    EXPECT_EQ(x.approximate, y.approximate) << context;
    ASSERT_EQ(x.factors.has_value(), y.factors.has_value()) << context;
    if (x.factors.has_value()) {
      EXPECT_EQ(x.factors->scale, y.factors->scale) << context;
      const std::vector<CountedRelation>& xc = x.factors->components;
      const std::vector<CountedRelation>& yc = y.factors->components;
      ASSERT_EQ(xc.size(), yc.size()) << context;
      for (size_t c = 0; c < xc.size(); ++c) {
        EXPECT_TRUE(SameRowsInOrder(xc[c], yc[c]))
            << context << " atom " << i << " component " << c;
      }
    }
  }
}

// --- storage: versions, change log, ApplyDelta --------------------------

TEST(RelationVersionTest, MutationsBumpMonotonically) {
  Relation rel("R", {"a", "b"});
  EXPECT_EQ(rel.version(), 0u);
  rel.AppendRow({1, 2});
  EXPECT_EQ(rel.version(), 1u);
  rel.AppendRow({3, 4});
  rel.SwapRemoveRow(0);
  EXPECT_EQ(rel.version(), 3u);
  rel.Set(0, 1, 7);
  EXPECT_GE(rel.version(), 4u);
  uint64_t before = rel.version();
  rel.Clear();
  EXPECT_GT(rel.version(), before);
}

TEST(RelationVersionTest, ChangeLogRoundTrips) {
  Relation rel("R", {"a", "b"});
  rel.AppendRow({1, 1});
  std::vector<RowChange> changes;
  // Not enabled yet: cannot answer.
  EXPECT_FALSE(rel.CollectChangesSince(0, &changes));
  rel.EnableChangeLog(16);
  uint64_t v0 = rel.version();
  rel.AppendRow({2, 2});
  rel.SwapRemoveRow(0);  // removes (1, 1)
  ASSERT_TRUE(rel.CollectChangesSince(v0, &changes));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0].insert);
  EXPECT_EQ(changes[0].row, (std::vector<Value>{2, 2}));
  EXPECT_FALSE(changes[1].insert);
  EXPECT_EQ(changes[1].row, (std::vector<Value>{1, 1}));
  EXPECT_EQ(rel.NumChangesSince(v0), 2u);
  // A version inside the window answers with the suffix.
  changes.clear();
  ASSERT_TRUE(rel.CollectChangesSince(v0 + 1, &changes));
  EXPECT_EQ(changes.size(), 1u);
}

TEST(RelationVersionTest, LogWindowAndClearInvalidate) {
  Relation rel("R", {"a"});
  rel.EnableChangeLog(2);
  uint64_t v0 = rel.version();
  rel.AppendRow({1});
  rel.AppendRow({2});
  rel.AppendRow({3});  // evicts the first entry
  std::vector<RowChange> changes;
  EXPECT_FALSE(rel.CollectChangesSince(v0, &changes));
  EXPECT_EQ(rel.NumChangesSince(v0), SIZE_MAX);
  ASSERT_TRUE(rel.CollectChangesSince(v0 + 1, &changes));
  EXPECT_EQ(changes.size(), 2u);
  // A future version cannot be answered either.
  EXPECT_FALSE(rel.CollectChangesSince(rel.version() + 1, &changes));
  rel.Clear();
  EXPECT_FALSE(rel.change_log_enabled());
  EXPECT_FALSE(rel.CollectChangesSince(rel.version(), &changes));
}

TEST(RelationVersionTest, SetLogsEraseTheInsert) {
  Relation rel("R", {"a", "b"});
  rel.AppendRow({1, 2});
  rel.EnableChangeLog(8);
  uint64_t v0 = rel.version();
  rel.Set(0, 1, 9);
  std::vector<RowChange> changes;
  ASSERT_TRUE(rel.CollectChangesSince(v0, &changes));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_FALSE(changes[0].insert);
  EXPECT_EQ(changes[0].row, (std::vector<Value>{1, 2}));
  EXPECT_TRUE(changes[1].insert);
  EXPECT_EQ(changes[1].row, (std::vector<Value>{1, 9}));
}

TEST(RelationVersionTest, ApplyDeltaValidatesBeforeMutating) {
  Relation rel("R", {"a"});
  rel.AppendRow({1});
  rel.AppendRow({2});
  uint64_t v0 = rel.version();
  // Out-of-range and duplicate delete indices, arity-mismatched inserts.
  EXPECT_FALSE(rel.ApplyDelta({}, {5}).ok());
  EXPECT_FALSE(rel.ApplyDelta({}, {0, 0}).ok());
  std::vector<std::vector<Value>> bad = {{1, 2}};
  EXPECT_FALSE(rel.ApplyDelta(bad, {}).ok());
  EXPECT_EQ(rel.version(), v0);
  EXPECT_EQ(rel.NumRows(), 2u);

  std::vector<std::vector<Value>> inserts = {{7}, {8}};
  ASSERT_TRUE(rel.ApplyDelta(inserts, {0, 1}).ok());
  EXPECT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.At(0, 0), 7);
  EXPECT_EQ(rel.At(1, 0), 8);
  EXPECT_EQ(rel.version(), v0 + 4);
}

TEST(DatabaseDeltaTest, RoutesToRelations) {
  Database db;
  Relation* r = db.AddRelation("R", {"a"});
  r->AppendRow({1});
  DatabaseDelta delta;
  delta.push_back(RelationDelta{"R", {{5}}, {0}});
  ASSERT_TRUE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(db.Find("R")->At(0, 0), 5);
  ASSERT_TRUE(db.VersionOf("R").ok());
  EXPECT_EQ(*db.VersionOf("R"), 3u);
  delta[0].relation = "missing";
  EXPECT_EQ(db.ApplyDelta(delta).code(), Status::Code::kNotFound);
  EXPECT_EQ(db.VersionOf("missing").status().code(),
            Status::Code::kNotFound);
}

TEST(DatabaseDeltaTest, PoisonedBatchLeavesEveryRelationUntouched) {
  Database db;
  Relation* a = db.AddRelation("A", {"x"});
  Relation* b = db.AddRelation("B", {"x"});
  a->AppendRow({1});
  b->AppendRow({2});
  a->EnableChangeLog(8);
  uint64_t va = a->version();
  uint64_t vb = b->version();

  // A valid delta for A rides in the same batch as an invalid one for B:
  // the whole batch rejects before anything mutates — A keeps its rows,
  // version, and an empty changelog window.
  DatabaseDelta delta;
  delta.push_back(RelationDelta{"A", {{7}}, {0}});
  delta.push_back(RelationDelta{"B", {}, {5}});  // out-of-range delete
  EXPECT_FALSE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->version(), va);
  EXPECT_EQ(b->version(), vb);
  EXPECT_EQ(a->NumRows(), 1u);
  EXPECT_EQ(a->At(0, 0), 1);
  EXPECT_EQ(a->NumChangesSince(va), 0u);

  // Repeated-name batches validate against the row count earlier entries
  // leave behind: this delete index only exists after the first entry's
  // inserts land.
  delta.clear();
  delta.push_back(RelationDelta{"A", {{8}, {9}}, {}});  // 1 row -> 3 rows
  delta.push_back(RelationDelta{"A", {}, {2}});
  ASSERT_TRUE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->NumRows(), 2u);

  // ...and a later entry that overruns the simulated count rejects the
  // whole batch even though each entry is fine against the current size.
  uint64_t va2 = a->version();
  delta.clear();
  delta.push_back(RelationDelta{"A", {}, {0, 1}});  // 2 rows -> 0 rows
  delta.push_back(RelationDelta{"A", {}, {0}});     // nothing left to delete
  EXPECT_FALSE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->version(), va2);
  EXPECT_EQ(a->NumRows(), 2u);
}

// --- DynTable -----------------------------------------------------------

TEST(DynTableTest, LoadGetSetAdjust) {
  CountedRelation rel({1, 2});
  rel.AppendRow({1, 10}, Count(3));
  rel.AppendRow({2, 20}, Count(5));
  rel.Normalize();
  DynTable table(AttributeSet{1, 2});
  table.Load(rel);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count(3));
  EXPECT_EQ(table.Get(std::vector<Value>{9, 9}), Count::Zero());

  // Adjust up, down, and down-to-erase.
  EXPECT_TRUE(table.Adjust(std::vector<Value>{1, 10}, Count(2), true));
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count(5));
  EXPECT_TRUE(table.Adjust(std::vector<Value>{1, 10}, Count(5), false));
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count::Zero());
  // Removing more than present poisons.
  EXPECT_FALSE(table.Adjust(std::vector<Value>{2, 20}, Count(6), false));
  EXPECT_TRUE(table.saturated());
}

TEST(DynTableTest, SecondaryIndexesFollowMutations) {
  DynTable table(AttributeSet{1, 2});
  int by_first = table.AddIndex({0});
  table.Set(std::vector<Value>{1, 10}, Count(1));
  table.Set(std::vector<Value>{1, 11}, Count(2));
  table.Set(std::vector<Value>{2, 10}, Count(3));
  std::vector<uint32_t> rows;
  table.LookupIndex(by_first, std::vector<Value>{1}, &rows);
  EXPECT_EQ(rows.size(), 2u);
  table.Set(std::vector<Value>{1, 10}, Count::Zero());  // erase
  rows.clear();
  table.LookupIndex(by_first, std::vector<Value>{1}, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(table.RowValues(rows[0])[1], 11);
  // Indexes registered late see existing rows.
  int by_second = table.AddIndex({1});
  rows.clear();
  table.LookupIndex(by_second, std::vector<Value>{10}, &rows);
  EXPECT_EQ(rows.size(), 1u);
  // Slot reuse after erasure keeps indexes coherent.
  table.Set(std::vector<Value>{3, 30}, Count(4));
  rows.clear();
  table.LookupIndex(by_first, std::vector<Value>{3}, &rows);
  EXPECT_EQ(rows.size(), 1u);
}

// --- SensitivityCache behavior ------------------------------------------

TSensComputeOptions ThreadedOptions(int threads) {
  TSensComputeOptions options;
  options.join.threads = threads;
  return options;
}

TEST(SensitivityCacheTest, HitRepairAndLargeDeltaCounters) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 0.26;  // 8 rows: repair up to 2 changes
  SensitivityCache cache(config);
  auto r1 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  auto r2 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  ExpectResultsIdentical(*r1, *r2, "hit");

  // One-row delta: repaired, and identical to a fresh compute.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r3 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r3, *fresh, "repair");

  // A delta larger than the fraction falls back to a full recompute.
  for (int i = 0; i < 6; ++i) ex.db.Find("R1")->AppendRow({i, i});
  auto r4 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(cache.stats().fallback_large_delta, 1u);
  fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r4, *fresh, "large-delta fallback");
}

// A one-row insert that pushes maintained tables across saturation. The
// repair's delta terms saturate there, so those groups re-aggregate in full
// (and poison their node); the answer matches a fresh compute either way.
TEST(SensitivityCacheTest, RepairAcrossSaturationMatchesScratch) {
  // A 17-atom path of relations holding copies of (0, 0): every count is a
  // product of copy counts. With 256 = 2^8 copies each, except 255 in R3
  // and R16, no product over 16 atoms reaches the 2^128 - 1 saturation
  // point; the ⊤ table of R16 holds 255 * 2^120. One more R3 row takes it
  // to 2^128.
  constexpr int kAtoms = 17;
  Database db;
  ConjunctiveQuery q;
  for (int i = 0; i < kAtoms; ++i) {
    const std::string name = "R" + std::to_string(i);
    Relation* rel = db.AddRelation(name, {"L", "R"});
    const int copies = i == 3 || i == kAtoms - 1 ? 255 : 256;
    for (int c = 0; c < copies; ++c) rel->AppendRow({0, 0});
    q.AddAtom(db, name, {"X" + std::to_string(i), "X" + std::to_string(i + 1)});
  }
  SensitivityCache cache;
  auto before = cache.Compute(q, db);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->local_sensitivity.IsSaturated());

  db.Find("R3")->AppendRow({0, 0});
  auto after = cache.Compute(q, db);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->local_sensitivity.IsSaturated());
  auto fresh = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*after, *fresh, "across saturation");
}

TEST(SensitivityCacheTest, StaleLogFallsBack) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.changelog_capacity = 2;
  config.max_delta_fraction = 1000.0;  // never reject on size
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  // Three changes to one relation overflow its 2-entry window.
  Relation* r2 = ex.db.Find("R2");
  r2->AppendRow({1, 1});
  r2->AppendRow({1, 2});
  r2->AppendRow({2, 2});
  auto r = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().fallback_stale, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "stale fallback");
  // The rebuild re-armed the (new) window: a small delta now repairs.
  r2->AppendRow({3, 3});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
}

TEST(SensitivityCacheTest, CyclicQueriesRepairViaGhd) {
  // Cyclic queries repair through their (searched) GHD's bag tables —
  // a data change patches, it no longer recomputes.
  Rng rng(7);
  PaperExample tri = MakeRandomTriangleInstance(rng, 6, 3);
  std::string reason;
  EXPECT_TRUE(SensitivityCache::RepairSupported(tri.query, {}, &reason));
  EXPECT_TRUE(reason.empty()) << reason;
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  auto r1 = cache.Compute(tri.query, tri.db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.Compute(tri.query, tri.db).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  tri.db.Find(tri.query.atom(0).relation)->AppendRow({1, 1});
  auto r2 = cache.Compute(tri.query, tri.db);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
  auto fresh = ComputeLocalSensitivity(tri.query, tri.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r2, *fresh, "cyclic repair");
}

TEST(SensitivityCacheTest, TopKStaysMemoizedWithReason) {
  // Repair maintains exact tables; the top-k approximation deliberately
  // does not repair and stays version-memoized.
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions topk;
  topk.top_k = 1;
  std::string reason;
  EXPECT_FALSE(SensitivityCache::RepairSupported(ex.query, topk, &reason));
  EXPECT_NE(reason.find("top-k"), std::string::npos) << reason;
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, topk).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, topk).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r = cache.Compute(ex.query, ex.db, topk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().fallback_unsupported, 1u);
  EXPECT_EQ(cache.stats().repairs, 0u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, topk);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "top-k memoized");
}

TEST(SensitivityCacheTest, KeepTablesStaysMemoizedWithReason) {
  // keep_tables results carry full multiplicity tables that repair does
  // not patch; they stay version-memoized (and recomputed on change).
  PaperExample fig1 = MakeFigure1Example();
  TSensComputeOptions keep;
  keep.keep_tables = true;
  std::string reason;
  EXPECT_FALSE(SensitivityCache::RepairSupported(fig1.query, keep, &reason));
  EXPECT_NE(reason.find("keep_tables"), std::string::npos) << reason;
  SensitivityCache cache;
  auto kt = cache.Compute(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt.ok());
  Relation* rel = fig1.db.Find(fig1.query.atom(0).relation);
  std::vector<Value> row(rel->arity(), 1);
  rel->AppendRow(row);
  auto kt2 = cache.Compute(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt2.ok());
  EXPECT_EQ(cache.stats().fallback_unsupported, 1u);
  EXPECT_EQ(cache.stats().repairs, 0u);
  auto kt_fresh = ComputeLocalSensitivity(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt_fresh.ok());
  ExpectResultsIdentical(*kt2, *kt_fresh, "keep_tables memoized");
}

TEST(SensitivityCacheTest, DeleteHeavyStreamRepairsDownToEmpty) {
  // The delta gate measures against the pre-delta size (current rows +
  // pending changes), so single-row deletes keep repairing even as the
  // relations shrink to empty — no fraction over 1 against a shrunken
  // size, no division by an emptied relation.
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 0.2;  // the one-change floor carries each step
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  for (const char* name : {"R1", "R2", "R3", "R4"}) {
    Relation* rel = ex.db.Find(name);
    while (rel->NumRows() > 0) {
      rel->SwapRemoveRow(rel->NumRows() - 1);
      auto cached = cache.Compute(ex.query, ex.db);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(*cached, *fresh, std::string("shrink ") + name);
    }
  }
  EXPECT_EQ(ex.db.TotalRows(), 0u);
  // Every one of the 8 deletes repaired in place; the gate never rejected.
  EXPECT_EQ(cache.stats().repairs, 8u);
  EXPECT_EQ(cache.stats().fallback_large_delta, 0u);
  // Growth out of the emptied database repairs too.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto cached = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.stats().repairs, 9u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*cached, *fresh, "regrow");
}

TEST(SensitivityCacheTest, DistinctOptionsGetDistinctEntries) {
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions path_on;
  TSensComputeOptions path_off;
  path_off.prefer_path_algorithm = false;
  EXPECT_NE(SensitivityCache::Fingerprint(ex.query, path_on),
            SensitivityCache::Fingerprint(ex.query, path_off));
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, path_on).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, path_off).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  // The entries are distinct but their source nodes are shared: the first
  // Compute's delta pass repairs every pending node, so the second entry
  // only reassembles from already-current nodes.
  ex.db.Find("R3")->AppendRow({1, 1});
  auto a = cache.Compute(ex.query, ex.db, path_on);
  auto b = cache.Compute(ex.query, ex.db, path_off);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().shared_assemblies, 1u);
  EXPECT_GT(cache.stats().shared_attaches, 0u);
  auto fresh_on = ComputeLocalSensitivity(ex.query, ex.db, path_on);
  auto fresh_off = ComputeLocalSensitivity(ex.query, ex.db, path_off);
  ASSERT_TRUE(fresh_on.ok());
  ASSERT_TRUE(fresh_off.ok());
  ExpectResultsIdentical(*a, *fresh_on, "path engine entry");
  ExpectResultsIdentical(*b, *fresh_off, "tree engine entry");
}

TEST(SensitivityCacheTest, SingleAtomQueryIsConstant) {
  // LS of a one-atom count is 1 on any data, but the cache keeps no special
  // mode for it: the query repairs through its one-bag GHD like any other.
  Database db;
  Relation* rel = db.AddRelation("R", {"a", "b"});
  rel->AppendRow({1, 2});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  SensitivityCache cache;
  auto r1 = cache.Compute(q, db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->local_sensitivity, Count(1));
  rel->AppendRow({3, 4});
  auto r2 = cache.Compute(q, db);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  auto fresh = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r2, *fresh, "single atom insert");
  // Deleting every row still leaves LS 1: one inserted tuple is the answer.
  while (rel->NumRows() > 0) rel->SwapRemoveRow(0);
  auto r3 = cache.Compute(q, db);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->local_sensitivity, Count(1));
  auto fresh_empty = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(fresh_empty.ok());
  ExpectResultsIdentical(*r3, *fresh_empty, "single atom emptied");
}

TEST(SensitivityCacheTest, SkipAtomsFlowThroughRepair) {
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions options;
  options.skip_atoms = {1};
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ex.db.Find("R1")->AppendRow({2, 1});
  auto r = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "skip_atoms");
  EXPECT_TRUE(r->atoms[1].skipped);
}

TEST(SensitivityCacheTest, LruEvictionBoundsEntries) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_entries = 1;
  SensitivityCache cache(config);
  TSensComputeOptions a;
  TSensComputeOptions b;
  b.prefer_path_algorithm = false;  // distinct fingerprint
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, b).ok());  // evicts `a`
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());  // recomputed
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SensitivityCacheTest, ByteBudgetSpillsStateButKeepsResult) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_state_bytes = 1;  // nothing repairable fits
  SensitivityCache cache(config);
  ExecContext ctx;
  TSensComputeOptions options;
  options.join.ctx = &ctx;

  auto r1 = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r1.ok());
  // Every captured node's table was spilled straight away (the spill is
  // node-granular, so the count is one per shared node); the result
  // survives and released nodes account zero bytes.
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_EQ(cache.stats().state_bytes, 0u);
  ASSERT_NE(ctx.FindStats("cache.spill"), nullptr);
  EXPECT_GT(ctx.FindStats("cache.spill")->rows_in, 0u);
  const uint64_t first_spills = cache.stats().spills;

  // Unchanged data: still a pure hit.
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Changed data: the spilled entry recomputes (counted separately from
  // unsupported shapes), stays correct, and is spilled again.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r2 = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().fallback_spilled, 1u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
  EXPECT_GT(cache.stats().spills, first_spills);
  EXPECT_EQ(cache.stats().state_bytes, 0u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r2, *fresh, "spilled recompute");
}

// Builds a second Figure-3-shaped chain over fresh relation names inside
// the same database. The distinct relations give every node a distinct
// canonical signature, so the two queries share nothing and the byte
// budget must pick node victims across entries by recency.
ConjunctiveQuery AddDisjointChain(PaperExample& ex) {
  Dictionary& d = ex.db.dict();
  auto* s1 = ex.db.AddRelation("S1", {"A", "B"});
  auto* s2 = ex.db.AddRelation("S2", {"B", "C"});
  auto* s3 = ex.db.AddRelation("S3", {"C", "D"});
  auto* s4 = ex.db.AddRelation("S4", {"D", "E"});
  auto v = [&](const char* s) { return d.Intern(s); };
  s1->AppendRow({v("a1"), v("b1")});
  s1->AppendRow({v("a2"), v("b1")});
  s2->AppendRow({v("b1"), v("c1")});
  s2->AppendRow({v("b2"), v("c2")});
  s3->AppendRow({v("c1"), v("d1")});
  s3->AppendRow({v("c1"), v("d2")});
  s4->AppendRow({v("d1"), v("e1")});
  s4->AppendRow({v("d2"), v("e1")});
  ConjunctiveQuery q;
  q.AddAtom(ex.db, "S1", {"A", "B"});
  q.AddAtom(ex.db, "S2", {"B", "C"});
  q.AddAtom(ex.db, "S3", {"C", "D"});
  q.AddAtom(ex.db, "S4", {"D", "E"});
  return q;
}

TEST(SensitivityCacheTest, ByteBudgetSpillsLruNodesFirst) {
  PaperExample ex = MakeFigure3Example();
  ConjunctiveQuery q2 = AddDisjointChain(ex);
  // Measure one entry's state footprint with an unbounded cache.
  size_t one_entry_bytes = 0;
  {
    SensitivityCache probe;
    ASSERT_TRUE(probe.Compute(ex.query, ex.db).ok());
    one_entry_bytes = probe.stats().state_bytes;
    ASSERT_GT(one_entry_bytes, 0u);
  }

  // Budget for one entry but not two: the older entry's nodes spill, the
  // hot one keeps repairing.
  SensitivityCacheConfig config;
  config.max_state_bytes = one_entry_bytes + one_entry_bytes / 2;
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  ASSERT_TRUE(cache.Compute(q2, ex.db).ok());
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_LE(cache.stats().state_bytes, config.max_state_bytes);

  // The surviving (recently used) entry still repairs in place.
  ex.db.Find("S1")->AppendRow({0, 1});
  ASSERT_TRUE(cache.Compute(q2, ex.db).ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  // The spilled one recomputes.
  ex.db.Find("R1")->AppendRow({0, 1});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  EXPECT_EQ(cache.stats().fallback_spilled, 1u);
}

// state_bytes charges every maintained table at its full size from the
// moment it is primed, secondary indexes that later-acquired parents add to
// their children included: 200 one-row steps of the update stream (each a
// copy or a removal of a random row, the relation drawn by row count) keep
// repairing q1 and q2 in place and move the gauge by well under 1%.
TEST(SensitivityCacheTest, StateBytesAtPrimingMatchTheRepairedState) {
  TpchOptions tpch;
  tpch.scale = 0.01;
  Database db = MakeTpchDatabase(tpch);
  const std::vector<WorkloadQuery> queries = {MakeTpchQ1(db),
                                              MakeTpchQ2(db)};
  SensitivityCache cache;
  for (const WorkloadQuery& w : queries) {
    ASSERT_TRUE(cache.Compute(w.query, db).ok());
  }
  const double primed = static_cast<double>(cache.stats().state_bytes);
  ASSERT_GT(primed, 0.0);

  Rng rng(2026);
  uint64_t total_rows = 0;
  for (const std::string& name : db.relation_names()) {
    total_rows += db.Find(name)->NumRows();
  }
  for (int step = 0; step < 200; ++step) {
    uint64_t pick = rng.NextBounded(total_rows);
    const Relation* rel = nullptr;
    for (const std::string& name : db.relation_names()) {
      rel = db.Find(name);
      if (pick < rel->NumRows()) break;
      pick -= rel->NumRows();
    }
    RelationDelta rd;
    rd.relation = rel->name();
    if (rng.NextBounded(2) == 0) {
      rd.inserts.push_back(rel->Row(pick));
      ++total_rows;
    } else {
      rd.delete_rows.push_back(pick);
      --total_rows;
    }
    ASSERT_TRUE(db.ApplyDelta({std::move(rd)}).ok());
    for (const WorkloadQuery& w : queries) {
      ASSERT_TRUE(cache.Compute(w.query, db).ok());
    }
  }
  // Every step was answered from the primed state, repaired or shared.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_stale + cache.stats().fallback_large_delta +
                cache.stats().fallback_unsupported +
                cache.stats().fallback_spilled,
            0u);
  const double stepped = static_cast<double>(cache.stats().state_bytes);
  EXPECT_NEAR(primed, stepped, 0.01 * stepped)
      << "primed " << primed << " bytes, after 200 steps " << stepped;
}

TEST(SensitivityCacheTest, RecordsExecContextOps) {
  PaperExample ex = MakeFigure3Example();
  ExecContext ctx;
  TSensComputeOptions options;
  options.join.ctx = &ctx;
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ex.db.Find("R2")->AppendRow({1, 1});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ASSERT_NE(ctx.FindStats("cache.miss"), nullptr);
  ASSERT_NE(ctx.FindStats("cache.hit"), nullptr);
  ASSERT_NE(ctx.FindStats("cache.repair"), nullptr);
  EXPECT_EQ(ctx.FindStats("cache.repair")->calls, 1u);
  EXPECT_GT(ctx.FindStats("cache.repair")->rows_in, 0u);
}

// Peek is the epoch-aware read-only probe the serving layer uses: it hits
// only while the cached entry's relation versions match the database
// exactly, and never mutates cache state (no repair, no LRU touch, no
// stats).
TEST(SensitivityCacheTest, PeekHitsOnlyAtMatchingVersions) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCache cache;
  EXPECT_FALSE(cache.Peek(ex.query, ex.db, {}));  // never computed

  auto computed = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(computed.ok());
  SensitivityResult peeked;
  ASSERT_TRUE(cache.Peek(ex.query, ex.db, {}, &peeked));
  ExpectResultsIdentical(*computed, peeked, "peek after compute");
  EXPECT_TRUE(cache.Peek(ex.query, ex.db, {}));  // out is optional

  // Execution knobs are excluded from the fingerprint: a different thread
  // count still hits.
  TSensComputeOptions threaded;
  threaded.join.threads = 8;
  EXPECT_TRUE(cache.Peek(ex.query, ex.db, threaded));

  // Any version drift makes the entry stale for Peek — it does not repair.
  const uint64_t hits_before = cache.stats().hits;
  ex.db.Find("R3")->AppendRow({1, 1});
  EXPECT_FALSE(cache.Peek(ex.query, ex.db, {}));
  EXPECT_EQ(cache.stats().hits, hits_before);  // Peek never touched stats
  EXPECT_EQ(cache.stats().repairs, 0u);

  // Compute repairs the entry; Peek hits again at the new versions.
  auto repaired = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(repaired.ok());
  ASSERT_TRUE(cache.Peek(ex.query, ex.db, {}, &peeked));
  ExpectResultsIdentical(*repaired, peeked, "peek after repair");
}

// --- streaming differential suite ---------------------------------------

// Applies one randomized batch (1-3 inserts/deletes) to a random relation
// of the query, mixing the direct mutators and the batched ApplyDelta API.
// The generator itself is the shared seeded-stream helper in test_util, so
// this suite, plan_cache_test, and serving_test replay the same workload
// family.
void RandomMutation(Rng& rng, const ConjunctiveQuery& q, Database& db,
                    int domain) {
  testing::ApplyRandomMutation(rng, db, testing::QueryRelationNames(q),
                               domain);
}

class IncrementalStreamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// The core contract: after every prefix of a randomized update stream, the
// cached/incremental result is bit-identical to a from-scratch compute,
// and its LS agrees with the naive oracle.
TEST_P(IncrementalStreamTest, PathQueryPrefixesMatchScratchAndNaive) {
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 97 + 11);
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;  // exercise repair as hard as possible
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 18; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "path step " + std::to_string(step));
    Database clone = ex.db.Clone();
    auto naive = NaiveLocalSensitivity(ex.query, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "path step " << step;
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, PathQueryWithPredicatesMatchesScratch) {
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 41 + 17);
  PaperExample ex = MakeFigure3Example();
  // Predicates on link variables flow into the ⊤/⊥ tracker filters; the
  // one on atom 2 must also drop non-matching delta rows at the source.
  ex.query.AddPredicate(
      1, Predicate{ex.query.atom(1).vars[0], Predicate::Op::kLe, 1});
  ex.query.AddPredicate(
      2, Predicate{ex.query.atom(2).vars[1], Predicate::Op::kNe, 0});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 14; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "pred step " + std::to_string(step));
    if (step % 5 == 4) {
      // Point overwrites repair through the erase+insert log pair.
      Relation* rel = ex.db.Find(ex.query.atom(1).relation);
      if (rel->NumRows() > 0) {
        rel->Set(rng.NextBounded(rel->NumRows()), 0,
                 static_cast<Value>(rng.NextBounded(3)));
      }
    } else {
      RandomMutation(rng, ex.query, ex.db, 3);
    }
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, ScrambledAtomOrderPathMatchesScratch) {
  // Atoms declared against the chain direction: PathOrder's chain and the
  // atom indexing disagree, exercising the order-sensitive reduction.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 59 + 7);
  Database db;
  for (const char* name : {"W", "X", "Y", "Z"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 5; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "Z", {"D", "E"});
  q.AddAtom(db, "X", {"B", "C"});
  q.AddAtom(db, "W", {"A", "B"});
  q.AddAtom(db, "Y", {"C", "D"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 14; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "scrambled step " + std::to_string(step));
    RandomMutation(rng, q, db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, RandomAcyclicPrefixesMatchScratchAndNaive) {
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 131 + 5);
  RandomQuerySpec spec;
  spec.max_rows = 6;
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int trial = 0; trial < 4; ++trial) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    SensitivityCacheConfig config;
    config.max_delta_fraction = 1.0;
    SensitivityCache cache(config);
    for (int step = 0; step < 8; ++step) {
      auto cached = cache.Compute(ex.query, ex.db, options);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(
          *cached, *fresh,
          "trial " + std::to_string(trial) + " step " + std::to_string(step));
      Database clone = ex.db.Clone();
      auto naive = NaiveLocalSensitivity(ex.query, clone);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
          << "trial " << trial << " step " << step;
      RandomMutation(rng, ex.query, ex.db, spec.domain_size + 1);
    }
  }
}

TEST_P(IncrementalStreamTest, TreeEngineEntriesMatchScratch) {
  // prefer_path_algorithm = false runs path-shaped queries over their GYO
  // tree, covering the ⊥/⊤-per-bag repair under a second tree shape.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 151 + 29);
  TSensComputeOptions options = ThreadedOptions(threads);
  options.prefer_path_algorithm = false;
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 14; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "tree step " + std::to_string(step));
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, CyclicPrefixesRepairAndMatchScratchAndNaive) {
  // The triangle goes through the searched GHD: one bag holds two atoms
  // (bag-level join repair), and the per-atom multiplicity components join
  // attribute-sharing pieces. Every prefix must repair, not fall back.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 173 + 3);
  PaperExample ex = MakeRandomTriangleInstance(rng, 6, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "cyclic step " + std::to_string(step));
    Database clone = ex.db.Clone();
    auto naive = NaiveLocalSensitivity(ex.query, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "cyclic step " << step;
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, ExplicitGhdPrefixesRepairAndMatchScratch) {
  // An explicitly supplied decomposition repairs through the same bag
  // machinery as a searched one — and fingerprints as a distinct entry.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 239 + 21);
  PaperExample ex = MakeRandomTriangleInstance(rng, 6, 3);
  auto ghd = BuildGhd(ex.query, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
  TSensComputeOptions options = ThreadedOptions(threads);
  options.ghd = &*ghd;
  EXPECT_NE(SensitivityCache::Fingerprint(ex.query, options),
            SensitivityCache::Fingerprint(ex.query, ThreadedOptions(threads)));
  EXPECT_TRUE(SensitivityCache::RepairSupported(ex.query, options));
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "explicit ghd step " + std::to_string(step));
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, MultiPiecePrefixesRepairAndMatchScratch) {
  // M2 and M3 both bind {B, C}: the T_a pieces for atom M1 share
  // attributes and must be join-repaired, not cross-multiplied.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 211 + 13);
  Database db;
  for (const char* name : {"M1", "M2", "M3"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 5; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "M1", {"A", "B"});
  q.AddAtom(db, "M2", {"B", "C"});
  q.AddAtom(db, "M3", {"B", "C"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 12; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "multi-piece step " + std::to_string(step));
    Database clone = db.Clone();
    auto naive = NaiveLocalSensitivity(q, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "multi-piece step " << step;
    RandomMutation(rng, q, db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, DisconnectedForestPrefixesRepairAndMatch) {
  // Two join trees plus a lone atom: a repair in one tree re-multiplies
  // the other trees' scale factors from the maintained per-tree totals.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 223 + 19);
  Database db;
  for (const char* name : {"D1", "D2", "D3", "D4", "D5"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 4; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "D1", {"A", "B"});
  q.AddAtom(db, "D2", {"B", "C"});
  q.AddAtom(db, "D3", {"X", "Y"});
  q.AddAtom(db, "D4", {"Y", "Z"});
  q.AddAtom(db, "D5", {"U", "V"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  for (int step = 0; step < 12; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "disconnected step " + std::to_string(step));
    RandomMutation(rng, q, db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, CyclicForestPrefixesRepairAndMatch) {
  // The triangle plus a two-atom path: the triangle's tree is rooted at its
  // two-atom bag, so that tree's running total lives on a join node, and a
  // repair there re-multiplies the path atoms' scale factors.
  const auto [seed, threads] = GetParam();
  Rng rng(seed * 257 + 23);
  Database db;
  ConjunctiveQuery q;
  for (const auto& [name, vars] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"G1", {"A", "B"}},
           {"G2", {"B", "C"}},
           {"G3", {"C", "A"}},
           {"H1", {"X", "Y"}},
           {"H2", {"Y", "Z"}}}) {
    Relation* rel = db.AddRelation(name, vars);
    for (int i = 0; i < 4; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
    q.AddAtom(db, name, vars);
  }
  // The searched GHD would join G3 and H1 into one bag of a single tree.
  auto ghd = BuildGhd(q, {{2}, {0, 1}, {3}, {4}});
  ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
  ASSERT_EQ(ghd->forest.trees.size(), 2u);
  ASSERT_EQ(ghd->bags[static_cast<size_t>(ghd->forest.trees[0].root())]
                .atom_indices.size(),
            2u);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options = ThreadedOptions(threads);
  options.ghd = &*ghd;
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "cyclic forest step " + std::to_string(step));
    Database clone = db.Clone();
    auto naive = NaiveLocalSensitivity(q, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "cyclic forest step " << step;
    RandomMutation(rng, q, db, 3);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IncrementalStreamTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(0, 2, 8)));

// Repair runs on the calling thread whatever join.threads says: batches of
// hundreds of changes over wide key domains, repaired by a cache whose
// full computes run threaded, must match a serial cache — results and
// counters — and from-scratch.
TEST(RepairThreadCountTest, LargeBatchDeltasMatchSerialAndScratch) {
  for (int threads : {2, 8}) {
    Rng rng(8675309 + static_cast<uint64_t>(threads));
    Database db;
    const int kDomain = 50;
    for (const char* name : {"S1", "S2", "S3"}) {
      Relation* rel = db.AddRelation(name, {"u", "v"});
      for (int i = 0; i < 1000; ++i) {
        rel->AppendRow({static_cast<Value>(rng.NextBounded(kDomain)),
                        static_cast<Value>(rng.NextBounded(kDomain))});
      }
    }
    ConjunctiveQuery q;
    q.AddAtom(db, "S1", {"A", "B"});
    q.AddAtom(db, "S2", {"B", "C"});
    q.AddAtom(db, "S3", {"C", "D"});
    Database serial_db = db.Clone();

    SensitivityCacheConfig config;
    config.max_delta_fraction = 1.0;
    SensitivityCache threaded_cache(config);
    SensitivityCache serial_cache(config);
    TSensComputeOptions threaded_options = ThreadedOptions(threads);
    TSensComputeOptions serial_options;
    for (int step = 0; step < 4; ++step) {
      auto a = threaded_cache.Compute(q, db, threaded_options);
      auto b = serial_cache.Compute(q, serial_db, serial_options);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectResultsIdentical(
          *a, *b, "batch threads " + std::to_string(threads) + " step " +
                      std::to_string(step));
      auto fresh = ComputeLocalSensitivity(q, db, threaded_options);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(*a, *fresh, "batch vs scratch step " +
                                             std::to_string(step));
      // One batch of ~200 inserts and ~100 deletes on a rotating
      // relation, touching most join-key groups.
      Relation* rel = db.Find(q.atom(step % 3).relation);
      std::vector<std::vector<Value>> inserts;
      for (int i = 0; i < 200; ++i) {
        inserts.push_back({static_cast<Value>(rng.NextBounded(kDomain)),
                           static_cast<Value>(rng.NextBounded(kDomain))});
      }
      std::vector<size_t> deletes;
      for (size_t idx = 0; idx < 100 && idx < rel->NumRows(); ++idx) {
        deletes.push_back(idx * 7 % rel->NumRows());
      }
      std::sort(deletes.begin(), deletes.end());
      deletes.erase(std::unique(deletes.begin(), deletes.end()),
                    deletes.end());
      ASSERT_TRUE(rel->ApplyDelta(inserts, deletes).ok());
      ASSERT_TRUE(serial_db.Find(q.atom(step % 3).relation)
                      ->ApplyDelta(inserts, deletes)
                      .ok());
    }
    EXPECT_GT(threaded_cache.stats().repairs, 0u);
    EXPECT_EQ(threaded_cache.stats().repairs, serial_cache.stats().repairs);
    EXPECT_EQ(threaded_cache.stats().delta_rows,
              serial_cache.stats().delta_rows);
    EXPECT_EQ(threaded_cache.stats().repair_rows,
              serial_cache.stats().repair_rows);
  }
}

// A byte budget too small for any state degrades the cache to a memoizer:
// every step recomputes, every answer stays correct.
TEST(SensitivityCacheTest, ByteBudgetedStreamStaysCorrect) {
  Rng rng(2718);
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_state_bytes = 1;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db);
    ASSERT_TRUE(cached.ok());
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "budget step " + std::to_string(step));
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_EQ(cache.stats().repairs, 0u);  // nothing survives to repair
}

// The thread count never changes repair — results AND work counters — so
// two caches replaying the same stream at different thread counts may
// never disagree on anything observable.
TEST(RepairThreadCountTest, MatchesSerialRepairIncludingCounters) {
  for (int threads : {2, 8}) {
    Rng rng(314159);
    PaperExample serial_ex = MakeFigure3Example();
    PaperExample threaded_ex = MakeFigure3Example();
    SensitivityCacheConfig config;
    config.max_delta_fraction = 1.0;
    SensitivityCache serial_cache(config);
    SensitivityCache threaded_cache(config);
    TSensComputeOptions serial_options;   // threads = 0
    TSensComputeOptions threaded_options = ThreadedOptions(threads);
    for (int step = 0; step < 16; ++step) {
      auto a = serial_cache.Compute(serial_ex.query, serial_ex.db,
                                    serial_options);
      auto b = threaded_cache.Compute(threaded_ex.query, threaded_ex.db,
                                     threaded_options);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectResultsIdentical(
          *a, *b, "threads " + std::to_string(threads) + " step " +
                      std::to_string(step));
      // The same mutation stream hits both databases.
      Rng mutation_rng(rng.NextBounded(1u << 30));
      Rng mutation_rng_copy = mutation_rng;
      RandomMutation(mutation_rng, serial_ex.query, serial_ex.db, 3);
      RandomMutation(mutation_rng_copy, threaded_ex.query, threaded_ex.db, 3);
    }
    EXPECT_GT(serial_cache.stats().repairs, 0u);
    EXPECT_EQ(serial_cache.stats().repairs, threaded_cache.stats().repairs);
    EXPECT_EQ(serial_cache.stats().delta_rows,
              threaded_cache.stats().delta_rows);
    EXPECT_EQ(serial_cache.stats().repair_rows,
              threaded_cache.stats().repair_rows);
    EXPECT_EQ(serial_cache.stats().fallback_stale,
              threaded_cache.stats().fallback_stale);
  }
}

// --- asymptotic work bound ----------------------------------------------

// The repairable shapes the work bound covers: a path over its chain tree,
// a caterpillar join tree (its GYO tree, not a chain),
// TPC-H q1 with its superkey skips, the triangle through its searched GHD,
// and a two-tree forest whose repairs re-multiply the other tree's total;
// plus the triangle beside a path, whose triangle tree keeps its total on
// a join node.
enum class WorkShape {
  kPath4,
  kCaterpillar,
  kTpchQ1,
  kTriangle,
  kForest,
  kCyclicForest
};

// A database, a query over it, and the options both the full compute and
// the cache run with (`options.ghd` points into `ghd` when one is set).
struct WorkInstance {
  Database db;
  ConjunctiveQuery query;
  std::shared_ptr<const Ghd> ghd;
  TSensComputeOptions options;
};

// One relation per atom spec "Name Var...", its columns named after the
// vars, with `rows` rows of values drawn uniformly from [0, domain).
WorkInstance MakeSyntheticWorkInstance(const std::vector<std::string>& atoms,
                                       int rows, int domain) {
  Rng rng(20200712);
  WorkInstance w;
  for (const std::string& spec : atoms) {
    std::istringstream in(spec);
    std::string name;
    in >> name;
    std::vector<std::string> vars;
    for (std::string var; in >> var;) vars.push_back(var);
    Relation* rel = w.db.AddRelation(name, vars);
    std::vector<Value> row(vars.size());
    for (int r = 0; r < rows; ++r) {
      for (Value& v : row) v = static_cast<Value>(rng.NextBounded(domain));
      rel->AppendRow(row);
    }
    w.query.AddAtom(w.db, name, vars);
  }
  return w;
}

// `rows` and `domain` size the synthetic shapes; one triangle bag joins two
// atoms, so a full compute is quadratic and its relations get half the
// rows. TPC-H q1 runs at scale 0.001.
WorkInstance MakeWorkInstance(WorkShape shape, int rows, int domain) {
  switch (shape) {
    case WorkShape::kPath4:
      return MakeSyntheticWorkInstance(
          {"P1 A B", "P2 B C", "P3 C D", "P4 D E"}, rows, domain);
    case WorkShape::kCaterpillar:
      return MakeSyntheticWorkInstance(
          {"T1 A B", "T2 B C F", "T3 C D", "T4 F G"}, rows, domain);
    case WorkShape::kTpchQ1: {
      TpchOptions tpch;
      tpch.scale = 0.001;
      WorkInstance w;
      w.db = MakeTpchDatabase(tpch);
      WorkloadQuery q1 = MakeTpchQ1(w.db);
      w.query = q1.query;
      w.options.skip_atoms = q1.skip_atoms;
      return w;
    }
    case WorkShape::kTriangle:
      return MakeSyntheticWorkInstance({"C1 A B", "C2 B C", "C3 C A"},
                                       rows / 2, domain);
    case WorkShape::kForest:
      return MakeSyntheticWorkInstance(
          {"F1 A B", "F2 B C", "F3 X Y", "F4 Y Z"}, rows, domain);
    case WorkShape::kCyclicForest: {
      WorkInstance w = MakeSyntheticWorkInstance(
          {"C1 A B", "C2 B C", "C3 C A", "F3 X Y", "F4 Y Z"}, rows / 2,
          domain);
      auto ghd = BuildGhd(w.query, {{2}, {0, 1}, {3}, {4}});
      LSENS_CHECK(ghd.ok());
      w.ghd = std::make_shared<const Ghd>(*std::move(ghd));
      w.options.ghd = w.ghd.get();
      return w;
    }
  }
  return {};
}

uint64_t TotalExecRows(const ExecContext& ctx) {
  uint64_t total = 0;
  for (const OperatorStats& s : ctx.stats()) total += s.rows_in + s.rows_out;
  return total;
}

// The acceptance bar: a stream of single-row updates (duplicate a random
// row, or swap-remove one, of a random atom's relation) is served by
// repairs alone, each processing well under 5% of the rows one full
// recompute touches (median over the stream, summed over every operator
// the ExecContext saw), and the stream ends on the from-scratch result.
void ExpectSingleRowRepairsDoLessWork(WorkInstance w) {
  ExecContext full_ctx;
  TSensComputeOptions full_options = w.options;
  full_options.join.ctx = &full_ctx;
  ASSERT_TRUE(ComputeLocalSensitivity(w.query, w.db, full_options).ok());
  const uint64_t full_work = TotalExecRows(full_ctx);
  ASSERT_GT(full_work, 0u);

  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(w.query, w.db, w.options).ok());
  Rng rng(417001);
  constexpr int kUpdates = 20;
  std::vector<uint64_t> repair_work;
  StatusOr<SensitivityResult> repaired = Status::Internal("no update ran");
  for (int u = 0; u < kUpdates; ++u) {
    const Atom& atom =
        w.query.atom(static_cast<int>(rng.NextBounded(w.query.num_atoms())));
    Relation* rel = w.db.Find(atom.relation);
    const size_t n = rel->NumRows();
    if (n > 1 && rng.NextBounded(2) == 0) {
      rel->SwapRemoveRow(rng.NextBounded(n));
    } else {
      rel->AppendRow(rel->Row(rng.NextBounded(n)));
    }
    ExecContext ctx;
    TSensComputeOptions repair_options = w.options;
    repair_options.join.ctx = &ctx;
    repaired = cache.Compute(w.query, w.db, repair_options);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    repair_work.push_back(TotalExecRows(ctx));
  }
  EXPECT_EQ(cache.stats().repairs, static_cast<uint64_t>(kUpdates));
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
  std::nth_element(repair_work.begin(),
                   repair_work.begin() + repair_work.size() / 2,
                   repair_work.end());
  const uint64_t median_work = repair_work[repair_work.size() / 2];
  EXPECT_LE(static_cast<double>(median_work),
            0.05 * static_cast<double>(full_work))
      << "median repair " << median_work << " rows vs full " << full_work;
  auto fresh = ComputeLocalSensitivity(w.query, w.db, w.options);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*repaired, *fresh, "end of stream");
}

TEST(IncrementalWorkTest, SingleRowRepairDoesAsymptoticallyLessWork) {
  ExpectSingleRowRepairsDoLessWork(
      MakeWorkInstance(WorkShape::kPath4, 20000, 500));
  for (WorkShape shape :
       {WorkShape::kPath4, WorkShape::kCaterpillar, WorkShape::kTpchQ1,
        WorkShape::kTriangle, WorkShape::kForest}) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    ExpectSingleRowRepairsDoLessWork(MakeWorkInstance(shape, 2000, 100));
  }
}

TEST(IncrementalWorkTest, PrimedNodeCountsArePinned) {
  // The store nodes one primed entry holds (S_a sources, ⊥/⊤ fold nodes,
  // T_a component nodes, tree-total nodes) depend only on the query shape:
  // pinned, so a change in how the cache turns the dataflow into nodes
  // shows up here.
  const std::vector<std::pair<WorkShape, size_t>> expected = {
      {WorkShape::kPath4, 10},   {WorkShape::kCaterpillar, 10},
      {WorkShape::kTpchQ1, 13},  {WorkShape::kTriangle, 10},
      {WorkShape::kForest, 10},  {WorkShape::kCyclicForest, 16}};
  for (const auto& [shape, nodes] : expected) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    WorkInstance w = MakeWorkInstance(shape, 200, 20);
    SensitivityCache cache;
    ASSERT_TRUE(cache.Compute(w.query, w.db, w.options).ok());
    EXPECT_EQ(cache.stats().shared_nodes, nodes);
  }
}

}  // namespace
}  // namespace lsens
