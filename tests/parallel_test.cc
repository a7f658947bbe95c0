// The parallel execution subsystem: ThreadPool semantics, ExecContextPool
// isolation, ParallelApply dispatch, and — the load-bearing part — a
// differential suite pinning every parallel path to the serial oracle:
// for threads ∈ {0, 1, 2, 8}, sensitivities, tuple sensitivities, join
// outputs, and the merged operator-stat counters must be bit-identical.

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "query/eval.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using lsens::testing::MakeRandomAcyclicInstance;
using lsens::testing::MakeRandomTriangleInstance;
using lsens::testing::PaperExample;
using lsens::testing::RandomQuerySpec;
using lsens::testing::SameRowsInOrder;

constexpr int kThreadSettings[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&](size_t) { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WorkerIndexStaysInRange) {
  ThreadPool pool(3);
  std::atomic<bool> out_of_range{false};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&](size_t worker) {
      if (worker >= 3) out_of_range.store(true);
    });
  }
  pool.Wait();
  EXPECT_FALSE(out_of_range.load());
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&](size_t) { ran.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&, i](size_t) {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Non-throwing tasks of the batch all still ran, and the pool is usable.
  EXPECT_EQ(ran.load(), 7);
  pool.Submit([&](size_t) { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPoolThreads) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  std::atomic<bool> on_worker{false};
  pool.Submit([&](size_t) { on_worker.store(ThreadPool::OnWorkerThread()); });
  pool.Wait();
  EXPECT_TRUE(on_worker.load());
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// Task accounting is per submitting thread: two top-level callers sharing
// one pool never wait on — or receive exceptions from — each other.
TEST(ThreadPoolTest, ConcurrentCallersAreIndependent) {
  ThreadPool pool(4);
  std::atomic<int> ok_ran{0};
  bool clean_caller_threw = false;
  bool failing_caller_threw = false;
  std::thread clean_caller([&] {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&](size_t) { ok_ran.fetch_add(1); });
    }
    try {
      pool.Wait();
    } catch (...) {
      clean_caller_threw = true;
    }
  });
  std::thread failing_caller([&] {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([i](size_t) {
        if (i == 7) throw std::runtime_error("failing caller's task");
      });
    }
    try {
      pool.Wait();
    } catch (const std::runtime_error&) {
      failing_caller_threw = true;
    }
  });
  clean_caller.join();
  failing_caller.join();
  EXPECT_FALSE(clean_caller_threw);
  EXPECT_TRUE(failing_caller_threw);
  EXPECT_EQ(ok_ran.load(), 32);
}

// Death tests fork; keep them away from sanitizer-threaded runs. GCC
// defines __SANITIZE_THREAD__ under -fsanitize=thread; Clang only reports
// it through __has_feature(thread_sanitizer).
#if defined(__SANITIZE_THREAD__)
#define LSENS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LSENS_TSAN_BUILD 1
#endif
#endif
#ifndef LSENS_TSAN_BUILD
#define LSENS_TSAN_BUILD 0
#endif

#if !LSENS_TSAN_BUILD
TEST(ThreadPoolDeathTest, NestedSubmissionRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&](size_t) { pool.Submit([](size_t) {}); });
        pool.Wait();
      },
      "nested ThreadPool submission");
}

#ifndef NDEBUG
TEST(ThreadPoolDeathTest, PooledWorkerMustNotHitThreadLocalFallback) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([](size_t) { DefaultExecContext(); });
        pool.Wait();
      },
      "fallback hit on a pool worker");
}
#endif  // NDEBUG
#endif  // !LSENS_TSAN_BUILD

// ---------------------------------------------------------------------------
// ExecContextPool
// ---------------------------------------------------------------------------

TEST(ExecContextPoolTest, ContextsAreDistinctPooledWorkers) {
  ExecContextPool pool;
  pool.Ensure(3, /*collect_stats=*/true);
  ASSERT_EQ(pool.size(), 3u);
  std::set<const ExecContext*> distinct;
  for (size_t i = 0; i < pool.size(); ++i) {
    distinct.insert(&pool.context(i));
    EXPECT_TRUE(pool.context(i).is_pool_worker());
    EXPECT_TRUE(pool.context(i).collect_stats);
  }
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(ExecContextPoolTest, ArenasAreNeverSharedAcrossWorkers) {
  ExecContextPool pool;
  pool.Ensure(2, true);
  pool.context(0).perm_a().assign({1, 2, 3});
  EXPECT_TRUE(pool.context(1).perm_a().empty());
  EXPECT_NE(&pool.context(0).perm_a(), &pool.context(1).perm_a());
  EXPECT_NE(&pool.context(0).group_table(), &pool.context(1).group_table());
}

TEST(ExecContextPoolTest, ArenasPersistAcrossEnsure) {
  ExecContextPool pool;
  pool.Ensure(2, true);
  ExecContext* first = &pool.context(0);
  pool.context(0).perm_a().assign({7, 8});
  pool.Ensure(4, true);  // grows, never recreates
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(&pool.context(0), first);
  EXPECT_EQ(pool.context(0).perm_a(), (std::vector<uint32_t>{7, 8}));
  pool.Ensure(1, true);  // never shrinks
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ExecContextPoolTest, MergeStatsSumsAndClearsWorkers) {
  ExecContextPool pool;
  pool.Ensure(2, true);
  pool.context(0).Record("op.b", 10, 5, 1, 0.25);
  pool.context(1).Record("op.b", 30, 15, 3, 0.5);
  pool.context(1).Record("op.a", 1, 1, 0, 0.125);
  ExecContext primary;
  primary.Record("op.b", 100, 50, 10, 1.0);
  pool.MergeStatsInto(primary);

  const OperatorStats* b = primary.FindStats("op.b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->calls, 3u);
  EXPECT_EQ(b->rows_in, 140u);
  EXPECT_EQ(b->rows_out, 70u);
  EXPECT_EQ(b->build_rows, 14u);
  EXPECT_DOUBLE_EQ(b->wall_seconds, 1.75);
  const OperatorStats* a = primary.FindStats("op.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->calls, 1u);
  EXPECT_FALSE(pool.context(0).has_stats());
  EXPECT_FALSE(pool.context(1).has_stats());
}

// ---------------------------------------------------------------------------
// ParallelApply
// ---------------------------------------------------------------------------

TEST(ParallelApplyTest, RunsEveryTaskExactlyOnce) {
  ExecContext primary;
  std::vector<std::atomic<int>> hits(97);
  ParallelApply(primary, 8, hits.size(),
                [&](size_t t, ExecContext&) { hits[t].fetch_add(1); });
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ParallelApplyTest, SerialFallbackRunsInlineOnPrimary) {
  ExecContext primary;
  std::vector<const ExecContext*> seen;
  ParallelApply(primary, 0, 4,
                [&](size_t, ExecContext& ctx) { seen.push_back(&ctx); });
  ASSERT_EQ(seen.size(), 4u);
  for (const ExecContext* ctx : seen) EXPECT_EQ(ctx, &primary);
}

TEST(ParallelApplyTest, WorkerStatsMergeBackIntoPrimary) {
  ExecContext primary;
  ParallelApply(primary, 8, 50, [&](size_t, ExecContext& ctx) {
    EXPECT_NE(&ctx, &primary);
    EXPECT_TRUE(ctx.is_pool_worker());
    ctx.Record("parallel.op", 2, 1, 0, 0.0);
  });
  const OperatorStats* s = primary.FindStats("parallel.op");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 50u);
  EXPECT_EQ(s->rows_in, 100u);
}

TEST(ParallelApplyTest, TaskExceptionPropagates) {
  ExecContext primary;
  EXPECT_THROW(ParallelApply(primary, 4, 16,
                             [&](size_t t, ExecContext&) {
                               if (t == 11) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Differential suite: parallel ≡ serial, bit for bit
// ---------------------------------------------------------------------------

void ExpectSameResult(const SensitivityResult& expected,
                      const SensitivityResult& actual,
                      const std::string& what) {
  EXPECT_EQ(expected.local_sensitivity, actual.local_sensitivity) << what;
  EXPECT_EQ(expected.argmax_atom, actual.argmax_atom) << what;
  ASSERT_EQ(expected.atoms.size(), actual.atoms.size()) << what;
  for (size_t a = 0; a < expected.atoms.size(); ++a) {
    const AtomSensitivity& e = expected.atoms[a];
    const AtomSensitivity& r = actual.atoms[a];
    const std::string atom_what = what + " atom " + std::to_string(a);
    EXPECT_EQ(e.max_sensitivity, r.max_sensitivity) << atom_what;
    EXPECT_EQ(e.argmax, r.argmax) << atom_what;
    EXPECT_EQ(e.table_attrs, r.table_attrs) << atom_what;
    EXPECT_EQ(e.free_vars, r.free_vars) << atom_what;
    EXPECT_EQ(e.skipped, r.skipped) << atom_what;
    EXPECT_EQ(e.approximate, r.approximate) << atom_what;
    ASSERT_EQ(e.factors.has_value(), r.factors.has_value()) << atom_what;
    if (e.factors.has_value()) {
      EXPECT_EQ(e.factors->scale, r.factors->scale) << atom_what;
      const std::vector<CountedRelation>& ec = e.factors->components;
      const std::vector<CountedRelation>& rc = r.factors->components;
      ASSERT_EQ(ec.size(), rc.size()) << atom_what;
      for (size_t c = 0; c < ec.size(); ++c) {
        EXPECT_TRUE(SameRowsInOrder(ec[c], rc[c]))
            << atom_what << " component " << c;
      }
    }
  }
}

// The deterministic stat fields (everything but wall time) must match the
// serial profile exactly: same operator set, same calls/rows/build counts.
void ExpectSameStats(const ExecContext& expected, const ExecContext& actual,
                     const std::string& what) {
  std::set<std::string> names;
  for (const OperatorStats& s : expected.stats()) names.insert(s.name);
  std::set<std::string> actual_names;
  for (const OperatorStats& s : actual.stats()) actual_names.insert(s.name);
  EXPECT_EQ(names, actual_names) << what;
  for (const std::string& name : names) {
    const OperatorStats* e = expected.FindStats(name);
    const OperatorStats* r = actual.FindStats(name);
    ASSERT_NE(e, nullptr) << what << " " << name;
    ASSERT_NE(r, nullptr) << what << " " << name;
    EXPECT_EQ(e->calls, r->calls) << what << " " << name;
    EXPECT_EQ(e->rows_in, r->rows_in) << what << " " << name;
    EXPECT_EQ(e->rows_out, r->rows_out) << what << " " << name;
    EXPECT_EQ(e->build_rows, r->build_rows) << what << " " << name;
  }
}

// Runs ComputeLocalSensitivity at every thread setting and pins results,
// per-tuple sensitivities (when tables are kept), and merged stat counters
// to the threads = 0 oracle.
void RunSensitivityDifferential(
    const PaperExample& ex, bool keep_tables, size_t top_k,
    const std::string& what,
    std::span<const int> thread_settings = kThreadSettings) {
  ExecContext serial_ctx;
  TSensComputeOptions serial_opts;
  serial_opts.join.ctx = &serial_ctx;
  serial_opts.keep_tables = keep_tables;
  serial_opts.top_k = top_k;
  auto oracle = ComputeLocalSensitivity(ex.query, ex.db, serial_opts);
  ASSERT_TRUE(oracle.ok()) << what << ": " << oracle.status().ToString();

  for (int threads : thread_settings) {
    const std::string run = what + " threads=" + std::to_string(threads);
    ExecContext ctx;
    TSensComputeOptions opts = serial_opts;
    opts.join.ctx = &ctx;
    opts.join.threads = threads;
    auto parallel = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(parallel.ok()) << run << ": " << parallel.status().ToString();
    ExpectSameResult(*oracle, *parallel, run);
    ExpectSameStats(serial_ctx, ctx, run);

    if (keep_tables) {
      for (int a = 0; a < ex.query.num_atoms(); ++a) {
        auto serial_sens = TupleSensitivities(*oracle, ex.query, ex.db, a);
        auto parallel_sens =
            TupleSensitivities(*parallel, ex.query, ex.db, a, opts);
        ASSERT_EQ(serial_sens.ok(), parallel_sens.ok()) << run;
        if (!serial_sens.ok()) continue;
        EXPECT_EQ(*serial_sens, *parallel_sens) << run << " atom " << a;
      }
    }
  }
}

TEST(ParallelDifferentialTest, RandomAcyclicSensitivities) {
  Rng rng(2026);
  RandomQuerySpec spec;
  for (int seed = 0; seed < 12; ++seed) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    const std::string what = "acyclic seed " + std::to_string(seed);
    RunSensitivityDifferential(ex, /*keep_tables=*/false, /*top_k=*/0, what);
    RunSensitivityDifferential(ex, /*keep_tables=*/true, /*top_k=*/0,
                               what + " tables");
  }
}

TEST(ParallelDifferentialTest, RandomPathSensitivities) {
  // Path queries run over their chain tree, whose ⊤/⊥ folds are sequential
  // chains: only the per-atom tables, large probes and per-tuple lookups
  // fan out. Threads {2, 4, 8} against the serial run.
  constexpr int kPathThreads[] = {2, 4, 8};
  std::vector<PaperExample> instances;
  instances.push_back(testing::MakeFigure3Example());
  Rng rng(4242);
  for (int seed = 0; seed < 3; ++seed) {
    const int m = static_cast<int>(rng.NextInRange(3, 6));
    instances.push_back(testing::MakeRandomPathInstance(
        rng, m, /*max_rows=*/5000, /*domain_size=*/60));
  }
  for (size_t i = 0; i < instances.size(); ++i) {
    const std::string what = "path " + std::to_string(i);
    RunSensitivityDifferential(instances[i], /*keep_tables=*/false,
                               /*top_k=*/0, what, kPathThreads);
    RunSensitivityDifferential(instances[i], /*keep_tables=*/true,
                               /*top_k=*/0, what + " tables", kPathThreads);
  }
}

TEST(ParallelDifferentialTest, RandomAcyclicTopK) {
  Rng rng(7);
  RandomQuerySpec spec;
  spec.max_rows = 12;
  for (int seed = 0; seed < 8; ++seed) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    RunSensitivityDifferential(ex, /*keep_tables=*/false, /*top_k=*/3,
                               "top-k seed " + std::to_string(seed));
  }
}

TEST(ParallelDifferentialTest, RandomTriangleSensitivities) {
  Rng rng(99);
  for (int seed = 0; seed < 8; ++seed) {
    PaperExample ex = MakeRandomTriangleInstance(rng, /*max_rows=*/8,
                                                 /*domain_size=*/3);
    RunSensitivityDifferential(ex, /*keep_tables=*/false, /*top_k=*/0,
                               "triangle seed " + std::to_string(seed));
    RunSensitivityDifferential(ex, /*keep_tables=*/true, /*top_k=*/0,
                               "triangle tables seed " + std::to_string(seed));
  }
}

// Max-only runs at threads {0, 2, 4} against the serial materializing run
// (keep_tables): LS, the winning atom, and every atom's max/argmax agree,
// the merged stat counters match the serial max-only run's, and
// tsens.factorized_max shows the factorized path actually ran.
void RunFactorizedMaxDifferential(const ConjunctiveQuery& q,
                                  const Database& db,
                                  const TSensComputeOptions& base,
                                  const std::string& what) {
  TSensComputeOptions tables_opts = base;
  tables_opts.keep_tables = true;
  auto tables = ComputeLocalSensitivity(q, db, tables_opts);
  ASSERT_TRUE(tables.ok()) << what << ": " << tables.status().ToString();

  ExecContext serial_ctx;
  for (int threads : {0, 2, 4}) {
    const std::string run = what + " threads=" + std::to_string(threads);
    ExecContext ctx;
    TSensComputeOptions opts = base;
    opts.join.ctx = threads == 0 ? &serial_ctx : &ctx;
    opts.join.threads = threads;
    auto maxed = ComputeLocalSensitivity(q, db, opts);
    ASSERT_TRUE(maxed.ok()) << run << ": " << maxed.status().ToString();
    EXPECT_EQ(tables->local_sensitivity, maxed->local_sensitivity) << run;
    EXPECT_EQ(tables->argmax_atom, maxed->argmax_atom) << run;
    ASSERT_EQ(tables->atoms.size(), maxed->atoms.size()) << run;
    for (size_t a = 0; a < tables->atoms.size(); ++a) {
      EXPECT_EQ(tables->atoms[a].max_sensitivity,
                maxed->atoms[a].max_sensitivity)
          << run << " atom " << a;
      EXPECT_EQ(tables->atoms[a].argmax, maxed->atoms[a].argmax)
          << run << " atom " << a;
    }
    const OperatorStats* fired =
        (threads == 0 ? serial_ctx : ctx).FindStats("tsens.factorized_max");
    ASSERT_NE(fired, nullptr) << run;
    EXPECT_GE(fired->calls, 1u) << run;
    if (threads != 0) ExpectSameStats(serial_ctx, ctx, run);
  }
}

TEST(ParallelDifferentialTest, FactorizedMaxMatchesTables) {
  Rng rng(1212);
  for (int length : {3, 4}) {
    for (int seed = 0; seed < 8; ++seed) {
      PaperExample ex = testing::MakeRandomCycleInstance(
          rng, length, /*max_rows=*/8, /*domain_size=*/3,
          testing::CycleKeys::kKeyed);
      Ghd ghd = testing::PairedCycleGhd(ex.query);
      TSensComputeOptions opts;
      opts.ghd = &ghd;
      RunFactorizedMaxDifferential(ex.query, ex.db, opts,
                                   "cycle " + std::to_string(length) +
                                       " seed " + std::to_string(seed));
    }
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TpchOptions topts;
    topts.scale = 0.0005;
    topts.seed = seed;
    Database db = MakeTpchDatabase(topts);
    WorkloadQuery w = MakeTpchQ3(db);
    for (bool skip : {true, false}) {
      TSensComputeOptions opts;
      opts.ghd = w.ghd_ptr();
      if (skip) opts.skip_atoms = w.skip_atoms;
      RunFactorizedMaxDifferential(
          w.query, db, opts,
          "q3 seed " + std::to_string(seed) + (skip ? " skip" : " no skip"));
    }
  }
}

TEST(ParallelDifferentialTest, DownwardSensitivities) {
  Rng rng(41);
  RandomQuerySpec spec;
  for (int seed = 0; seed < 6; ++seed) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    TSensComputeOptions serial_opts;
    auto oracle =
        ComputeDownwardLocalSensitivity(ex.query, ex.db, serial_opts);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int threads : kThreadSettings) {
      TSensComputeOptions opts;
      opts.join.threads = threads;
      auto parallel = ComputeDownwardLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectSameResult(*oracle, *parallel,
                       "downward seed " + std::to_string(seed) + " threads=" +
                           std::to_string(threads));
    }
  }
}

TEST(ParallelDifferentialTest, CountQueryMatchesSerial) {
  Rng rng(17);
  RandomQuerySpec spec;
  for (int seed = 0; seed < 8; ++seed) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    auto oracle = CountQuery(ex.query, ex.db);
    ASSERT_TRUE(oracle.ok());
    for (int threads : kThreadSettings) {
      JoinOptions opts;
      opts.threads = threads;
      auto parallel = CountQuery(ex.query, ex.db, opts);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*oracle, *parallel) << "seed " << seed << " threads "
                                    << threads;
    }
  }
}

// A join wide enough to cross the partitioned-probe threshold (4096 probe
// rows), so this exercises the genuinely parallel hash-join path.
CountedRelation MakeRandomCounted(Rng& rng, size_t rows, AttributeSet attrs,
                                  uint64_t domain) {
  CountedRelation rel(std::move(attrs));
  std::vector<Value> row(rel.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<Value>(rng.NextBounded(domain));
    rel.AppendRow(row, Count::One());
  }
  rel.Normalize();
  return rel;
}

TEST(ParallelDifferentialTest, LargeHashJoinOutputsMatchSerial) {
  Rng rng(5);
  const size_t rows = 12000;
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4);
  CountedRelation b = MakeRandomCounted(rng, rows, {2, 3}, rows / 4);

  ExecContext serial_ctx;
  JoinOptions serial_opts{JoinAlgorithm::kHash, &serial_ctx, 0};
  CountedRelation oracle = NaturalJoin(a, b, serial_opts);

  for (int threads : kThreadSettings) {
    ExecContext ctx;
    JoinOptions opts{JoinAlgorithm::kHash, &ctx, threads};
    CountedRelation parallel = NaturalJoin(a, b, opts);
    const std::string what = "join threads=" + std::to_string(threads);
    EXPECT_TRUE(SameRowsInOrder(oracle, parallel)) << what;
    ExpectSameStats(serial_ctx, ctx, what);
  }
}

// A private relation past the TupleSensitivities fan-out threshold (4096
// rows), so the chunked per-tuple lookup path genuinely runs.
TEST(ParallelDifferentialTest, LargeRelationTupleSensitivities) {
  Rng rng(12);
  PaperExample ex;
  auto* r = ex.db.AddRelation("R", {"A", "B"});
  auto* s = ex.db.AddRelation("S", {"B", "C"});
  for (int i = 0; i < 6000; ++i) {
    r->AppendRow({static_cast<Value>(rng.NextBounded(200)),
                  static_cast<Value>(rng.NextBounded(50))});
  }
  for (int i = 0; i < 300; ++i) {
    s->AppendRow({static_cast<Value>(rng.NextBounded(50)),
                  static_cast<Value>(rng.NextBounded(40))});
  }
  ex.query.AddAtom(ex.db, "R", {"A", "B"});
  ex.query.AddAtom(ex.db, "S", {"B", "C"});

  TSensComputeOptions serial_opts;
  serial_opts.keep_tables = true;
  auto oracle = ComputeLocalSensitivity(ex.query, ex.db, serial_opts);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto serial_sens = TupleSensitivities(*oracle, ex.query, ex.db, 0);
  ASSERT_TRUE(serial_sens.ok());

  for (int threads : kThreadSettings) {
    TSensComputeOptions opts = serial_opts;
    opts.join.threads = threads;
    auto parallel = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*oracle, *parallel,
                     "large tuple-sens threads=" + std::to_string(threads));
    auto parallel_sens =
        TupleSensitivities(*parallel, ex.query, ex.db, 0, opts);
    ASSERT_TRUE(parallel_sens.ok());
    EXPECT_EQ(*serial_sens, *parallel_sens) << "threads " << threads;
  }
}

TEST(ParallelDifferentialTest, LargeAutoJoinAndEstimateMatchSerial) {
  Rng rng(6);
  const size_t rows = 9000;
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 3);
  CountedRelation b = MakeRandomCounted(rng, rows / 2, {2, 3}, rows / 3);

  CountedRelation oracle = NaturalJoin(a, b, {});
  const size_t est = EstimateJoinRows(a, b);
  for (int threads : kThreadSettings) {
    ExecContext ctx;
    JoinOptions opts{JoinAlgorithm::kAuto, &ctx, threads};
    EXPECT_TRUE(SameRowsInOrder(oracle, NaturalJoin(a, b, opts)))
        << "auto join threads=" << threads;
    EXPECT_EQ(est, EstimateJoinRows(a, b, &ctx, threads));
  }
}

}  // namespace
}  // namespace lsens
