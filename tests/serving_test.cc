// Concurrent serving: every answer a SensitivityServer session returns
// must be bit-identical to a from-scratch compute against the pinned epoch
// snapshot — under a scripted deterministic interleaving (replayable
// bit-for-bit), under free-running reader threads racing a writer through
// hundreds of epoch turns, and across pins held over many turns. Plus the
// epoch-reclamation ledger, shutdown/abuse semantics, and the serving-side
// PrivSQL budget.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dp/privsql.h"
#include "exec/exec_context.h"
#include "query/explain.h"
#include "sensitivity/tsens.h"
#include "server/sensitivity_server.h"
#include "storage/database.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeRandomDelta;
using testing::MakeStreamInstance;
using testing::QueryRelationNames;
using testing::StreamShape;

// Returns "" when the results agree bit-for-bit, else a short description.
// A plain function (not EXPECT_*) so reader threads can use it too.
std::string DiffResults(const SensitivityResult& a,
                        const SensitivityResult& b) {
  if (a.local_sensitivity != b.local_sensitivity) {
    return "local_sensitivity " + a.local_sensitivity.ToString() + " vs " +
           b.local_sensitivity.ToString();
  }
  if (a.argmax_atom != b.argmax_atom) return "argmax_atom differs";
  if (a.atoms.size() != b.atoms.size()) return "atom count differs";
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const AtomSensitivity& x = a.atoms[i];
    const AtomSensitivity& y = b.atoms[i];
    if (x.max_sensitivity != y.max_sensitivity ||
        x.argmax != y.argmax || x.approximate != y.approximate) {
      return "atom " + std::to_string(i) + " differs";
    }
  }
  return "";
}

void ExpectResultsIdentical(const SensitivityResult& a,
                            const SensitivityResult& b,
                            const std::string& context) {
  EXPECT_EQ(DiffResults(a, b), "") << context;
}

DatabaseDelta InsertDelta(const std::string& relation,
                          std::vector<Value> row) {
  RelationDelta rd;
  rd.relation = relation;
  rd.inserts.push_back(std::move(row));
  DatabaseDelta delta;
  delta.push_back(std::move(rd));
  return delta;
}

// --- Scripted deterministic interleaving ------------------------------------

// One scripted run's observable outcome: every answered result in script
// order plus the final server ledger. Two runs of the same script must
// produce equal ScriptRuns, field for field.
struct ScriptRun {
  std::vector<SensitivityResult> results;
  ServingStats stats;
  uint64_t final_epoch = 0;
};

void ExpectStatsEqual(const ServingStats& a, const ServingStats& b,
                      const std::string& context) {
  EXPECT_EQ(a.epochs_published, b.epochs_published) << context;
  EXPECT_EQ(a.turns, b.turns) << context;
  EXPECT_EQ(a.empty_turns, b.empty_turns) << context;
  EXPECT_EQ(a.deltas_applied, b.deltas_applied) << context;
  EXPECT_EQ(a.deltas_rejected, b.deltas_rejected) << context;
  EXPECT_EQ(a.max_turn_deltas, b.max_turn_deltas) << context;
  EXPECT_EQ(a.queries_served, b.queries_served) << context;
  EXPECT_EQ(a.warm_hits, b.warm_hits) << context;
  EXPECT_EQ(a.cold_hits, b.cold_hits) << context;
  EXPECT_EQ(a.cold_computes, b.cold_computes) << context;
  EXPECT_EQ(a.sessions_opened, b.sessions_opened) << context;
  EXPECT_EQ(a.epochs_reclaimed, b.epochs_reclaimed) << context;
  EXPECT_EQ(a.epochs_live, b.epochs_live) << context;
  EXPECT_EQ(a.epoch_bytes, b.epoch_bytes) << context;
}

// Replays one seeded script of interleaved pins, queries, held-pin
// re-queries, delta submissions, turns, and pin releases against a
// manual-turn server. Every answer is checked against a from-scratch
// compute on the pinned snapshot; answers at pins held across turns must
// still match the result recorded when the pin was taken. `threads` is the
// writer's repair thread count.
void RunScript(uint64_t seed, int num_readers, StreamShape shape,
               ScriptRun* out, int threads = 0) {
  Rng rng(seed * 977 + static_cast<uint64_t>(shape) * 131 +
          static_cast<uint64_t>(num_readers));
  auto ex = MakeStreamInstance(rng, shape);
  const std::vector<std::string> relations = QueryRelationNames(ex.query);

  ServingConfig config;
  config.manual_turns = true;
  config.max_turn_deltas = 2;
  config.cache.max_delta_fraction = 1.0;  // repair every turn if possible
  config.options.join.threads = threads;
  SensitivityServer server(std::move(ex.db), config);
  server.RegisterQuery(ex.query);

  std::vector<std::unique_ptr<ServerSession>> sessions;
  for (int i = 0; i < num_readers; ++i) {
    sessions.push_back(server.OpenSession("s" + std::to_string(i)));
  }
  auto random_session = [&]() -> ServerSession& {
    return *sessions[rng.NextBounded(sessions.size())];
  };

  struct Held {
    EpochPin pin;
    SensitivityResult expected;
  };
  std::vector<Held> held;

  for (int step = 0; step < 60; ++step) {
    const std::string context = "seed " + std::to_string(seed) + " shape " +
                                std::to_string(static_cast<int>(shape)) +
                                " step " + std::to_string(step);
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // pin, query, oracle-check, release
        ServerSession& s = random_session();
        EpochPin pin = s.Pin();
        auto got = s.QueryAt(pin, ex.query);
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        auto fresh = ComputeLocalSensitivity(ex.query, pin.db());
        ASSERT_TRUE(fresh.ok()) << context;
        ExpectResultsIdentical(*got, *fresh, context);
        out->results.push_back(*std::move(got));
        break;
      }
      case 4: {  // take a pin and hold it across future turns
        EpochPin pin = random_session().Pin();
        auto fresh = ComputeLocalSensitivity(ex.query, pin.db());
        ASSERT_TRUE(fresh.ok()) << context;
        held.push_back({std::move(pin), *std::move(fresh)});
        break;
      }
      case 5: {  // re-query a held pin: must match its recorded result
        if (held.empty()) break;
        Held& h = held[rng.NextBounded(held.size())];
        auto got = random_session().QueryAt(h.pin, ex.query);
        ASSERT_TRUE(got.ok()) << context;
        ExpectResultsIdentical(*got, h.expected, context + " (held pin)");
        out->results.push_back(*std::move(got));
        break;
      }
      case 6:
      case 7: {  // submit a delta sized against the current snapshot
        EpochPin view = sessions[0]->Pin();
        ASSERT_TRUE(
            server
                .SubmitDelta(MakeRandomDelta(rng, view.db(), relations,
                                             /*domain=*/3))
                .ok())
            << context;
        break;
      }
      case 8:
        server.TurnEpoch();
        break;
      case 9: {  // release a random held pin
        if (held.empty()) break;
        const size_t i = rng.NextBounded(held.size());
        held[i] = std::move(held.back());
        held.pop_back();
        break;
      }
    }
  }

  // Held pins must have survived every turn since they were taken.
  for (Held& h : held) {
    auto got = sessions[0]->QueryAt(h.pin, ex.query);
    ASSERT_TRUE(got.ok());
    ExpectResultsIdentical(*got, h.expected, "final held-pin check");
    out->results.push_back(*std::move(got));
  }
  held.clear();

  out->stats = server.stats();
  out->final_epoch = server.current_epoch();
  server.Shutdown();
}

class ServingScriptedTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ServingScriptedTest, ScriptedStreamMatchesSnapshotOracle) {
  const auto [seed, readers] = GetParam();
  for (StreamShape shape :
       {StreamShape::kPath, StreamShape::kTree, StreamShape::kTriangle}) {
    ScriptRun run;
    RunScript(seed, readers, shape, &run);
    if (HasFatalFailure()) return;
    // The ledger adds up: every query was answered by exactly one path.
    EXPECT_EQ(run.stats.queries_served,
              run.stats.warm_hits + run.stats.cold_hits +
                  run.stats.cold_computes);
    EXPECT_EQ(run.stats.epochs_published, run.stats.turns + 1);
    EXPECT_EQ(run.stats.sessions_opened, static_cast<uint64_t>(readers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ServingScriptedTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(1, 4, 8)));

// The same script replays bit-identically: results, stats ledger, and
// final epoch id all match across independent servers, including one whose
// writer repairs with two threads.
TEST(ServingDeterminismTest, SameScriptReplaysBitIdentically) {
  for (StreamShape shape :
       {StreamShape::kPath, StreamShape::kTree, StreamShape::kTriangle}) {
    ScriptRun first;
    RunScript(7, 4, shape, &first);
    ASSERT_FALSE(HasFatalFailure());
    for (int threads : {0, 2}) {
      ScriptRun second;
      RunScript(7, 4, shape, &second, threads);
      ASSERT_FALSE(HasFatalFailure());
      const std::string context =
          "shape " + std::to_string(static_cast<int>(shape)) + " threads " +
          std::to_string(threads);
      ASSERT_EQ(first.results.size(), second.results.size()) << context;
      for (size_t i = 0; i < first.results.size(); ++i) {
        ExpectResultsIdentical(first.results[i], second.results[i],
                               context + " result " + std::to_string(i));
      }
      ExpectStatsEqual(first.stats, second.stats, context);
      EXPECT_EQ(first.final_epoch, second.final_epoch) << context;
    }
  }
}

// --- Free-running stress ----------------------------------------------------

// Eight reader sessions on pool workers race a free-running writer through
// 200+ epoch turns (admission cap 1, so every applied delta is its own
// turn). Every single read — warm, cold, and at a pin held from epoch 1 to
// the end — is checked bit-identical to a from-scratch compute on the
// pinned snapshot. Failures are collected per reader (gtest assertions are
// not thread-safe) and asserted on the main thread.
TEST(ServingFreeRunningTest, StressEveryReadBitIdenticalAcross200Turns) {
  auto ex = testing::MakeFigure3Example();
  ConjunctiveQuery cold_query;  // unregistered: exercises the cold path
  cold_query.AddAtom(ex.db, "R1", {"A", "B"});
  cold_query.AddAtom(ex.db, "R2", {"B", "C"});
  const std::vector<std::string> relations = {"R1", "R2", "R3", "R4"};

  ServingConfig config;
  config.max_turn_deltas = 1;
  config.cache.max_delta_fraction = 1.0;
  SensitivityServer server(std::move(ex.db), config);
  server.RegisterQuery(ex.query);

  constexpr int kReaders = 8;
  constexpr uint64_t kTargetTurns = 200;
  struct ReaderReport {
    uint64_t queries = 0;
    uint64_t violations = 0;
    std::string first_violation;
  };
  std::vector<ReaderReport> reports(kReaders);
  std::vector<std::unique_ptr<ServerSession>> sessions;
  for (int i = 0; i < kReaders; ++i) {
    sessions.push_back(server.OpenSession("reader-" + std::to_string(i)));
  }
  std::atomic<bool> stop{false};

  ThreadPool& pool = GlobalThreadPool();
  ASSERT_GE(pool.num_workers(), static_cast<size_t>(kReaders));
  for (int i = 0; i < kReaders; ++i) {
    pool.Submit([&, i](size_t) {
      ServerSession& session = *sessions[i];
      ReaderReport& report = reports[i];
      auto note = [&](const std::string& what) {
        ++report.violations;
        if (report.first_violation.empty()) report.first_violation = what;
      };
      // The oracle recomputes run on a pool worker, so they must carry
      // their own context — the thread-local fallback is off-limits here.
      ExecContext oracle_ctx;
      TSensComputeOptions oracle_options;
      oracle_options.join.ctx = &oracle_ctx;
      // Held from before the first turn until after the last: the epoch-1
      // snapshot must stay alive and bit-stable throughout (asan would
      // catch a reclaimed-under-pin read).
      EpochPin long_pin = session.Pin();
      auto long_expected =
          ComputeLocalSensitivity(ex.query, long_pin.db(), oracle_options);
      if (!long_expected.ok()) note("long-pin oracle failed");
      do {  // at least one verified iteration even if stop lands early
        EpochPin pin = session.Pin();
        for (const ConjunctiveQuery* q : {&ex.query, &cold_query}) {
          ++report.queries;
          auto got = session.QueryAt(pin, *q);
          auto fresh = ComputeLocalSensitivity(*q, pin.db(), oracle_options);
          if (!got.ok() || !fresh.ok()) {
            note("query/oracle error at epoch " +
                 std::to_string(pin.epoch()));
            continue;
          }
          const std::string diff = DiffResults(*got, *fresh);
          if (!diff.empty()) {
            note("epoch " + std::to_string(pin.epoch()) + ": " + diff);
          }
        }
        if (long_expected.ok()) {
          auto again = session.QueryAt(long_pin, ex.query);
          if (!again.ok() || !DiffResults(*again, *long_expected).empty()) {
            note("held pin drifted");
          }
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  // Feed single-delta turns until 200 have published; deltas are sized
  // against a freshly pinned snapshot, so a few may race a queued resize
  // and get rejected — those surface as empty turns, not corruption.
  // No fatal assertions between here and pool.Wait(): an early return
  // would unwind locals the reader tasks still reference.
  Rng rng(2024);
  auto feeder = server.OpenSession("feeder");
  uint64_t submitted = 0;
  bool submit_ok = true;
  while (submit_ok && server.stats().turns < kTargetTurns &&
         submitted < 1000) {
    EpochPin view = feeder->Pin();
    submit_ok = server
                    .SubmitDelta(MakeRandomDelta(rng, view.db(), relations,
                                                 /*domain=*/3))
                    .ok();
    if (submit_ok) ++submitted;
    if (submitted % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Drain: with cap 1 every submitted delta is consumed by exactly one
  // turn (publishing or empty).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool drained = false;
  while (!drained && std::chrono::steady_clock::now() < deadline) {
    const ServingStats s = server.stats();
    drained = s.turns + s.empty_turns >= submitted;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  pool.Wait();
  server.Shutdown();
  EXPECT_TRUE(submit_ok);
  ASSERT_TRUE(drained) << "writer failed to drain " << submitted
                       << " deltas in time";

  const ServingStats stats = server.stats();
  EXPECT_GE(stats.turns, kTargetTurns);
  EXPECT_EQ(stats.turns + stats.empty_turns, submitted);
  EXPECT_EQ(stats.deltas_applied + stats.deltas_rejected, submitted);
  uint64_t total_queries = 0;
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_GT(reports[i].queries, 0u) << "reader " << i << " never ran";
    EXPECT_EQ(reports[i].violations, 0u)
        << "reader " << i << " first violation: "
        << reports[i].first_violation;
    total_queries += reports[i].queries;
  }
  EXPECT_GE(stats.queries_served, total_queries);
  EXPECT_EQ(stats.queries_served,
            stats.warm_hits + stats.cold_hits + stats.cold_computes);
}

// Readers hold their pins across writer turns and release them only after
// the writer has retired the pinned epoch, so the last release of a retired
// epoch — and with it the drop of the chunks and dictionary it
// shared with the master — runs on a reader thread while the writer applies
// the next deltas to the master. Under tsan this checks those releases
// against the writer's copies and publishes; everywhere it checks that a
// held snapshot never changes under its reader. (The master never writes
// in place right after such a release — the current epoch still shares its
// buffers — so the ordering of the uniqueness test itself is pinned by
// CopyOnWriteTest.WritesAfterAnotherThreadsLastReleaseGoInPlace.)
TEST(ServingFreeRunningTest, ReadersReleaseRetiredEpochsWhileWriterApplies) {
  auto ex = testing::MakeFigure3Example();
  const std::vector<std::string> relations = {"R1", "R2", "R3", "R4"};
  ServingConfig config;
  config.max_turn_deltas = 1;
  config.cache.max_delta_fraction = 1.0;
  SensitivityServer server(std::move(ex.db), config);
  server.RegisterQuery(ex.query);

  constexpr int kReaders = 3;
  constexpr uint64_t kTargetTurns = 100;
  // Order-sensitive digest of every column of every relation.
  auto digest = [](const Database& db) {
    uint64_t h = 0;
    for (const std::string& name : db.relation_names()) {
      const Relation* rel = db.Find(name);
      for (size_t c = 0; c < rel->arity(); ++c) {
        const ChunkedColumn col = rel->Chunks(c);
        for (size_t k = 0; k < col.num_chunks(); ++k) {
          for (Value v : col.chunk(k)) {
            h = h * 1000003u + static_cast<uint64_t>(v);
          }
        }
        h = h * 1000003u + rel->NumRows();
      }
    }
    return h;
  };
  struct ReaderReport {
    uint64_t violations = 0;
    uint64_t retired_releases = 0;
  };
  std::vector<ReaderReport> reports(kReaders);
  std::vector<std::unique_ptr<ServerSession>> sessions;
  for (int i = 0; i < kReaders; ++i) {
    sessions.push_back(server.OpenSession("reader-" + std::to_string(i)));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      ServerSession& session = *sessions[i];
      ReaderReport& report = reports[i];
      while (!stop.load(std::memory_order_acquire)) {
        EpochPin pin = session.Pin();
        const uint64_t at_pin = digest(pin.db());
        if (pin.db().VersionVector() != pin.versions()) ++report.violations;
        while (server.current_epoch() == pin.epoch() &&
               !stop.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (digest(pin.db()) != at_pin) ++report.violations;
        if (server.current_epoch() != pin.epoch()) ++report.retired_releases;
        pin.Release();
      }
    });
  }

  // No fatal assertions until the readers are joined: an early return
  // would destroy the sessions and server they still use.
  Rng rng(31);
  auto feeder = server.OpenSession("feeder");
  uint64_t submitted = 0;
  bool submit_ok = true;
  while (submit_ok && server.stats().turns < kTargetTurns &&
         submitted < 1000) {
    EpochPin view = feeder->Pin();
    submit_ok = server
                    .SubmitDelta(MakeRandomDelta(rng, view.db(), relations,
                                                 /*domain=*/3))
                    .ok();
    view.Release();
    if (submit_ok) ++submitted;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool drained = false;
  while (!drained && std::chrono::steady_clock::now() < deadline) {
    const ServingStats s = server.stats();
    drained = s.turns + s.empty_turns >= submitted;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  // Every reader pin is gone: only the current epoch is live, and the gauge
  // is exactly its footprint.
  uint64_t current_bytes = 0;
  {
    EpochPin current = feeder->Pin();
    current_bytes = current.db().MemoryBytes();
  }
  server.Shutdown();
  EXPECT_TRUE(submit_ok);
  ASSERT_TRUE(drained) << "writer failed to drain " << submitted
                       << " deltas in time";

  const ServingStats stats = server.stats();
  EXPECT_GE(stats.turns, kTargetTurns);
  uint64_t retired_releases = 0;
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_EQ(reports[i].violations, 0u) << "reader " << i;
    retired_releases += reports[i].retired_releases;
  }
  EXPECT_GT(retired_releases, 0u);
  EXPECT_EQ(stats.epochs_live, 1u);
  EXPECT_EQ(stats.epochs_reclaimed, stats.epochs_published - 1);
  EXPECT_EQ(stats.epoch_bytes, current_bytes);
}

// --- Epoch reclamation ------------------------------------------------------

TEST(ServingReclamationTest, PinKeepsEpochAliveAcrossTurns) {
  auto ex = testing::MakeFigure3Example();
  ConjunctiveQuery query = ex.query;
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  auto session = server.OpenSession("pinner");

  EpochPin pin = session->Pin();
  ASSERT_EQ(pin.epoch(), 1u);
  auto expected = ComputeLocalSensitivity(query, pin.db());
  ASSERT_TRUE(expected.ok());
  const uint64_t pinned_bytes = pin.db().MemoryBytes();
  const std::vector<std::pair<std::string, uint64_t>> pinned_versions =
      pin.versions();

  constexpr int kTurns = 5;
  for (int k = 0; k < kTurns; ++k) {
    ASSERT_TRUE(
        server.SubmitDelta(InsertDelta("R1", {Value(100 + k), Value(7)}))
            .ok());
    ASSERT_TRUE(server.TurnEpoch());
  }

  // Ledger: the pinned epoch 1 and the current epoch are alive; the four
  // interior epochs were retired and freed as their successors published.
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.epochs_published, 1u + kTurns);
  EXPECT_EQ(stats.epochs_live, 2u);
  EXPECT_EQ(stats.epochs_reclaimed, static_cast<uint64_t>(kTurns - 1));
  uint64_t current_bytes = 0;
  {
    EpochPin current = session->Pin();
    EXPECT_EQ(current.epoch(), 1u + kTurns);
    current_bytes = current.db().MemoryBytes();
    // The two live epochs differ only in R1: every turn copied R1's chunk
    // tables and tail chunks on its first write, and R2-R4 and the
    // dictionary are one set of buffers that both epochs share and the
    // gauge counts once.
    EXPECT_GT(stats.epoch_bytes, current_bytes);
    EXPECT_LT(stats.epoch_bytes, pinned_bytes + current_bytes);
    EXPECT_LT(stats.epoch_bytes, 2 * current_bytes);
    std::vector<MemoryPart> parts;
    pin.db().AppendMemoryParts(&parts);
    current.db().AppendMemoryParts(&parts);
    EXPECT_EQ(stats.epoch_bytes, SumDistinctBytes(std::move(parts)));
  }

  // The pinned snapshot is bit-stable: same versions, same answer.
  EXPECT_EQ(pin.versions(), pinned_versions);
  auto still = session->QueryAt(pin, query);
  ASSERT_TRUE(still.ok());
  ExpectResultsIdentical(*still, *expected, "pinned across turns");

  // Releasing the last pin frees the retired epoch immediately.
  pin.Release();
  EXPECT_FALSE(pin.valid());
  stats = server.stats();
  EXPECT_EQ(stats.epochs_reclaimed, static_cast<uint64_t>(kTurns));
  EXPECT_EQ(stats.epochs_live, 1u);
  EXPECT_EQ(stats.epoch_bytes, current_bytes);
  server.Shutdown();
}

// Two live epochs that differ by a 1-row delta on a relation of nine
// chunks share every chunk the delta did not write. The swap-remove copied
// the removed row's chunk and the tail chunk of each column, and each
// column's chunk table, so the gauge holds the current epoch plus at most
// those and the pinned relation's own bookkeeping.
TEST(ServingReclamationTest, EpochsOneRowApartShareAllButTheWrittenChunks) {
  constexpr size_t kRows = 8 * kChunkRows + 100;
  Database db;
  Relation* big = db.AddRelation("B", {"x", "y"});
  for (size_t i = 0; i < kRows; ++i) {
    big->AppendRow({static_cast<Value>(i), static_cast<Value>(i % 7)});
  }
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(db), config);
  auto session = server.OpenSession("pinner");
  EpochPin pin = session->Pin();

  RelationDelta rd;
  rd.relation = "B";
  rd.delete_rows.push_back(3);
  ASSERT_TRUE(server.SubmitDelta({rd}).ok());
  ASSERT_TRUE(server.TurnEpoch());

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.epochs_live, 2u);
  EpochPin current = session->Pin();
  const Relation& pinned = *pin.db().Find("B");
  ASSERT_EQ(pinned.NumRows(), kRows);
  ASSERT_EQ(current.db().Find("B")->NumRows(), kRows - 1);
  std::vector<MemoryPart> parts;
  pinned.AppendMemoryParts(&parts);
  const size_t table_bytes = parts.front().bytes;  // column 0's table
  const size_t own_bytes = parts.back().bytes;
  const size_t chunk_bytes = kChunkRows * sizeof(Value);
  const size_t current_bytes = current.db().MemoryBytes();
  const size_t bound = current_bytes + own_bytes +
                       pinned.arity() * (2 * chunk_bytes + table_bytes);
  EXPECT_GT(stats.epoch_bytes, current_bytes);
  EXPECT_LE(stats.epoch_bytes, bound);
  server.Shutdown();
}

TEST(ServingReclamationTest, ZeroReaderPublishReclaimsImmediately) {
  auto ex = testing::MakeFigure3Example();
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        server.SubmitDelta(InsertDelta("R2", {Value(50 + k), Value(3)}))
            .ok());
    ASSERT_TRUE(server.TurnEpoch());
    const ServingStats stats = server.stats();
    EXPECT_EQ(stats.epochs_live, 1u) << "turn " << k;
    EXPECT_EQ(stats.epochs_reclaimed, static_cast<uint64_t>(k + 1));
    EXPECT_EQ(server.current_epoch(), static_cast<uint64_t>(k + 2));
  }
  server.Shutdown();
}

TEST(ServingReclamationTest, PostPublishInternRendersInNextEpoch) {
  // A delta producer interns a string value after epoch 1 is published.
  // The already-published snapshot must not mis-decode the new code — its
  // dictionary's ContainsValue range check answers false — while the next
  // published epoch carries the code and renders it.
  auto ex = testing::MakeFigure3Example();
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  auto session = server.OpenSession("s");

  EpochPin old_pin = session->Pin();
  const Value code = server.InternValue("post-publish-city");
  EXPECT_GE(code, Dictionary::kBase);
  // The pinned snapshot predates the intern, which copied the dictionary
  // the snapshot shared before appending: the new code is out of the
  // snapshot's range — no mis-decode, no crash.
  EXPECT_FALSE(old_pin.db().dict().ContainsValue(code));

  // Interning the same string again returns the same code (append-only,
  // stable), so producers may cache codes across turns.
  EXPECT_EQ(server.InternValue("post-publish-city"), code);

  ASSERT_TRUE(server.SubmitDelta(InsertDelta("R2", {code, Value(3)})).ok());
  ASSERT_TRUE(server.TurnEpoch());
  {
    EpochPin pin = session->Pin();
    EXPECT_TRUE(pin.db().dict().ContainsValue(code));
    EXPECT_EQ(pin.db().dict().String(code), "post-publish-city");
    const Relation* r2 = pin.db().Find("R2");
    bool found = false;
    for (size_t i = 0; i < r2->NumRows() && !found; ++i) {
      found = r2->At(i, 0) == code;
    }
    EXPECT_TRUE(found);
  }
  // The old pin still answers false after the publish: the master wrote
  // its own copy, never the dictionary the old epoch holds.
  EXPECT_FALSE(old_pin.db().dict().ContainsValue(code));
  old_pin.Release();
  server.Shutdown();
}

// --- Shutdown and abuse -----------------------------------------------------

TEST(ServingAbuseTest, PoisonedBatchLeavesPublishedEpochUntouched) {
  auto ex = testing::MakeFigure3Example();
  ConjunctiveQuery query = ex.query;
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  auto session = server.OpenSession("s");
  const size_t r1_rows = [&] {
    EpochPin pin = session->Pin();
    return pin.db().Find("R1")->NumRows();
  }();

  // A delete far out of range poisons the whole batch.
  RelationDelta bad;
  bad.relation = "R1";
  bad.delete_rows = {999};
  DatabaseDelta poison;
  poison.push_back(bad);
  ASSERT_TRUE(server.SubmitDelta(poison).ok());
  EXPECT_FALSE(server.TurnEpoch());  // nothing applied: no publish
  EXPECT_EQ(server.current_epoch(), 1u);

  // All-or-nothing within one batch: a good insert riding with the
  // poisoned delete is rolled back with it.
  RelationDelta good;
  good.relation = "R1";
  good.inserts.push_back({Value(1), Value(1)});
  DatabaseDelta mixed;
  mixed.push_back(good);
  mixed.push_back(bad);
  ASSERT_TRUE(server.SubmitDelta(mixed).ok());
  EXPECT_FALSE(server.TurnEpoch());
  EXPECT_EQ(server.current_epoch(), 1u);
  {
    EpochPin pin = session->Pin();
    EXPECT_EQ(pin.epoch(), 1u);
    EXPECT_EQ(pin.db().Find("R1")->NumRows(), r1_rows);
  }

  // Independent batches are admitted independently: a good batch queued
  // next to a poisoned one still publishes, the poisoned one is counted
  // rejected, and the new epoch answers correctly.
  DatabaseDelta lone_good;
  lone_good.push_back(good);
  ASSERT_TRUE(server.SubmitDelta(lone_good).ok());
  ASSERT_TRUE(server.SubmitDelta(poison).ok());
  EXPECT_TRUE(server.TurnEpoch());
  EXPECT_EQ(server.current_epoch(), 2u);
  {
    EpochPin pin = session->Pin();
    EXPECT_EQ(pin.db().Find("R1")->NumRows(), r1_rows + 1);
    auto got = session->QueryAt(pin, query);
    ASSERT_TRUE(got.ok());
    auto fresh = ComputeLocalSensitivity(query, pin.db());
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*got, *fresh, "after mixed turn");
  }
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.empty_turns, 2u);
  EXPECT_EQ(stats.deltas_applied, 1u);
  EXPECT_EQ(stats.deltas_rejected, 3u);
  server.Shutdown();
}

TEST(ServingAbuseTest, ShutdownDrainsQueueAndCoalesces) {
  auto ex = testing::MakeFigure3Example();
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        server.SubmitDelta(InsertDelta("R3", {Value(k), Value(k)})).ok());
  }
  server.Shutdown();
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.deltas_applied, 3u);
  EXPECT_EQ(stats.turns, 1u);            // one coalesced turn drained all
  EXPECT_EQ(stats.max_turn_deltas, 3u);  // the admission batch was size 3
  const Status late = server.SubmitDelta(InsertDelta("R3", {9, 9}));
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), Status::Code::kUnsupported);
}

TEST(ServingAbuseTest, DoubleShutdownIsSafe) {
  auto ex = testing::MakeFigure3Example();
  SensitivityServer server(std::move(ex.db));  // free-running writer
  ASSERT_TRUE(server.SubmitDelta(InsertDelta("R4", {1, 2})).ok());
  server.Shutdown();
  server.Shutdown();  // idempotent; the destructor adds a third call
  EXPECT_EQ(server.stats().deltas_applied, 1u);
}

TEST(ServingDeathTest, QueryAfterShutdownDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto ex = testing::MakeFigure3Example();
  ConjunctiveQuery query = ex.query;
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  auto session = server.OpenSession("s");
  server.Shutdown();
  EXPECT_DEATH(session->Query(query), "shut-down");
  EXPECT_DEATH(session->Pin(), "shut-down");
}

// --- Warm/cold serving paths and per-session stats --------------------------

TEST(ServingStatsTest, WarmAndColdPathsRecordPerSessionStats) {
  auto ex = testing::MakeFigure3Example();
  ConjunctiveQuery warm_query = ex.query;
  ConjunctiveQuery cold_query;
  cold_query.AddAtom(ex.db, "R1", {"A", "B"});
  cold_query.AddAtom(ex.db, "R2", {"B", "C"});
  ServingConfig config;
  config.manual_turns = true;
  SensitivityServer server(std::move(ex.db), config);
  server.RegisterQuery(warm_query);
  server.RegisterQuery(warm_query);  // duplicate registration is a no-op

  // Registration warms from the next turn on.
  ASSERT_TRUE(server.SubmitDelta(InsertDelta("R1", {5, 5})).ok());
  ASSERT_TRUE(server.TurnEpoch());

  auto s1 = server.OpenSession("s1");
  auto s2 = server.OpenSession("s2");
  auto warm = s1->Query(warm_query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(server.stats().warm_hits, 1u);
  {
    EpochPin pin = s1->Pin();
    auto fresh = ComputeLocalSensitivity(warm_query, pin.db());
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*warm, *fresh, "warm hit");
  }

  ASSERT_TRUE(s1->Query(cold_query).ok());  // computes, memoizes
  ASSERT_TRUE(s1->Query(cold_query).ok());  // cold memo hit
  ASSERT_TRUE(s2->Query(cold_query).ok());  // another session shares it
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.cold_computes, 1u);
  EXPECT_EQ(stats.cold_hits, 2u);
  EXPECT_EQ(stats.queries_served, 4u);
  EXPECT_EQ(stats.queries_served,
            stats.warm_hits + stats.cold_hits + stats.cold_computes);

  // Per-session profile: the serve.* pseudo-ops land in the session ctx
  // and render next to the compute kernels.
  EXPECT_NE(s1->ctx().FindStats("serve.query"), nullptr);
  EXPECT_NE(s1->ctx().FindStats("serve.warm_hit"), nullptr);
  EXPECT_NE(s1->ctx().FindStats("serve.cold_compute"), nullptr);
  EXPECT_NE(s1->ctx().FindStats("serve.cold_hit"), nullptr);
  EXPECT_EQ(s2->ctx().FindStats("serve.warm_hit"), nullptr);
  const std::string rendered = RenderExecStats(s1->ctx());
  EXPECT_NE(rendered.find("serve.query"), std::string::npos);
  EXPECT_NE(rendered.find("serve.warm_hit"), std::string::npos);
  // The writer's warm pass profiled into the writer ctx.
  EXPECT_FALSE(RenderExecStats(server.writer_ctx()).empty());
  server.Shutdown();
}

// --- Serving-side PrivSQL budget --------------------------------------------

TEST(PrivSqlBudgetTest, ChargesRefusesAndRefunds) {
  PrivSqlBudget budget(1.0);
  EXPECT_EQ(budget.total(), 1.0);
  EXPECT_TRUE(budget.TryCharge(0.4));
  EXPECT_TRUE(budget.TryCharge(0.4));
  EXPECT_FALSE(budget.TryCharge(0.4));  // 1.2 > 1.0: untouched
  EXPECT_NEAR(budget.remaining(), 0.2, 1e-9);
  EXPECT_FALSE(budget.TryCharge(0.0));   // non-positive never chargeable
  EXPECT_FALSE(budget.TryCharge(-1.0));
  budget.Refund(0.4);
  EXPECT_NEAR(budget.remaining(), 0.6, 1e-9);
  EXPECT_TRUE(budget.TryCharge(0.6));
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-9);
  budget.Refund(100.0);  // clamped: spent() never goes negative
  EXPECT_EQ(budget.spent(), 0.0);
  EXPECT_NEAR(budget.remaining(), 1.0, 1e-9);
}

TEST(PrivSqlBudgetTest, ConcurrentChargesNeverOverspend) {
  PrivSqlBudget budget(1.0);
  std::atomic<int> successes{0};
  ThreadPool& pool = GlobalThreadPool();
  for (int t = 0; t < 8; ++t) {
    pool.Submit([&](size_t) {
      for (int i = 0; i < 50; ++i) {
        if (budget.TryCharge(0.25)) successes.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(successes.load(), 4);  // exactly 4 * 0.25 fit in 1.0
  EXPECT_LE(budget.spent(), 1.0 + 1e-9);
}

TEST(PrivSqlBudgetTest, ServePrivSqlTracksTheBudget) {
  auto ex = testing::MakeFigure3Example();
  PrivSqlPolicy policy;
  policy.private_atom = 0;
  PrivSqlOptions options;
  options.epsilon = 0.6;
  options.seed = 3;
  PrivSqlBudget budget(1.0);

  auto first = ServePrivSql(ex.query, ex.db, policy, options, budget);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(budget.remaining(), 0.4, 1e-9);

  // A second 0.6 release does not fit: refused before touching the data.
  auto second = ServePrivSql(ex.query, ex.db, policy, options, budget);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kUnsupported);
  EXPECT_NEAR(budget.remaining(), 0.4, 1e-9);

  // A run that fails after charging refunds: it released nothing.
  PrivSqlPolicy broken;
  broken.private_atom = 99;
  PrivSqlOptions small = options;
  small.epsilon = 0.3;
  auto failed = ServePrivSql(ex.query, ex.db, broken, small, budget);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NEAR(budget.remaining(), 0.4, 1e-9);
}

}  // namespace
}  // namespace lsens
