// Concurrent serving bench: a free-running SensitivityServer turns epochs
// over a chain-join database while N reader sessions answer registered
// (warm) queries from pinned snapshots. Reports reader throughput
// (queries/sec), the writer's repair-batch coalescing, and — the
// correctness gate — the number of snapshot-consistency violations found
// by sampled from-scratch recomputes against the pinned snapshots. Writes
// the BENCH_serving.json trajectory file ({"readers", "turns", "queries",
// "queries_per_sec", "epochs_published", "mean_turn_deltas",
// "max_turn_deltas", "warm_hits", "cold_hits", "cold_computes",
// "oracle_checks", "snapshot_violations", "publish": [{"rows",
// "touched_rows", "publish_ns"}, ...]}).
//
// The publish axis times the storage half of a writer turn on its own: one
// 1-row ApplyDelta plus CloneSnapshot, with the previous snapshot held
// alive as the server's current epoch would be. It runs along two axes:
// 20k, 200k and 2M total rows while the relation the delta touches keeps
// 10k, then a touched relation of 10k, 100k and 1M rows at 2M total.
// Epochs share column chunks and a delta copies only the chunks it writes,
// so publish_ns should stay flat along both axes. It is reported, not
// gated.
//
// Exits non-zero (failing the CTest smoke) when any sampled read differs
// from the from-scratch recompute at its pinned epoch: served answers must
// be bit-identical to the snapshot oracle, always.
//
// Knobs:
//   LSENS_SERVE_READERS       reader sessions               (default 8)
//   LSENS_SERVE_TURNS         published writer turns        (default 200)
//   LSENS_SERVE_QUERIES       queries per reader            (default 200)
//   LSENS_SERVE_ROWS          rows per relation             (default 20000)
//   LSENS_SERVE_DOMAIN        join-key domain               (default 500)
//   LSENS_SERVE_ORACLE_EVERY  oracle-recompute sampling     (default 16)
//   LSENS_SERVE_BATCH         admission cap per turn        (default 8)
//   LSENS_BENCH_SERVING_JSON  output path (default BENCH_serving.json)

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exec/exec_context.h"
#include "query/explain.h"
#include "sensitivity/tsens.h"
#include "server/sensitivity_server.h"

namespace lsens {
namespace {

constexpr long kChainLen = 3;  // relations R0..R2, queries over prefixes

Database MakeChainDb(Rng& rng, long rows, long domain) {
  Database db;
  for (long a = 0; a < kChainLen; ++a) {
    Relation* rel = db.AddRelation("R" + std::to_string(a), {"c0", "c1"});
    rel->Reserve(static_cast<size_t>(rows));
    for (long r = 0; r < rows; ++r) {
      rel->AppendRow(
          {static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain))),
           static_cast<Value>(
               rng.NextBounded(static_cast<uint64_t>(domain)))});
    }
  }
  return db;
}

// Chain queries over prefixes R0..Ra, the overlapping registered workload
// the shared cache warms with one repair pass per turn.
std::vector<ConjunctiveQuery> MakeChainQueries(Database& db) {
  std::vector<ConjunctiveQuery> queries;
  for (long len = 2; len <= kChainLen; ++len) {
    ConjunctiveQuery q;
    for (long a = 0; a < len; ++a) {
      q.AddAtom(db, "R" + std::to_string(a),
                {"x" + std::to_string(a), "x" + std::to_string(a + 1)});
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

// Insert-only batches keep every delta applicable regardless of how far
// the feeder's view lags the master, so the turn count is delta-driven.
DatabaseDelta MakeInsertDelta(Rng& rng, long domain) {
  RelationDelta rd;
  rd.relation = "R" + std::to_string(rng.NextBounded(kChainLen));
  const size_t n = 1 + rng.NextBounded(2);
  for (size_t i = 0; i < n; ++i) {
    rd.inserts.push_back(
        {static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain))),
         static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain)))});
  }
  DatabaseDelta delta;
  delta.push_back(std::move(rd));
  return delta;
}

struct PublishPoint {
  size_t rows = 0;          // total rows in the database
  size_t touched_rows = 0;  // rows of the relation each delta touches
  double publish_ns = 0;    // median ApplyDelta + CloneSnapshot
};

// One point of the publish axis: a two-column relation "T" of
// `touched_rows` that every delta inserts one row into, plus a filler
// relation "F" that brings the total to `rows`.
PublishPoint TimePublish(size_t rows, size_t touched_rows) {
  constexpr int kReps = 200;
  Rng rng(rows);
  Database db;
  Relation* touched = db.AddRelation("T", {"c0", "c1"});
  Relation* filler = db.AddRelation("F", {"c0", "c1"});
  for (size_t r = 0; r < rows; ++r) {
    Relation* rel = r < touched_rows ? touched : filler;
    rel->AppendRow({static_cast<Value>(rng.NextBounded(1000)),
                    static_cast<Value>(rng.NextBounded(1000))});
  }
  Database epoch = db.CloneSnapshot();
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    RelationDelta rd;
    rd.relation = "T";
    rd.inserts.push_back({static_cast<Value>(i), static_cast<Value>(i)});
    WallTimer timer;
    if (!db.ApplyDelta({std::move(rd)}).ok()) std::abort();
    epoch = db.CloneSnapshot();
    ns.push_back(timer.ElapsedSeconds() * 1e9);
  }
  return {rows, touched_rows, bench::Median(std::move(ns))};
}

int Run() {
  const long readers = std::max(1L, bench::EnvInt("LSENS_SERVE_READERS", 8));
  const long turns_target = bench::EnvInt("LSENS_SERVE_TURNS", 200);
  const long queries_per_reader =
      bench::EnvInt("LSENS_SERVE_QUERIES", 200);
  const long rows = bench::EnvInt("LSENS_SERVE_ROWS", 20000);
  const long domain = bench::EnvInt("LSENS_SERVE_DOMAIN", 500);
  const long oracle_every =
      std::max(1L, bench::EnvInt("LSENS_SERVE_ORACLE_EVERY", 16));
  const long batch = std::max(1L, bench::EnvInt("LSENS_SERVE_BATCH", 8));

  bench::Banner("Concurrent sensitivity serving",
                "reader sessions on pinned epoch snapshots vs a "
                "free-running delta writer");

  std::vector<PublishPoint> publish;
  for (size_t total : {20000u, 200000u, 2000000u}) {
    publish.push_back(TimePublish(total, 10000));
  }
  for (size_t touched : {100000u, 1000000u}) {
    publish.push_back(TimePublish(2000000, touched));
  }
  for (const PublishPoint& p : publish) {
    std::printf("publish: %9zu rows (%zu touched) %10.0f ns\n", p.rows,
                p.touched_rows, p.publish_ns);
  }

  Rng build_rng(20200614);
  Database db = MakeChainDb(build_rng, rows, domain);
  std::vector<ConjunctiveQuery> queries = MakeChainQueries(db);

  ServingConfig config;
  config.max_turn_deltas = static_cast<size_t>(batch);
  config.cache.max_delta_fraction = 1.0;
  SensitivityServer server(std::move(db), config);
  for (const ConjunctiveQuery& q : queries) server.RegisterQuery(q);

  struct ReaderReport {
    uint64_t queries = 0;
    uint64_t oracle_checks = 0;
    uint64_t violations = 0;
  };
  std::vector<ReaderReport> reports(static_cast<size_t>(readers));
  std::vector<std::unique_ptr<ServerSession>> sessions;
  for (long i = 0; i < readers; ++i) {
    sessions.push_back(server.OpenSession("reader-" + std::to_string(i)));
  }

  ThreadPool& pool = GlobalThreadPool();
  WallTimer reader_phase;
  for (long i = 0; i < readers; ++i) {
    pool.Submit([&, i](size_t) {
      ServerSession& session = *sessions[static_cast<size_t>(i)];
      ReaderReport& report = reports[static_cast<size_t>(i)];
      // Oracle recomputes run on a pool worker: pass an explicit context
      // rather than tripping the thread-local fallback guard.
      ExecContext oracle_ctx;
      TSensComputeOptions oracle_options;
      oracle_options.join.ctx = &oracle_ctx;
      for (long q = 0; q < queries_per_reader; ++q) {
        const ConjunctiveQuery& query =
            queries[static_cast<size_t>(q) % queries.size()];
        EpochPin pin = session.Pin();
        auto got = session.QueryAt(pin, query);
        ++report.queries;
        const bool check = q % oracle_every == 0;
        if (!check) continue;
        ++report.oracle_checks;
        auto fresh =
            ComputeLocalSensitivity(query, pin.db(), oracle_options);
        if (!got.ok() || !fresh.ok() ||
            got->local_sensitivity != fresh->local_sensitivity ||
            got->argmax_atom != fresh->argmax_atom) {
          ++report.violations;
        }
      }
    });
  }

  // Feed the writer until it has published the target number of turns;
  // brief sleeps let the (single-core-friendly) writer and readers run.
  Rng feed_rng(99);
  uint64_t submitted = 0;
  const uint64_t submit_cap =
      static_cast<uint64_t>(turns_target) * static_cast<uint64_t>(batch) * 4 +
      1000;
  while (server.stats().turns < static_cast<uint64_t>(turns_target) &&
         submitted < submit_cap) {
    if (!server.SubmitDelta(MakeInsertDelta(feed_rng, domain)).ok()) break;
    ++submitted;
    if (submitted % static_cast<uint64_t>(batch) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  pool.Wait();
  const double reader_seconds = reader_phase.ElapsedSeconds();
  server.Shutdown();

  const ServingStats stats = server.stats();
  uint64_t total_queries = 0;
  uint64_t oracle_checks = 0;
  uint64_t violations = 0;
  for (const ReaderReport& r : reports) {
    total_queries += r.queries;
    oracle_checks += r.oracle_checks;
    violations += r.violations;
  }
  const double qps =
      reader_seconds > 0 ? static_cast<double>(total_queries) / reader_seconds
                         : 0.0;
  const double mean_turn_deltas =
      stats.turns > 0 ? static_cast<double>(stats.deltas_applied) /
                            static_cast<double>(stats.turns)
                      : 0.0;
  std::printf(
      "readers=%ld turns=%" PRIu64 " submitted=%" PRIu64 "\n"
      "queries %" PRIu64 " in %.3f s  ->  %10.0f queries/sec\n"
      "epochs published %" PRIu64 "  repair batches: mean %.2f max %" PRIu64
      "\n"
      "warm_hits %" PRIu64 "  cold_hits %" PRIu64 "  cold_computes %" PRIu64
      "\n"
      "oracle checks %" PRIu64 "  snapshot violations %" PRIu64 "\n",
      readers, stats.turns, submitted, total_queries, reader_seconds, qps,
      stats.epochs_published, mean_turn_deltas, stats.max_turn_deltas,
      stats.warm_hits, stats.cold_hits, stats.cold_computes, oracle_checks,
      violations);
  std::printf("reader-0 session profile:\n%s",
              RenderExecStats(sessions[0]->ctx()).c_str());

  const char* path = std::getenv("LSENS_BENCH_SERVING_JSON");
  if (path == nullptr) path = "BENCH_serving.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f,
                 "{\"readers\": %ld, \"turns\": %" PRIu64
                 ", \"queries\": %" PRIu64
                 ", \"queries_per_sec\": %.1f, \"epochs_published\": %" PRIu64
                 ", \"mean_turn_deltas\": %.2f, \"max_turn_deltas\": %" PRIu64
                 ", \"warm_hits\": %" PRIu64 ", \"cold_hits\": %" PRIu64
                 ", \"cold_computes\": %" PRIu64
                 ", \"oracle_checks\": %" PRIu64
                 ", \"snapshot_violations\": %" PRIu64 ", \"publish\": [",
                 readers, stats.turns, total_queries, qps,
                 stats.epochs_published, mean_turn_deltas,
                 stats.max_turn_deltas, stats.warm_hits, stats.cold_hits,
                 stats.cold_computes, oracle_checks, violations);
    for (size_t i = 0; i < publish.size(); ++i) {
      const PublishPoint& p = publish[i];
      std::fprintf(f, "%s{\"rows\": %zu, \"touched_rows\": %zu, ",
                   i > 0 ? ", " : "", p.rows, p.touched_rows);
      std::fprintf(f, "\"publish_ns\": %.0f}", p.publish_ns);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }

  // The gate: a served answer that differs from the from-scratch compute
  // at its pinned snapshot is a consistency bug, not a perf regression.
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64 " snapshot violations across %" PRIu64
                 " oracle checks\n",
                 violations, oracle_checks);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lsens

int main() { return lsens::Run(); }
