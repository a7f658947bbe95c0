// Operator micro-benchmarks (google-benchmark): the counted-relation
// primitives every TSens pass is built from — r⋈ under each join kernel
// and kAuto (plus the hash kernel's threads axis), γ group-by-sum, and the
// Yannakakis-style count evaluation on TPC-H q1.
//
// Besides the console table, the run writes a machine-readable trajectory
// file (default BENCH_join.json, override with LSENS_BENCH_JSON):
//   [{"name": "BM_HashJoin/10000", "rows": 10000, "ns_per_op": 2.1e6}, ...]
// so successive runs can diff per-kernel perf. Threads-axis speedups are
// printed at the end of the run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "query/eval.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

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

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

void BM_NaturalJoin(benchmark::State& state, JoinAlgorithm algo) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4 + 1);
  CountedRelation b = MakeRandomCounted(rng, rows, {2, 3}, rows / 4 + 1);
  ExecContext ctx;
  JoinOptions opts{algo, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}

// The threads axis of the partitioned-probe hash join: range(0) = rows,
// range(1) = JoinOptions::threads (0 = the serial kernel). Entries land in
// BENCH_parallel.json via the "threads" counter.
void BM_HashJoinThreads(benchmark::State& state) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4 + 1);
  CountedRelation b = MakeRandomCounted(rng, rows, {2, 3}, rows / 4 + 1);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kHash, &ctx, threads};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}
BENCHMARK(BM_HashJoinThreads)
    ->ArgsProduct({{10000, 100000}, {0, 2, 4, 8}});

void BM_HashJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kHash);
}
void BM_SortMergeJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kSortMerge);
}
void BM_AutoJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kAuto);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SortMergeJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_AutoJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GroupBySum(benchmark::State& state) {
  Rng rng(2);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation r = MakeRandomCounted(rng, rows, {1, 2}, rows / 8 + 1);
  ExecContext ctx;
  for (auto _ : state) {
    CountedRelation g = GroupBySum(r, {1}, &ctx);
    benchmark::DoNotOptimize(g.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_GroupBySum)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TopKTruncation(benchmark::State& state) {
  Rng rng(3);
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CountedRelation r = MakeRandomCounted(rng, rows, {1}, rows * 2);
    state.ResumeTiming();
    r.TruncateTopK(64);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_TopKTruncation)->Arg(10000)->Arg(100000);

void BM_CountQ1(benchmark::State& state) {
  TpchOptions topts;
  topts.scale = static_cast<double>(state.range(0)) * 1e-4;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  for (auto _ : state) {
    auto c = CountQuery(q1.query, db);
    benchmark::DoNotOptimize(c.ok());
  }
  state.counters["rows"] = static_cast<double>(db.TotalRows());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.TotalRows()));
}
BENCHMARK(BM_CountQ1)->Arg(1)->Arg(10)->Arg(100);

// ---------------------------------------------------------------------------
// Compact JSON trajectory reporter
// ---------------------------------------------------------------------------

struct BenchEntry {
  std::string name;
  double rows = 0;
  double ns_per_op = 0;
  long threads = 0;
  bool has_threads = false;  // ran on the threads axis (BM_*Threads)
};

// A console reporter that additionally records every run for the JSON
// trajectory file (google-benchmark only accepts a standalone file
// reporter together with --benchmark_out, so recording rides on the
// display reporter instead).
class CompactJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      BenchEntry e;
      e.name = run.benchmark_name();
      auto it = run.counters.find("rows");
      if (it != run.counters.end()) e.rows = it->second.value;
      auto th = run.counters.find("threads");
      if (th != run.counters.end()) {
        e.threads = static_cast<long>(th->second.value);
        e.has_threads = true;
      }
      e.ns_per_op = run.GetAdjustedRealTime();  // ns: the default time unit
      entries_.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchEntry>& entries() const { return entries_; }

  bool WriteFile(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"rows\": %.0f, "
                   "\"ns_per_op\": %.1f}%s\n",
                   entries_[i].name.c_str(), entries_[i].rows,
                   entries_[i].ns_per_op, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<BenchEntry> entries_;
};

// Prints "BM_HashJoinThreads/100000/8: 2.7x vs serial" lines for every
// threads-axis run paired with its threads = 0 baseline.
void PrintParallelSpeedups(const std::vector<BenchEntry>& entries) {
  bool header = false;
  for (const BenchEntry& e : entries) {
    if (!e.has_threads || e.threads == 0 || e.ns_per_op <= 0) continue;
    for (const BenchEntry& base : entries) {
      if (!base.has_threads || base.threads != 0 || base.rows != e.rows ||
          base.name.substr(0, base.name.rfind('/')) !=
              e.name.substr(0, e.name.rfind('/'))) {
        continue;
      }
      if (!header) {
        std::printf("\nspeedup vs serial (threads = 0):\n");
        header = true;
      }
      std::printf("  %-32s %6.2fx\n", e.name.c_str(),
                  base.ns_per_op / e.ns_per_op);
    }
  }
}

}  // namespace
}  // namespace lsens

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lsens::CompactJsonReporter json;
  benchmark::RunSpecifiedBenchmarks(&json);
  const char* path = std::getenv("LSENS_BENCH_JSON");
  if (path == nullptr) path = "BENCH_join.json";
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("wrote %s (%zu entries)\n", path, json.entries().size());
  // The threads-axis runs additionally feed the cross-bench parallel
  // trajectory file (shared schema with bench_fig7_runtime).
  std::vector<lsens::bench::ParallelEntry> parallel;
  for (const auto& e : json.entries()) {
    if (!e.has_threads) continue;
    parallel.push_back(
        lsens::bench::ParallelEntry{e.name, e.rows, e.threads, e.ns_per_op});
  }
  if (!parallel.empty() &&
      !lsens::bench::WriteParallelJson("BENCH_parallel_join.json", parallel)) {
    return 1;
  }
  lsens::PrintParallelSpeedups(json.entries());
  benchmark::Shutdown();
  return 0;
}
