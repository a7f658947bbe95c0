// Figure 7: runtime vs scale for q1, q2, q3 — TSens, Elastic, and plain
// query (count) evaluation — plus the threads axis of the parallel engine:
// TSens is re-timed at every LSENS_THREADS setting and the speedup over
// the serial run is reported and written to BENCH_parallel.json
// ({name, rows, threads, ns_per_op}; path override LSENS_BENCH_PARALLEL_JSON)
// so the parallel-speedup trajectory is tracked across PRs.
//
// Paper reference points: for q1/q2 TSens tracks query evaluation closely
// (~1.8x / ~0.9x past scale 0.001); for q3 TSens costs ~4.2x evaluation
// while returning a ~60,000x tighter bound than Elastic; Elastic itself is
// near-instant at all scales (static analysis over precomputed max
// frequencies — its preprocessing is charged to the database, as in the
// paper).
//
// q3 runs up to LSENS_Q3_MAX_SCALE (default 0.1, the paper's largest q3
// scale); TSensOverGhd maxes its Orders multiplicity table per factor
// instead of materializing it.
//
// Environment: LSENS_SCALES=..., LSENS_Q3_MAX_SCALE=0.1, LSENS_REPS=3,
// LSENS_THREADS=0,2,8

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/eval.h"
#include "sensitivity/elastic.h"
#include "sensitivity/tsens.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace {

using namespace lsens;

double TimeBest(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

void RunOne(const WorkloadQuery& w, const Database& db, double scale,
            int reps, const std::vector<double>& threads_axis,
            std::vector<bench::ParallelEntry>* trajectory) {
  double eval_s = TimeBest(reps, [&] {
    auto c = CountQuery(w.query, db, {}, w.ghd_ptr());
    LSENS_CHECK(c.ok());
  });
  // Elastic preprocessing (max-frequency scans) happens once per database
  // in the paper's setup; measure analysis time with a warm provider.
  DataMaxFreqProvider mf(w.query, db);
  std::vector<int> order;
  if (w.ghd_ptr() != nullptr) {
    order = PlanOrderFromGhd(*w.ghd_ptr());
  } else {
    order = PlanOrderFromForest(*BuildJoinForestGYO(w.query));
  }
  (void)ElasticSensitivity(w.query, order, mf,
                           ElasticMode::kFlexFaithful);  // warm the caches
  double elastic_s = TimeBest(reps, [&] {
    auto e = ElasticSensitivity(w.query, order, mf,
                                ElasticMode::kFlexFaithful);
    LSENS_CHECK(e.ok());
  });

  // TSens along the threads axis; the threads = 0 entry (wherever it sits
  // in LSENS_THREADS) is the serial baseline every other setting's speedup
  // is reported against — without one, speedups print as n/a.
  double serial_s = -1.0;
  for (double threads_d : threads_axis) {
    if (static_cast<int>(threads_d) != 0) continue;
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    opts.skip_atoms = w.skip_atoms;
    serial_s = TimeBest(reps, [&] {
      auto r = ComputeLocalSensitivity(w.query, db, opts);
      LSENS_CHECK(r.ok());
    });
    break;
  }
  for (double threads_d : threads_axis) {
    const int threads = static_cast<int>(threads_d);
    TSensComputeOptions opts;
    opts.ghd = w.ghd_ptr();
    opts.skip_atoms = w.skip_atoms;
    opts.join.threads = threads;
    double tsens_s =
        (threads == 0 && serial_s >= 0) ? serial_s : TimeBest(reps, [&] {
          auto r = ComputeLocalSensitivity(w.query, db, opts);
          LSENS_CHECK(r.ok());
        });
    trajectory->push_back(bench::ParallelEntry{
        w.name + "/scale=" + std::to_string(scale),
        static_cast<double>(db.TotalRows()), threads, tsens_s * 1e9});
    std::printf(
        "%-4s scale=%-8g threads=%-2d TSens=%-10.4fs eval=%-10.4fs "
        "Elastic=%-10.6fs TSens/eval=%-5.2fx ",
        w.name.c_str(), scale, threads, tsens_s, eval_s, elastic_s,
        eval_s > 0 ? tsens_s / eval_s : 0.0);
    if (serial_s > 0 && tsens_s > 0) {
      std::printf("speedup=%.2fx\n", serial_s / tsens_s);
    } else {
      std::printf("speedup=n/a\n");
    }
  }
}

}  // namespace

int main() {
  using bench::EnvScales;
  bench::Banner("Figure 7 — runtime vs scale (TPC-H q1, q2, q3)",
                "series: TSens (per threads setting), query evaluation, "
                "Elastic");
  std::vector<double> scales =
      EnvScales("LSENS_SCALES", {0.0001, 0.001, 0.01});
  double q3_cap = EnvScales("LSENS_Q3_MAX_SCALE", {0.1})[0];
  int reps = static_cast<int>(bench::EnvInt("LSENS_REPS", 3));
  std::vector<double> threads_axis = EnvScales("LSENS_THREADS", {0, 2, 8});
  // Spin the pool up before any timed region so worker creation is never
  // charged to the first parallel measurement.
  GlobalThreadPool();

  std::vector<bench::ParallelEntry> trajectory;
  for (double scale : scales) {
    TpchOptions topts;
    topts.scale = scale;
    Database db = MakeTpchDatabase(topts);
    RunOne(MakeTpchQ1(db), db, scale, reps, threads_axis, &trajectory);
    RunOne(MakeTpchQ2(db), db, scale, reps, threads_axis, &trajectory);
    if (scale <= q3_cap) {
      RunOne(MakeTpchQ3(db), db, scale, reps, threads_axis, &trajectory);
    }
  }
  if (!bench::WriteParallelJson("BENCH_parallel.json", trajectory)) return 1;

  // Headline number for the acceptance gate: best speedup on the largest
  // workload (most rows) between the serial entry and each threads > 0
  // entry of the same workload.
  double max_rows = 0;
  for (const auto& e : trajectory) max_rows = std::max(max_rows, e.rows);
  for (const auto& base : trajectory) {
    if (base.rows != max_rows || base.threads != 0) continue;
    for (const auto& e : trajectory) {
      if (e.rows != max_rows || e.name != base.name || e.threads == 0) {
        continue;
      }
      std::printf("largest workload %s: %.2fx speedup at %ld threads\n",
                  e.name.c_str(), base.ns_per_op / e.ns_per_op, e.threads);
    }
  }
  return 0;
}
