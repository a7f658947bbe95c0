// Figure 7: runtime vs scale for q1, q2, q3 — TSens, Elastic, and plain
// query (count) evaluation. Thread scaling is measured by perfbench
// (`sensitivity.par_speedup`), not here.
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
// Environment: LSENS_SCALES=..., LSENS_Q3_MAX_SCALE=0.1, LSENS_REPS=3

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
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
            int reps) {
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
  TSensComputeOptions opts;
  opts.ghd = w.ghd_ptr();
  opts.skip_atoms = w.skip_atoms;
  double tsens_s = TimeBest(reps, [&] {
    auto r = ComputeLocalSensitivity(w.query, db, opts);
    LSENS_CHECK(r.ok());
  });
  std::printf(
      "%-4s scale=%-8g TSens=%-10.4fs eval=%-10.4fs Elastic=%-10.6fs "
      "TSens/eval=%.2fx\n",
      w.name.c_str(), scale, tsens_s, eval_s, elastic_s,
      eval_s > 0 ? tsens_s / eval_s : 0.0);
}

}  // namespace

int main() {
  using bench::EnvScales;
  bench::Banner("Figure 7 — runtime vs scale (TPC-H q1, q2, q3)",
                "series: TSens, query evaluation, Elastic");
  std::vector<double> scales =
      EnvScales("LSENS_SCALES", {0.0001, 0.001, 0.01});
  double q3_cap = EnvScales("LSENS_Q3_MAX_SCALE", {0.1})[0];
  int reps = static_cast<int>(bench::EnvInt("LSENS_REPS", 3));

  for (double scale : scales) {
    TpchOptions topts;
    topts.scale = scale;
    Database db = MakeTpchDatabase(topts);
    RunOne(MakeTpchQ1(db), db, scale, reps);
    RunOne(MakeTpchQ2(db), db, scale, reps);
    if (scale <= q3_cap) RunOne(MakeTpchQ3(db), db, scale, reps);
  }
  return 0;
}
