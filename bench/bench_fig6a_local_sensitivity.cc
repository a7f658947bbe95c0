// Figure 6a: local sensitivity reported by TSens vs the Elastic upper bound
// for TPC-H queries q1, q2, q3 across database scales.
//
// Paper reference points: TSens is ~7x (q1) and ~6x (q2) below Elastic past
// scale 0.001, and up to 2,200,000x below for the cyclic q3 (at scale 0.1).
// q3 is capped at LSENS_Q3_MAX_SCALE (default 0.1), the paper's largest q3
// scale ("we didn't run q3 for scale larger than 0.1 due to the memory
// limit"). Only the max of the Orders multiplicity table is needed, and
// TSensOverGhd computes it per factor instead of materializing the table.
//
// Environment: LSENS_SCALES=0.0001,0.001,0.01[,0.1] LSENS_Q3_MAX_SCALE=0.1

#include <cstdio>

#include "bench_util.h"
#include "sensitivity/elastic.h"
#include "sensitivity/tsens.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace {

using namespace lsens;
using bench::Banner;
using bench::EnvScales;

void RunOne(const WorkloadQuery& w, const Database& db, double scale) {
  TSensComputeOptions opts;
  opts.ghd = w.ghd_ptr();
  opts.skip_atoms = w.skip_atoms;
  auto tsens = ComputeLocalSensitivity(w.query, db, opts);
  auto elastic = ElasticSensitivity(w.query, db, w.ghd_ptr(),
                                    ElasticMode::kFlexFaithful);
  if (!tsens.ok() || !elastic.ok()) {
    std::printf("%-4s scale=%-8g ERROR %s %s\n", w.name.c_str(), scale,
                tsens.status().ToString().c_str(),
                elastic.status().ToString().c_str());
    return;
  }
  double ratio = tsens->local_sensitivity.IsZero()
                     ? 0.0
                     : elastic->local_sensitivity_bound.ToDouble() /
                           tsens->local_sensitivity.ToDouble();
  std::printf("%-4s scale=%-8g TSens=%-14s Elastic=%-18s Elastic/TSens=%.1fx\n",
              w.name.c_str(), scale,
              tsens->local_sensitivity.ToString().c_str(),
              elastic->local_sensitivity_bound.ToString().c_str(), ratio);
}

}  // namespace

int main() {
  Banner("Figure 6a — local sensitivity vs scale (TPC-H q1, q2, q3)",
         "series: TSens exact LS and the Elastic static upper bound");
  std::vector<double> scales =
      EnvScales("LSENS_SCALES", {0.0001, 0.001, 0.01});
  double q3_cap = EnvScales("LSENS_Q3_MAX_SCALE", {0.1})[0];

  for (double scale : scales) {
    TpchOptions topts;
    topts.scale = scale;
    Database db = MakeTpchDatabase(topts);
    RunOne(MakeTpchQ1(db), db, scale);
    RunOne(MakeTpchQ2(db), db, scale);
    if (scale <= q3_cap) {
      RunOne(MakeTpchQ3(db), db, scale);
    } else {
      std::printf("q3   scale=%-8g (skipped: exceeds LSENS_Q3_MAX_SCALE, "
                  "the paper's largest q3 scale)\n",
                  scale);
    }
  }
  return 0;
}
