// The lsens benchmark driver: one seeded command per workload.
//
//   lsens_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scale <sf>]
//
// Workloads (README.md in this directory has the why of each):
//   tpch-acyclic   CountQuery + TSens of q1 (path) and q2 (acyclic),
//                  serially and at 4 threads, one closed-loop caller.
//   tpch-cyclic    the same for q3 with the Figure 5a GHD.
//   update-stream  1-row deltas through ApplyDelta, cache repair of q1 and
//                  q2, then CloneSnapshot: the server writer's turn.
//   serve-mixed    a free-running SensitivityServer: two closed-loop reader
//                  sessions and an open-loop insert feeder.
//
// The driver calls lsens only through its public functions and times each
// call from outside. Outputs are checked outside the timed spans; every
// failed check, non-OK Status or rejected delta counts as a failed op.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// metrics; with --trace 1 the per-layer metrics, and the span tree is
// written to .bench_out/spans-<workload>-<seed>.json. Lines before it, prefixed
// "#", are a human-readable report (sizes, per-query LS and argmax, the
// absolute per-layer times).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "query/atom_scan.h"
#include "query/eval.h"
#include "sensitivity/incremental.h"
#include "sensitivity/tsens.h"
#include "server/sensitivity_server.h"
#include "storage/database.h"
#include "trace.h"
#include "workload/queries.h"
#include "workload/tpch.h"

#ifndef LSENS_PERFBENCH_BUILD_TYPE
#define LSENS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using lsens::ConjunctiveQuery;
using lsens::Database;
using lsens::DatabaseDelta;
using lsens::ExecContext;
using lsens::Rng;
using lsens::SensitivityResult;
using lsens::TSensComputeOptions;
using lsens::WorkloadQuery;

// setup_s is the median over all set-ups of a run: kSetupRounds before the
// timed ops, and more spread over the run (between tpch ops, every 1000
// update steps, after the serving window), so that it
// samples the same stretch of time as the op metrics. A tpch-* set-up takes
// only 3-25 ms, so it repeats after every op, several times on tpch-cyclic,
// whose ops take ~2 s.
constexpr int kSetupRounds = 5;
constexpr int kParallelThreads = 4;

// --- Metric catalogue ------------------------------------------------------
// Every run prints every metric of its kind; a workload that leaves a layer
// idle reports 0 for that layer's counts and shares. Time-valued per-layer
// metrics are only those every workload exercises; a layer's time on one
// workload is reported as its share of that workload's op time.

struct MetricDef {
  std::string name;
  std::string unit;
};

constexpr const char* kExecOps[] = {"join.hash",          "join.sort_merge",
                                    "estimate_join_rows", "group_by_sum",
                                    "normalize",          "fold_join"};

const std::vector<MetricDef>& EndToEndCatalogue() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},     {"op_p50_ms", "ms"},   {"op_p99_ms", "ms"},
      {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerCatalogue() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"storage.generate_s", "s"},     {"storage.generate_share", "ratio"},
        {"storage.bytes", "bytes"},      {"storage.rows", "count"},
        {"storage.apply_share", "ratio"}, {"storage.clone_share", "ratio"},
        {"query.scan_ms", "ms"},
    };
    for (const char* prefix : {"exec.", "exec.eval."}) {
      for (const char* op : kExecOps) {
        for (const char* field : {".calls", ".rows_in", ".rows_out"}) {
          d.push_back({std::string(prefix) + op + field, "count"});
        }
      }
    }
    for (const char* op : kExecOps) {
      d.push_back({std::string("exec.") + op + ".share", "ratio"});
    }
    const std::vector<MetricDef> rest = {
        {"exec.group_by_sum.reduction", "ratio"},
        {"sensitivity.tsens_over_eval.q1", "ratio"},
        {"sensitivity.tsens_over_eval.q2", "ratio"},
        {"sensitivity.tsens_over_eval.q3", "ratio"},
        {"sensitivity.par_speedup", "ratio"},
        {"sensitivity.cache_sync_share", "ratio"},
        {"sensitivity.cache_assemble_share", "ratio"},
        {"sensitivity.cache_node_repairs", "count"},
        {"sensitivity.cache_repair_rows", "count"},
        {"sensitivity.cache_delta_rows", "count"},
        {"sensitivity.cache_repair_ratio", "ratio"},
        {"sensitivity.cache_state_bytes", "bytes"},
        {"sensitivity.cache_prime_share", "ratio"},
        {"sensitivity.repair_vs_recompute", "ratio"},
        {"server.construct_share", "ratio"},
        {"server.pin_share", "ratio"},
        {"server.warm_share", "ratio"},
        {"server.cold_computes", "count"},
        {"server.cold_compute_share", "ratio"},
        {"server.turns", "count"},
        {"server.mean_turn_deltas", "ratio"},
        {"server.empty_turns", "count"},
        {"server.writer_busy_share", "ratio"},
        {"server.epochs_live_max", "count"},
        {"server.epoch_bytes_max", "bytes"},
        {"server.feeder_late_share", "ratio"},
        {"server.rate_within_limit", "1/s"},
        {"trace.op_p50_ms", "ms"},
        {"trace.overhead", "ratio"},
        {"host.calib_ms", "ms"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// Named metric values of one run; Set() rejects names outside the
// catalogues so a typo cannot silently add a metric.
class Metrics {
 public:
  void Set(const std::string& name, double value) {
    if (!Known(name)) {
      std::fprintf(stderr, "internal error: unknown metric %s\n",
                   name.c_str());
      std::abort();
    }
    values_[name] = std::isfinite(value) ? value : 0.0;
  }

  // Every metric of the catalogue, shortest round-trip digits; a metric the
  // workload never set (an idle layer) reads 0.
  std::string Json(const std::vector<MetricDef>& catalogue) const {
    std::string out = "{";
    for (const MetricDef& d : catalogue) {
      auto it = values_.find(d.name);
      char buf[64];
      auto res = std::to_chars(buf, buf + sizeof(buf),
                               it == values_.end() ? 0.0 : it->second);
      if (out.size() > 1) out += ", ";
      out += "\"" + d.name + "\": {\"value\": ";
      out.append(buf, res.ptr);
      out += ", \"unit\": \"" + d.unit + "\"}";
    }
    return out + "}";
  }

 private:
  static bool Known(const std::string& name) {
    for (const auto* catalogue : {&EndToEndCatalogue(), &PerLayerCatalogue()}) {
      for (const MetricDef& d : *catalogue) {
        if (name == d.name) return true;
      }
    }
    return false;
  }
  std::map<std::string, double> values_;
};

// --- Small statistics helpers ---------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile; with fewer than 1/(1-q) samples this is the max.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

size_t BeyondQuantile(size_t n, double q) {
  return n - std::min(n, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
}

// The highest of p99, p95, p90, p75 with at least ten samples beyond it;
// the median when there are fewer than twenty samples. Used for the lag,
// whose sample count is set by the feeder's rates.
double TailLevel(size_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (BeyondQuantile(n, q) >= 10) return q;
  }
  return 0.5;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Uniform sample of an unbounded stream (Algorithm R), seeded.
class Reservoir {
 public:
  Reservoir(size_t cap, uint64_t seed) : cap_(cap), rng_(seed) { v_.reserve(cap); }
  void Add(double x) {
    ++seen_;
    if (v_.size() < cap_) {
      v_.push_back(x);
      return;
    }
    const uint64_t j = rng_.NextBounded(seen_);
    if (j < cap_) v_[j] = x;
  }
  const std::vector<double>& samples() const { return v_; }

 private:
  size_t cap_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<double> v_;
};

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; }

// CPU clocks. The end-to-end times of single-threaded calls and set-ups are
// CPU time, not wall time: on a shared VM the wall clock also counts time
// the host takes the vCPU away. On the reference machine (4 vCPUs) a fixed
// ALU loop measured 45-101 ms wall but 48-52 ms of thread CPU time over one
// minute. CPU time includes page faults and memory stalls, and a serial
// call does not wait on anything else, so it is the call's own cost.
int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
double CpuMsSince(int64_t t0) { return static_cast<double>(ThreadCpuNs() - t0) * 1e-6; }
double ProcessCpuMsSince(int64_t t0) {
  return static_cast<double>(ProcessCpuNs() - t0) * 1e-6;
}

// --- Host speed -------------------------------------------------------------
// The reference machine's speed drifts by 15-30% over minutes (memory
// contention from other tenants), in CPU time as well: in one ten-seed set,
// tpch-acyclic's op read 133-149 ms in four runs and 107-117 ms in the next
// six, with set-up moving alike. A fixed kernel owned by the driver, not by
// lsens, is timed on the same schedule as the set-ups (spread over the run),
// and every end-to-end time is scaled by kCalibRefMs over its median: the
// time the op would have taken at the reference speed. The raw times are in
// the report.
constexpr double kCalibRefMs = 8.0;  // the kernel's median, reference machine

class Calibration {
 public:
  // Fills 8 MB from a seeded Rng, sorts 512 KB of it, and reads 256k
  // entries at positions taken from the rest: sequential writes, a sort and
  // random reads, as in lsens's joins and group-bys.
  void Run() {
    const int64_t t0 = ThreadCpuNs();
    Rng rng(1);
    for (uint64_t& x : buf_) x = rng.NextUint64();
    constexpr size_t kSorted = 1 << 16;
    std::sort(buf_.begin(), buf_.begin() + kSorted);
    const size_t mask = buf_.size() - 1;
    uint64_t acc = 0;
    for (size_t i = kSorted; i < kSorted + (1 << 18); ++i) acc += buf_[buf_[i] & mask];
    sink_ = sink_ + acc;
    ms_.push_back(CpuMsSince(t0));
  }
  double median_ms() const { return Median(ms_); }
  // Multiply a time of this run by Scale() to get it at the reference speed.
  double Scale() const { return Ratio(kCalibRefMs, median_ms()); }
  size_t runs() const { return ms_.size(); }

 private:
  std::vector<uint64_t> buf_ = std::vector<uint64_t>(1 << 20);
  std::vector<double> ms_;
  volatile uint64_t sink_ = 0;  // keeps the kernel from being optimized away
};

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextUint64();
}

// --- Correctness ------------------------------------------------------------

// Everything a result asserts: LS, the argmax atom, and every atom's max,
// argmax, skip and approximation flags. Equal strings = bit-identical.
std::string Fingerprint(const SensitivityResult& r) {
  std::string s = "LS=" + r.local_sensitivity.ToString() +
                  " argmax_atom=" + std::to_string(r.argmax_atom);
  for (const lsens::AtomSensitivity& a : r.atoms) {
    s += " " + a.relation + ":" + a.max_sensitivity.ToString() + "@";
    for (lsens::Value v : a.argmax) s += std::to_string(v) + ",";
    if (a.skipped) s += "skip";
    if (a.approximate) s += "approx";
  }
  return s;
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

void PrintResult(const std::string& name, const SensitivityResult& r,
                 const Database& db) {
  std::printf("# result %s LS=%s argmax=%s\n", name.c_str(),
              r.local_sensitivity.ToString().c_str(),
              r.DescribeMostSensitive(db.attrs(), &db.dict()).c_str());
}

// --- Exec counters ------------------------------------------------------------

struct ExecTotals {
  struct Op {
    uint64_t calls = 0, rows_in = 0, rows_out = 0;
    double seconds = 0.0;
  };
  Op ops[std::size(kExecOps)];

  void Add(const ExecContext& ctx) {
    for (size_t i = 0; i < std::size(kExecOps); ++i) {
      if (const lsens::OperatorStats* s = ctx.FindStats(kExecOps[i])) {
        ops[i].calls += s->calls;
        ops[i].rows_in += s->rows_in;
        ops[i].rows_out += s->rows_out;
        ops[i].seconds += s->wall_seconds;
      }
    }
  }

  // exec.<prefix><op>.{calls,rows_in,rows_out} per op, over `ops_counted`.
  void SetCounts(Metrics& m, const std::string& prefix,
                 uint64_t ops_counted) const {
    const double d = ops_counted > 0 ? static_cast<double>(ops_counted) : 1.0;
    for (size_t i = 0; i < std::size(kExecOps); ++i) {
      const std::string base = "exec." + prefix + kExecOps[i];
      m.Set(base + ".calls", static_cast<double>(ops[i].calls) / d);
      m.Set(base + ".rows_in", static_cast<double>(ops[i].rows_in) / d);
      m.Set(base + ".rows_out", static_cast<double>(ops[i].rows_out) / d);
    }
  }

  // exec.<op>.share: the op's (inclusive, overlapping) time over `op_ms`.
  void SetShares(Metrics& m, double op_ms) const {
    for (size_t i = 0; i < std::size(kExecOps); ++i) {
      m.Set(std::string("exec.") + kExecOps[i] + ".share",
            Ratio(ops[i].seconds * 1e3, op_ms));
    }
    const Op& g = ops[3];  // group_by_sum
    m.Set("exec.group_by_sum.reduction",
          Ratio(static_cast<double>(g.rows_out), static_cast<double>(g.rows_in)));
  }

  void Print(const char* label) const {
    for (size_t i = 0; i < std::size(kExecOps); ++i) {
      if (ops[i].calls == 0) continue;
      std::printf("# exec[%s] %-18s calls=%" PRIu64 " rows_in=%" PRIu64
                  " rows_out=%" PRIu64 " ms=%.3f\n",
                  label, kExecOps[i], ops[i].calls, ops[i].rows_in,
                  ops[i].rows_out, ops[i].seconds * 1e3);
    }
  }
};

void AttachExecCounters(Tracer& tr, const ExecContext& ctx) {
  if (!tr.enabled()) return;
  for (const char* op : kExecOps) {
    if (const lsens::OperatorStats* s = ctx.FindStats(op)) {
      tr.Counter(std::string(op) + ".calls", s->calls);
      tr.Counter(std::string(op) + ".rows_out", s->rows_out);
    }
  }
}

// --- Shared pieces --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 0.0;  // 0 = the workload's default
};

Database Generate(double scale, uint64_t seed, Tracer& tr, double* seconds) {
  ScopedSpan span(tr, "storage.generate");
  const int64_t t0 = ThreadCpuNs();
  lsens::TpchOptions opts;
  opts.scale = scale;
  opts.seed = DeriveSeed(seed, 1);
  Database db = lsens::MakeTpchDatabase(opts);
  *seconds = CpuMsSince(t0) * 1e-3;
  return db;
}

// ScanAtom over each atom's shared variables: the query layer's cost of
// reading the workload's relations.
double ScanPass(const Database& db, const std::vector<const ConjunctiveQuery*>& qs,
                ExecContext& ctx, Tracer& tr, uint64_t round) {
  ScopedSpan root(tr, "scan", round);
  const int64_t t0 = ThreadCpuNs();
  for (const ConjunctiveQuery* q : qs) {
    for (int i = 0; i < q->num_atoms(); ++i) {
      ScopedSpan span(tr, "query.scan_atom");
      const lsens::Atom& atom = q->atom(i);
      lsens::CountedRelation r =
          lsens::ScanAtom(*db.Find(atom.relation), atom, q->SharedVarsOf(i), &ctx);
      tr.Counter("rows_out", r.NumRows());
    }
  }
  return CpuMsSince(t0);
}

void PrintSamples(const char* name, const std::vector<double>& v,
                  const char* unit) {
  std::printf("# %s n=%zu p50=%.4f%s p99=%.4f%s (beyond_p99=%zu)\n", name,
              v.size(), Median(v), unit, Quantile(v, 0.99), unit,
              BeyondQuantile(v.size(), 0.99));
}

// Sets the end-to-end times, scaled to the reference speed (see
// Calibration); the report keeps the raw values. op_p99_ms is the tail at
// a fixed level per workload, so that a faster commit, which fits more ops
// into a run, reports the same statistic: p99 on update-stream and
// serve-mixed (thousands of ops a run), the median on tpch-*, whose 10-60
// ops a run give no steady tail (their p75 spread 0.17-0.27 over ten-seed
// sets). The report names the level.
void SetEndToEnd(Metrics& m, const Calibration& cal, double setup_s,
                 const std::vector<double>& op_ms, double ops_per_s, double level) {
  const double p50 = Median(op_ms);
  const double tail = level == 0.5 ? p50 : Quantile(op_ms, level);
  const double scale = cal.Scale();
  std::printf("# op_p99_ms is p%.0f over n=%zu ops (beyond=%zu)\n", level * 100,
              op_ms.size(), BeyondQuantile(op_ms.size(), level));
  std::printf("# calibration n=%zu p50=%.4fms scale=%.4f; raw setup_s=%.6g "
              "op_p50_ms=%.6g op_p99_ms=%.6g ops_per_s=%.6g\n",
              cal.runs(), cal.median_ms(), scale, setup_s, p50, tail, ops_per_s);
  m.Set("setup_s", setup_s * scale);
  m.Set("op_p50_ms", p50 * scale);
  m.Set("op_p99_ms", tail * scale);
  m.Set("ops_per_s", Ratio(ops_per_s, scale));
  m.Set("host.calib_ms", cal.median_ms());
}

// --- tpch-acyclic / tpch-cyclic --------------------------------------------------

void RunTpch(const Args& args, bool cyclic, Tracer& tr, Metrics& m,
             Outcome& out) {
  const double scale = args.scale > 0 ? args.scale : (cyclic ? 0.01 : 0.05);
  const int setups_per_op = cyclic ? 8 : 1;  // ~1-3% of an op's time
  Tracer off(false);

  std::vector<double> setup_s, generate_s, scan_ms;
  std::unique_ptr<Database> db;
  std::vector<WorkloadQuery> queries;
  // One set-up: generate the database and build the workload's queries.
  uint64_t setup_round = 0;
  auto set_up = [&](std::unique_ptr<Database>& d, std::vector<WorkloadQuery>& qv) {
    qv.clear();
    d.reset();
    ScopedSpan root(tr, "setup", setup_round++);
    const int64_t t0 = ProcessCpuNs();
    double gen = 0;
    d = std::make_unique<Database>(Generate(scale, args.seed, tr, &gen));
    if (cyclic) {
      qv.push_back(lsens::MakeTpchQ3(*d));
    } else {
      qv.push_back(lsens::MakeTpchQ1(*d));
      qv.push_back(lsens::MakeTpchQ2(*d));
    }
    setup_s.push_back(ProcessCpuMsSince(t0) * 1e-3);
    generate_s.push_back(gen);
  };
  ExecContext scan_ctx;
  Calibration cal;
  for (int round = 0; round < kSetupRounds; ++round) {
    set_up(db, queries);
    cal.Run();
    std::vector<const ConjunctiveQuery*> qs;
    for (const WorkloadQuery& w : queries) qs.push_back(&w.query);
    scan_ms.push_back(ScanPass(*db, qs, scan_ctx, tr, static_cast<uint64_t>(round)));
  }
  std::printf("# sizes scale=%g rows=%zu bytes=%zu\n", scale, db->TotalRows(),
              db->MemoryBytes());

  ExecContext eval_ctx, ser_ctx, par_ctx;
  std::vector<TSensComputeOptions> ser_opts(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ser_opts[i].ghd = queries[i].ghd_ptr();
    ser_opts[i].skip_atoms = queries[i].skip_atoms;
    ser_opts[i].join.ctx = &ser_ctx;
  }
  std::vector<TSensComputeOptions> par_opts = ser_opts;
  for (TSensComputeOptions& o : par_opts) {
    o.join.ctx = &par_ctx;
    o.join.threads = kParallelThreads;
  }
  lsens::JoinOptions eval_opts;
  eval_opts.ctx = &eval_ctx;

  // Warm-up op (untimed): fills arenas and the thread pool, and gives the
  // reference every later rep must reproduce bit for bit.
  std::vector<std::string> ref(queries.size());
  std::vector<lsens::Count> ref_count(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto c = lsens::CountQuery(queries[i].query, *db, eval_opts,
                               queries[i].ghd_ptr());
    auto r = lsens::ComputeLocalSensitivity(queries[i].query, *db, ser_opts[i]);
    auto p = lsens::ComputeLocalSensitivity(queries[i].query, *db, par_opts[i]);
    ++out.attempted;
    if (!c.ok() || !r.ok() || !p.ok()) {
      out.Fail("warm-up call failed for " + queries[i].name);
      continue;
    }
    ref_count[i] = *c;
    ref[i] = Fingerprint(*r);
    PrintResult(queries[i].name, *r, *db);
    std::printf("# count %s = %s\n", queries[i].name.c_str(),
                c->ToString().c_str());
  }

  const uint64_t min_ops = args.trace ? 4 : 2;
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  // Timings of untraced ops, whole-op and per query; traced ops feed only
  // the trace.* metrics and the exec shares.
  std::vector<double> op_ms, traced_op_ms, eval_ms, par_ms;
  std::vector<std::vector<double>> query_ms(queries.size()),
      query_eval_ms(queries.size());
  ExecTotals ser_totals, ser_counts, eval_counts;
  uint64_t counted = 0;
  std::unique_ptr<Database> spare_db;
  std::vector<WorkloadQuery> spare_queries;
  for (uint64_t op = 0; NowNs() < end || op < min_ops; ++op) {
    for (int k = 0; op > 0 && k < setups_per_op; ++k) set_up(spare_db, spare_queries);
    if (op > 0) cal.Run();
    spare_queries.clear();
    spare_db.reset();
    const bool traced = args.trace && op % 2 == 1;
    Tracer& t = traced ? tr : off;
    ScopedSpan root(t, "op", op);
    bool ok = true;
    double eval_total = 0, ser_total = 0, par_total = 0;
    std::vector<double> q_eval(queries.size()), q_ser(queries.size());
    const bool count_this = traced && counted == 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const WorkloadQuery& w = queries[i];
      if (traced) eval_ctx.ResetStats();
      ScopedSpan span(t, "query.count_query." + w.name);
      const int64_t t0 = ThreadCpuNs();
      auto c = lsens::CountQuery(w.query, *db, eval_opts, w.ghd_ptr());
      q_eval[i] = CpuMsSince(t0);
      eval_total += q_eval[i];
      if (traced) AttachExecCounters(t, eval_ctx);
      if (count_this) eval_counts.Add(eval_ctx);
      if (!c.ok() || !(*c == ref_count[i])) {
        ok = false;
        out.Fail("count mismatch for " + w.name);
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const WorkloadQuery& w = queries[i];
      if (traced) ser_ctx.ResetStats();
      ScopedSpan span(t, "sensitivity.tsens." + w.name);
      const int64_t t0 = ThreadCpuNs();
      auto r = lsens::ComputeLocalSensitivity(w.query, *db, ser_opts[i]);
      q_ser[i] = CpuMsSince(t0);
      ser_total += q_ser[i];
      if (traced) {
        AttachExecCounters(t, ser_ctx);
        ser_totals.Add(ser_ctx);
        if (count_this) ser_counts.Add(ser_ctx);
      }
      if (!r.ok() || Fingerprint(*r) != ref[i]) {
        ok = false;
        out.Fail("serial TSens differs from the reference for " + w.name);
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const WorkloadQuery& w = queries[i];
      ScopedSpan span(t, "sensitivity.tsens_par." + w.name);
      const int64_t t0 = NowNs();
      auto r = lsens::ComputeLocalSensitivity(w.query, *db, par_opts[i]);
      par_total += MsSince(t0);
      if (!r.ok() || Fingerprint(*r) != ref[i]) {
        ok = false;
        out.Fail("parallel TSens differs from serial for " + w.name);
      }
    }
    if (count_this) counted = 1;
    ++out.attempted;
    if (!ok) continue;
    if (traced) {
      traced_op_ms.push_back(ser_total);
      continue;
    }
    op_ms.push_back(ser_total);
    eval_ms.push_back(eval_total);
    par_ms.push_back(par_total);
    for (size_t i = 0; i < queries.size(); ++i) {
      query_ms[i].push_back(q_ser[i]);
      query_eval_ms[i].push_back(q_eval[i]);
    }
  }

  // q1 must also match on the GHD engine (Algorithm 2 over the path).
  if (!cyclic) {
    ++out.attempted;
    TSensComputeOptions ghd_opts = ser_opts[0];
    ghd_opts.prefer_path_algorithm = false;
    auto r = lsens::ComputeLocalSensitivity(queries[0].query, *db, ghd_opts);
    if (!r.ok() || Fingerprint(*r) != ref[0]) {
      out.Fail("q1 differs between TSensPath and the GHD engine");
    }
  }

  PrintSamples("op.tsens_serial_ms", op_ms, "ms");
  PrintSamples("op.tsens_par_ms", par_ms, "ms");
  PrintSamples("op.eval_ms", eval_ms, "ms");
  // Figure 7's ratio, per query: median serial TSens over median CountQuery
  // of the same untraced ops (paper: q1 ~1.8, q2 ~0.9, q3 ~4.2).
  std::vector<double> tsens_over_eval(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& name = queries[i].name;
    PrintSamples(("sensitivity.tsens." + name + "_ms").c_str(), query_ms[i], "ms");
    PrintSamples(("query.count_query." + name + "_ms").c_str(), query_eval_ms[i], "ms");
    tsens_over_eval[i] = Ratio(Median(query_ms[i]), Median(query_eval_ms[i]));
    std::printf("# sensitivity.tsens_over_eval.%s=%.3f\n", name.c_str(),
                tsens_over_eval[i]);
  }
  const double par_speedup = Ratio(Median(op_ms), Median(par_ms));
  std::printf("# sensitivity.par_speedup=%.3f\n", par_speedup);

  SetEndToEnd(m, cal, Median(setup_s), op_ms,
              Ratio(1e3 * static_cast<double>(op_ms.size()), Sum(op_ms)), 0.5);
  m.Set("storage.generate_s", Median(generate_s));
  m.Set("storage.generate_share", Ratio(Median(generate_s), Median(setup_s)));
  m.Set("storage.bytes", static_cast<double>(db->MemoryBytes()));
  m.Set("storage.rows", static_cast<double>(db->TotalRows()));
  m.Set("query.scan_ms", Median(scan_ms));
  if (args.trace) {
    ser_counts.SetCounts(m, "", counted);
    ser_totals.SetShares(m, Sum(traced_op_ms));
    eval_counts.SetCounts(m, "eval.", counted);
    ser_counts.Print("tsens");
    eval_counts.Print("eval");
    for (size_t i = 0; i < queries.size(); ++i) {
      m.Set("sensitivity.tsens_over_eval." + queries[i].name, tsens_over_eval[i]);
    }
    m.Set("sensitivity.par_speedup", par_speedup);
    m.Set("trace.op_p50_ms", Median(traced_op_ms));
    m.Set("trace.overhead", Ratio(Median(traced_op_ms), Median(op_ms)) - 1.0);
  }
}

// --- update-stream ------------------------------------------------------------------

// One 1-row delta: half inserts (a copy of an existing row), half deletes
// (a random row); the relation is picked in proportion to its row count.
DatabaseDelta MakeDelta(const Database& db, Rng& rng) {
  uint64_t total = 0;
  for (const std::string& name : db.relation_names()) total += db.Find(name)->NumRows();
  uint64_t pick = rng.NextBounded(total);
  const lsens::Relation* rel = nullptr;
  for (const std::string& name : db.relation_names()) {
    rel = db.Find(name);
    if (pick < rel->NumRows()) break;
    pick -= rel->NumRows();
  }
  lsens::RelationDelta rd;
  rd.relation = rel->name();
  if (rng.NextBounded(2) == 0) {
    rd.inserts.push_back(rel->Row(static_cast<size_t>(pick)));
  } else {
    rd.delete_rows.push_back(static_cast<size_t>(pick));
  }
  return {std::move(rd)};
}

void RunUpdateStream(const Args& args, Tracer& tr, Metrics& m, Outcome& out) {
  const double scale = args.scale > 0 ? args.scale : 0.05;
  constexpr uint64_t kCountSteps = 200;  // counts are exact over this prefix
  constexpr uint64_t kCheckEvery = 1000;
  Tracer off(false);

  std::vector<double> setup_s, generate_s, prime_ms, scan_ms;
  // What one set-up builds: the database, the primed cache, the first
  // snapshot, and the cache's current result fingerprints.
  struct Stream {
    std::unique_ptr<Database> db;
    std::unique_ptr<lsens::SensitivityCache> cache;
    std::unique_ptr<Database> snapshot;
    std::vector<WorkloadQuery> queries;
    std::vector<std::string> current;
  };
  ExecContext ctx, setup_ctx, scan_ctx, check_ctx;
  TSensComputeOptions opts, setup_opts;
  opts.join.ctx = &ctx;
  setup_opts.join.ctx = &setup_ctx;
  uint64_t setup_round = 0;
  auto set_up = [&](Stream& s) {
    s.snapshot.reset();
    s.cache.reset();
    s.queries.clear();
    s.db.reset();
    const bool report = ++setup_round == kSetupRounds;
    ScopedSpan root(tr, "setup", setup_round - 1);
    const int64_t t0 = ProcessCpuNs();
    double gen = 0;
    s.db = std::make_unique<Database>(Generate(scale, args.seed, tr, &gen));
    s.queries.push_back(lsens::MakeTpchQ1(*s.db));
    s.queries.push_back(lsens::MakeTpchQ2(*s.db));
    s.cache = std::make_unique<lsens::SensitivityCache>();
    s.current.assign(s.queries.size(), "");
    const int64_t p0 = ProcessCpuNs();
    for (size_t i = 0; i < s.queries.size(); ++i) {
      ScopedSpan span(tr, "sensitivity.cache_prime." + s.queries[i].name);
      auto r = s.cache->Compute(s.queries[i].query, *s.db, setup_opts);
      ++out.attempted;
      if (!r.ok()) {
        out.Fail("cache prime failed for " + s.queries[i].name);
        continue;
      }
      s.current[i] = Fingerprint(*r);
      if (report) PrintResult(s.queries[i].name, *r, *s.db);
    }
    prime_ms.push_back(ProcessCpuMsSince(p0));
    {
      ScopedSpan span(tr, "storage.clone_snapshot");
      s.snapshot = std::make_unique<Database>(s.db->CloneSnapshot());
    }
    setup_s.push_back(ProcessCpuMsSince(t0) * 1e-3);
    generate_s.push_back(gen);
  };
  Stream live;
  Calibration cal;
  for (int round = 0; round < kSetupRounds; ++round) {
    set_up(live);
    cal.Run();
    scan_ms.push_back(ScanPass(*live.db, {&live.queries[0].query, &live.queries[1].query},
                               scan_ctx, tr, static_cast<uint64_t>(round)));
  }
  std::unique_ptr<Database>& db = live.db;
  std::unique_ptr<lsens::SensitivityCache>& cache = live.cache;
  std::unique_ptr<Database>& snapshot = live.snapshot;
  const std::vector<WorkloadQuery>& queries = live.queries;
  std::vector<std::string>& current = live.current;
  // Sizes right after set-up: deterministic for a seed, unlike the
  // end-of-run sizes, which depend on how many steps the run got through.
  const size_t rows = db->TotalRows();
  const size_t bytes = db->MemoryBytes();
  std::printf("# sizes scale=%g rows=%zu bytes=%zu cache_state_bytes=%" PRIu64
              "\n",
              scale, rows, bytes, cache->stats().state_bytes);

  // From-scratch recompute of both queries against the repaired results.
  std::vector<double> recompute_ms;
  auto check = [&](uint64_t step) {
    ScopedSpan root(tr, "check", step);
    TSensComputeOptions fresh_opts;
    fresh_opts.join.ctx = &check_ctx;
    const int64_t t0 = ThreadCpuNs();
    bool ok = true;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = lsens::ComputeLocalSensitivity(queries[i].query, *db, fresh_opts);
      if (!r.ok() || Fingerprint(*r) != current[i]) {
        ok = false;
        out.Fail("repaired " + queries[i].name +
                 " differs from a from-scratch compute at step " +
                 std::to_string(step));
      }
    }
    recompute_ms.push_back(CpuMsSince(t0));
    ++out.attempted;
    return ok;
  };

  Rng delta_rng(DeriveSeed(args.seed, 2));
  const lsens::SensitivityCacheStats base = cache->stats();
  lsens::SensitivityCacheStats at_count = base;
  std::vector<double> step_ms, traced_step_ms, apply_us, sync_us, assemble_us,
      clone_us;
  double traced_apply = 0, traced_sync = 0, traced_assemble = 0,
         traced_clone = 0;
  ExecTotals exec_totals, exec_counts;
  const uint64_t min_steps = kCountSteps * (args.trace ? 2 : 1);
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t step = 0;
  for (; NowNs() < end || step < min_steps; ++step) {
    const DatabaseDelta delta = MakeDelta(*db, delta_rng);
    const bool traced = args.trace && step % 2 == 1;
    Tracer& t = traced ? tr : off;
    if (traced) ctx.ResetStats();
    bool ok = true;
    int64_t t0, t1, t2, t3, t4;
    {
      ScopedSpan root(t, "op", step);
      t0 = ThreadCpuNs();
      {
        ScopedSpan span(t, "storage.apply_delta");
        if (!db->ApplyDelta(delta).ok()) {
          ok = false;
          out.Fail("delta rejected at step " + std::to_string(step));
        }
      }
      t1 = ThreadCpuNs();
      for (size_t i = 0; i < queries.size(); ++i) {
        ScopedSpan span(t, i == 0 ? "sensitivity.cache_sync.q1"
                                  : "sensitivity.cache_assemble.q2");
        const lsens::SensitivityCacheStats before = cache->stats();
        auto r = cache->Compute(queries[i].query, *db, opts);
        if (traced) {
          const lsens::SensitivityCacheStats& after = cache->stats();
          t.Counter("node_repairs", after.node_repairs - before.node_repairs);
          t.Counter("repair_rows", after.repair_rows - before.repair_rows);
          t.Counter("delta_rows", after.delta_rows - before.delta_rows);
        }
        if (i == 0) t2 = ThreadCpuNs();
        if (!r.ok()) {
          ok = false;
          out.Fail("cache compute failed at step " + std::to_string(step));
        } else {
          current[i] = Fingerprint(*r);
        }
      }
      t3 = ThreadCpuNs();
      {
        ScopedSpan span(t, "storage.clone_snapshot");
        *snapshot = db->CloneSnapshot();
      }
      t4 = ThreadCpuNs();
    }
    ++out.attempted;
    if (step + 1 == kCountSteps) at_count = cache->stats();
    if (traced) {
      exec_totals.Add(ctx);
      if (step < kCountSteps) exec_counts.Add(ctx);
    }
    if ((step + 1) % kCheckEvery == 0) {
      if (!check(step)) ok = false;
      Stream spare;
      set_up(spare);
      cal.Run();
    }
    if (!ok) continue;
    const double ms = static_cast<double>(t4 - t0) * 1e-6;
    (traced ? traced_step_ms : step_ms).push_back(ms);    apply_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    sync_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    assemble_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    clone_us.push_back(static_cast<double>(t4 - t3) * 1e-3);
    if (traced) {
      traced_apply += static_cast<double>(t1 - t0) * 1e-6;
      traced_sync += static_cast<double>(t2 - t1) * 1e-6;
      traced_assemble += static_cast<double>(t3 - t2) * 1e-6;
      traced_clone += static_cast<double>(t4 - t3) * 1e-6;
    }
  }
  check(step);

  std::printf("# steps=%" PRIu64 "\n", step);
  PrintSamples("op.update_ms", step_ms, "ms");
  PrintSamples("storage.apply_delta_us", apply_us, "us");
  PrintSamples("sensitivity.cache_sync_us", sync_us, "us");
  PrintSamples("sensitivity.cache_assemble_us", assemble_us, "us");
  PrintSamples("storage.clone_snapshot_us", clone_us, "us");
  PrintSamples("sensitivity.recompute_ms", recompute_ms, "ms");
  std::printf("# storage.clone_ns_per_row=%.3f cache_prime_ms=%.3f\n",
              Median(clone_us) * 1e3 / static_cast<double>(rows),
              Median(prime_ms));

  SetEndToEnd(m, cal, Median(setup_s), step_ms,
              Ratio(1e3 * static_cast<double>(step_ms.size()), Sum(step_ms)), 0.99);
  m.Set("storage.generate_s", Median(generate_s));
  m.Set("storage.generate_share", Ratio(Median(generate_s), Median(setup_s)));
  m.Set("storage.bytes", static_cast<double>(bytes));
  m.Set("storage.rows", static_cast<double>(rows));
  m.Set("query.scan_ms", Median(scan_ms));
  if (args.trace) {
    const double traced_total = Sum(traced_step_ms);
    const double n = static_cast<double>(kCountSteps);
    m.Set("storage.apply_share", Ratio(traced_apply, traced_total));
    m.Set("storage.clone_share", Ratio(traced_clone, traced_total));
    m.Set("sensitivity.cache_sync_share", Ratio(traced_sync, traced_total));
    m.Set("sensitivity.cache_assemble_share", Ratio(traced_assemble, traced_total));
    m.Set("sensitivity.cache_node_repairs",
          static_cast<double>(at_count.node_repairs - base.node_repairs) / n);
    m.Set("sensitivity.cache_repair_rows",
          static_cast<double>(at_count.repair_rows - base.repair_rows) / n);
    m.Set("sensitivity.cache_delta_rows",
          static_cast<double>(at_count.delta_rows - base.delta_rows) / n);
    const double repaired = static_cast<double>(
        at_count.repairs + at_count.shared_assemblies - base.repairs -
        base.shared_assemblies);
    const double fallbacks = static_cast<double>(
        at_count.fallback_stale + at_count.fallback_large_delta +
        at_count.fallback_unsupported + at_count.fallback_spilled -
        base.fallback_stale - base.fallback_large_delta -
        base.fallback_unsupported - base.fallback_spilled);
    m.Set("sensitivity.cache_repair_ratio", Ratio(repaired, repaired + fallbacks));
    m.Set("sensitivity.cache_state_bytes", static_cast<double>(at_count.state_bytes));
    m.Set("sensitivity.cache_prime_share",
          Ratio(Median(prime_ms) * 1e-3, Median(setup_s)));
    m.Set("sensitivity.repair_vs_recompute",
          Ratio((Median(sync_us) + Median(assemble_us)) * 1e-3, Median(recompute_ms)));
    // Per step over the exact prefix: only odd (traced) steps were summed.
    exec_counts.SetCounts(m, "", kCountSteps / 2);
    exec_totals.SetShares(m, traced_total);
    exec_counts.Print("update");
    m.Set("trace.op_p50_ms", Median(traced_step_ms));
    m.Set("trace.overhead", Ratio(Median(traced_step_ms), Median(step_ms)) - 1.0);
  }
}

// --- serve-mixed --------------------------------------------------------------------

// Traffic. Two reader sessions: with the writer and the feeder they fill the
// 4-thread budget. The feeder sweeps three fixed insert rates, a third of
// the window each, set as shares of the writer's capacity. That capacity
// is update-stream's op, which is one 1-row writer turn (ApplyDelta, repair
// of q1 and q2, CloneSnapshot): ~1.3 ms at p50 on the reference machine
// (4 vCPUs), so about 750 turns per second. A quarter of it is light load;
// at the full rate and at four times it, turns must coalesce deltas to keep up.
// The rates are constants, not re-measured per run, so every commit gets
// the same traffic.
constexpr int kReaders = 2;
constexpr double kWriterCapacity = 750.0;  // 1-row turns per second
constexpr double kRateShares[] = {0.25, 1.0, 4.0};
constexpr size_t kPhases = std::size(kRateShares);
// A rate is met when reads and updates both stay within these limits: read
// p99 (pin + answer + unpin) and lag at its tail level (due time to
// published). A lag within its limit also means the backlog is not growing.
constexpr double kReadP99LimitUs = 50.0;
constexpr double kLagTailLimitMs = 25.0;
// Share of reads on the unregistered sub-query: the smallest whole percent
// that gives every epoch several cold reads even at the writer's capacity
// (~330k reads/s x 2% / 750 epochs/s: ~9; at 1%, ~4), so each epoch runs
// both cold tiers: one compute, then memo hits.
constexpr uint64_t kColdPerMille = 20;
constexpr size_t kLatencySamples = 1 << 20;
constexpr size_t kPhaseSamples = 1 << 17;

double PhaseRate(size_t phase) { return kRateShares[phase] * kWriterCapacity; }

// The measurement window; phase p runs from start + p * phase_ns.
struct Window {
  int64_t start = 0;
  int64_t phase_ns = 0;
  size_t PhaseAt(int64_t t) const {
    if (t <= start) return 0;
    return std::min(kPhases - 1, static_cast<size_t>((t - start) / phase_ns));
  }
};

struct ReaderState {
  std::unique_ptr<lsens::ServerSession> session;
  Tracer tracer;
  Rng rng;
  Reservoir read_us;
  Reservoir traced_read_us;
  std::vector<Reservoir> phase_read_us;
  uint64_t phase_reads[kPhases] = {};
  // The reader thread's CPU time: read latency is wall time (a CPU clock
  // call costs a large part of a 3 us read), but throughput is reads per
  // CPU-second of reading, so it does not count time the host took away.
  double phase_cpu_ns[kPhases] = {};
  uint64_t reads = 0;
  double active_cpu_ns = 0.0;
  // Traced reads only: where their time went.
  double traced_ns = 0.0, pin_ns = 0.0;
  double warm_ns = 0.0, cold_hit_ns = 0.0, cold_compute_ns = 0.0;
  std::vector<double> pin_us, warm_us, cold_hit_us, cold_compute_ms;
  uint64_t checks = 0;
  std::vector<std::string> failures;

  ReaderState(bool trace, uint64_t seed)
      : tracer(trace),
        rng(seed),
        read_us(kLatencySamples, seed + 1),
        traced_read_us(kLatencySamples, seed + 2) {
    for (size_t p = 0; p < kPhases; ++p) {
      phase_read_us.emplace_back(kPhaseSamples, seed + 3 + p);
    }
  }
};

uint64_t Calls(const ExecContext& ctx, const char* op) {
  const lsens::OperatorStats* s = ctx.FindStats(op);
  return s == nullptr ? 0 : s->calls;
}

void ReaderLoop(ReaderState& st, const std::vector<const ConjunctiveQuery*>& qs,
                const Window& window, const std::atomic<bool>& stop,
                double seconds) {
  lsens::ServerSession& session = *st.session;
  ExecContext check_ctx;
  TSensComputeOptions check_opts;
  check_opts.join.ctx = &check_ctx;
  Tracer off(false);
  // A few reads are checked against a recompute at their pinned epoch; the
  // check runs outside the read's timing and is excluded from active time.
  constexpr int kChecks = 3;
  const int64_t start = NowNs();
  const double check_every_ns = seconds * 1e9 / kChecks;
  int64_t next_check = start + static_cast<int64_t>(check_every_ns / 2);
  // CPU time is read only when the phase changes and around checks.
  size_t cur_phase = window.PhaseAt(start);
  int64_t phase_cpu0 = ThreadCpuNs();
  while (!stop.load(std::memory_order_relaxed)) {
    const bool checking = NowNs() >= next_check;
    size_t qi;
    if (checking) {
      qi = st.checks % qs.size();
    } else if (st.rng.NextBounded(1000) < kColdPerMille) {
      qi = 2;
    } else {
      qi = st.rng.NextBounded(2);
    }
    const bool traced = st.tracer.enabled() && st.reads % 2 == 1;
    Tracer& t = traced ? st.tracer : off;
    uint64_t warm0 = 0, cold_hit0 = 0, cold0 = 0;
    if (traced) {
      warm0 = Calls(session.ctx(), "serve.warm_hit");
      cold_hit0 = Calls(session.ctx(), "serve.cold_hit");
      cold0 = Calls(session.ctx(), "serve.cold_compute");
    }
    int64_t t0, t1, t2;
    lsens::EpochPin pin;
    std::optional<lsens::StatusOr<SensitivityResult>> res;
    {
      ScopedSpan root(t, "op", st.reads);
      t0 = NowNs();
      {
        ScopedSpan span(t, "server.pin");
        pin = session.Pin();
      }
      t1 = NowNs();
      {
        ScopedSpan span(t, "server.query_at");
        res.emplace(session.QueryAt(pin, *qs[qi]));
      }
      if (!checking) pin.Release();
      t2 = NowNs();
    }
    ++st.reads;
    const double us = static_cast<double>(t2 - t0) * 1e-3;
    st.read_us.Add(us);
    const size_t phase = window.PhaseAt(t0);
    if (phase != cur_phase) {
      const int64_t c = ThreadCpuNs();
      st.phase_cpu_ns[cur_phase] += static_cast<double>(c - phase_cpu0);
      phase_cpu0 = c;
      cur_phase = phase;
    }
    ++st.phase_reads[phase];
    st.phase_read_us[phase].Add(us);
    if (traced) {
      st.traced_read_us.Add(us);
      st.traced_ns += static_cast<double>(t2 - t0);
      st.pin_ns += static_cast<double>(t1 - t0);
      st.pin_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      const ExecContext& c = session.ctx();
      if (Calls(c, "serve.warm_hit") > warm0) {
        st.warm_ns += static_cast<double>(t2 - t1);
        st.warm_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      } else if (Calls(c, "serve.cold_hit") > cold_hit0) {
        st.cold_hit_ns += static_cast<double>(t2 - t1);
        st.cold_hit_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      } else if (Calls(c, "serve.cold_compute") > cold0) {
        st.cold_compute_ns += static_cast<double>(t2 - t1);
        st.cold_compute_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
      }
    }
    if (!res->ok()) {
      st.failures.push_back("read failed: " + res->status().ToString());
    }
    if (checking) {
      const int64_t c0 = ThreadCpuNs();
      ScopedSpan span(st.tracer, "check", st.checks);
      auto fresh = lsens::ComputeLocalSensitivity(*qs[qi], pin.db(), check_opts);
      if (!res->ok() || !fresh.ok() ||
          Fingerprint(**res) != Fingerprint(*fresh)) {
        st.failures.push_back("served read differs from a recompute at epoch " +
                              std::to_string(pin.epoch()));
      }
      pin.Release();
      ++st.checks;
      next_check += static_cast<int64_t>(check_every_ns);
      phase_cpu0 += ThreadCpuNs() - c0;  // the check is not reading time
    }
  }
  st.phase_cpu_ns[cur_phase] += static_cast<double>(ThreadCpuNs() - phase_cpu0);
  for (double ns : st.phase_cpu_ns) st.active_cpu_ns += ns;
}

struct FeederReport {
  std::vector<double> late_ms[kPhases], lag_ms[kPhases];
  uint64_t submitted = 0, submit_failures = 0;
  uint64_t epochs_live_max = 0, epoch_bytes_max = 0;
};

// Open loop: in phase p, the phase's delta k is due at the phase start plus
// k / rate, whatever the server does. Lateness is submit time minus due
// time; lag runs from the due time to the first poll of stats() that shows
// the delta applied in a published epoch. Polling every 1 ms resolves the
// lag well enough and keeps the feeder off the server's lock.
void FeederLoop(lsens::SensitivityServer& server,
                const std::vector<DatabaseDelta>& pool, uint64_t applied_base,
                const Window& window, const std::atomic<bool>& stop,
                FeederReport& rep) {
  constexpr int64_t kPollNs = 1000000;
  auto phase_start = [&](size_t phase) {
    return window.start + static_cast<int64_t>(phase) * window.phase_ns;
  };
  auto due_at = [&](size_t phase, uint64_t k) {
    return phase_start(phase) +
           static_cast<int64_t>(static_cast<double>(k) * 1e9 / PhaseRate(phase));
  };
  std::vector<std::pair<int64_t, size_t>> due;  // due time, phase
  size_t phase = 0;
  uint64_t k = 0, acked = 0;
  int64_t next_due = due_at(0, 0);
  int64_t next_poll = window.start;
  while (!stop.load(std::memory_order_relaxed)) {
    int64_t now = NowNs();
    if (now >= next_due) {
      const DatabaseDelta& d = pool[due.size() % pool.size()];
      if (!server.SubmitDelta(d).ok()) ++rep.submit_failures;
      rep.late_ms[phase].push_back(static_cast<double>(NowNs() - next_due) * 1e-6);
      due.emplace_back(next_due, phase);
      ++rep.submitted;
      next_due = due_at(phase, ++k);
      if (next_due >= phase_start(phase + 1)) {
        k = 0;
        next_due = ++phase < kPhases ? due_at(phase, 0) : INT64_MAX;
      }
      continue;
    }
    if (now >= next_poll) {
      const lsens::ServingStats s = server.stats();
      now = NowNs();
      const uint64_t applied = s.deltas_applied - applied_base;
      for (; acked < applied && acked < due.size(); ++acked) {
        rep.lag_ms[due[acked].second].push_back(
            static_cast<double>(now - due[acked].first) * 1e-6);
      }
      rep.epochs_live_max = std::max(rep.epochs_live_max, s.epochs_live);
      rep.epoch_bytes_max = std::max(rep.epoch_bytes_max, s.epoch_bytes);
      next_poll = now + kPollNs;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<int64_t>(0, std::min(next_due, next_poll) - now)));
  }
}

void WaitForTurns(const lsens::SensitivityServer& server, uint64_t turns) {
  while (server.stats().turns < turns) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void RunServeMixed(const Args& args, Tracer& tr, Metrics& m, Outcome& out) {
  const double scale = args.scale > 0 ? args.scale : 0.05;
  std::vector<double> setup_s, generate_s, construct_ms, prime_ms, scan_ms;
  // What one set-up builds: a primed server, its queries, and the inserts
  // the feeder submits.
  struct Serving {
    std::unique_ptr<lsens::SensitivityServer> server;
    std::vector<WorkloadQuery> queries;
    ConjunctiveQuery sub;
    std::vector<DatabaseDelta> pool;
  };
  size_t rows = 0, bytes = 0;
  uint64_t setup_round = 0;
  auto set_up = [&](Serving& s) {
    if (s.server != nullptr) s.server->Shutdown();
    s.server.reset();
    s.queries.clear();
    s.pool.clear();
    ScopedSpan root(tr, "setup", setup_round++);
    const int64_t t0 = ProcessCpuNs();
    double gen = 0;
    Database db = Generate(scale, args.seed, tr, &gen);
    s.queries.push_back(lsens::MakeTpchQ1(db));
    s.queries.push_back(lsens::MakeTpchQ2(db));
    // The unregistered sub-query (a prefix of q1) takes the cold tiers.
    s.sub = ConjunctiveQuery();
    s.sub.AddAtom(db, "Nation", {"RK", "NK"});
    s.sub.AddAtom(db, "Customer", {"NK", "CK"});
    // Insert-only deltas stay applicable however far the master moves.
    Rng pool_rng(DeriveSeed(args.seed, 3));
    for (int i = 0; i < 2048; ++i) {
      DatabaseDelta d = MakeDelta(db, pool_rng);
      if (d[0].inserts.empty()) {
        --i;
        continue;
      }
      s.pool.push_back(std::move(d));
    }
    rows = db.TotalRows();
    bytes = db.MemoryBytes();
    const int64_t c0 = ProcessCpuNs();
    {
      ScopedSpan span(tr, "server.construct");
      lsens::ServingConfig config;
      s.server = std::make_unique<lsens::SensitivityServer>(std::move(db), config);
      s.server->RegisterQuery(s.queries[0].query);
      s.server->RegisterQuery(s.queries[1].query);
    }
    construct_ms.push_back(ProcessCpuMsSince(c0));
    // Prime: the first turn computes and captures both registered queries.
    const int64_t p0 = ProcessCpuNs();
    {
      ScopedSpan span(tr, "sensitivity.cache_prime");
      ++out.attempted;
      if (!s.server->SubmitDelta(s.pool.back()).ok()) out.Fail("prime delta refused");
      WaitForTurns(*s.server, 1);
    }
    prime_ms.push_back(ProcessCpuMsSince(p0));
    setup_s.push_back(ProcessCpuMsSince(t0) * 1e-3);
    generate_s.push_back(gen);
  };
  Serving live;
  Calibration cal;
  for (int round = 0; round < kSetupRounds; ++round) {
    set_up(live);
    cal.Run();
  }
  std::unique_ptr<lsens::SensitivityServer>& server = live.server;
  const std::vector<WorkloadQuery>& queries = live.queries;
  const ConjunctiveQuery& sub = live.sub;
  const std::vector<DatabaseDelta>& pool = live.pool;
  ExecContext scan_ctx;
  std::printf("# sizes scale=%g rows=%zu bytes=%zu readers=%d feeder_rates=",
              scale, rows, bytes, kReaders);
  for (size_t p = 0; p < kPhases; ++p) std::printf("%s%g", p ? "," : "", PhaseRate(p));
  std::printf("/s cold_share=%.3f\n", static_cast<double>(kColdPerMille) / 1000.0);

  const std::vector<const ConjunctiveQuery*> qs = {&queries[0].query,
                                                   &queries[1].query, &sub};
  {
    // The query layer's scan, on the current epoch's snapshot.
    auto session = server->OpenSession("scan");
    lsens::EpochPin pin = session->Pin();
    for (int round = 0; round < kSetupRounds; ++round) {
      scan_ms.push_back(ScanPass(pin.db(), qs, scan_ctx, tr,
                                 static_cast<uint64_t>(round)));
    }
    for (size_t i = 0; i < qs.size(); ++i) {
      auto r = session->QueryAt(pin, *qs[i]);
      if (r.ok()) PrintResult(i < 2 ? queries[i].name : "sub", *r, pin.db());
    }
  }

  std::vector<std::unique_ptr<ReaderState>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<ReaderState>(
        args.trace, DeriveSeed(args.seed, 10 + static_cast<uint64_t>(r))));
    readers.back()->session = server->OpenSession("reader-" + std::to_string(r));
  }
  // Warm-up, untimed: a few writer turns fault in the memory of snapshot
  // clones, and each session reads every query once per turn, so the
  // window starts steady.
  for (size_t i = 0; i < 32; ++i) {
    const uint64_t turns = server->stats().turns;
    ++out.attempted;
    if (!server->SubmitDelta(pool[i]).ok()) out.Fail("warm-up delta refused");
    WaitForTurns(*server, turns + 1);
    for (auto& st : readers) {
      for (const ConjunctiveQuery* q : qs) {
        ++out.attempted;
        if (!st->session->Query(*q).ok()) out.Fail("warm-up read failed");
      }
    }
  }
  const lsens::ServingStats base = server->stats();
  std::atomic<bool> stop{false};
  FeederReport feed;
  Window window;
  window.phase_ns = static_cast<int64_t>(args.seconds * 1e9 / static_cast<double>(kPhases));
  window.start = NowNs();
  {
    std::vector<std::thread> threads;
    for (auto& st : readers) {
      threads.emplace_back(ReaderLoop, std::ref(*st), std::cref(qs),
                           std::cref(window), std::cref(stop), args.seconds);
    }
    threads.emplace_back(FeederLoop, std::ref(*server), std::cref(pool),
                         base.deltas_applied, std::cref(window), std::cref(stop),
                         std::ref(feed));
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<int64_t>(args.seconds * 1e9)));
    stop.store(true);
    for (std::thread& th : threads) th.join();
  }
  const double window_ms = MsSince(window.start);
  server->Shutdown();
  const lsens::ServingStats fin = server->stats();

  std::vector<double> read_us, traced_read_us, pin_us, warm_us, cold_hit_us,
      cold_compute_ms;
  std::vector<double> phase_read_us[kPhases];
  double phase_qps[kPhases] = {};
  double qps = 0, traced_ns = 0, pin_ns = 0, cold_compute_ns = 0;
  ExecTotals exec_totals;
  for (auto& st : readers) {
    out.attempted += st->reads;
    for (const std::string& f : st->failures) out.Fail(f);
    qps += Ratio(static_cast<double>(st->reads), st->active_cpu_ns * 1e-9);
    for (size_t p = 0; p < kPhases; ++p) {
      const auto& s = st->phase_read_us[p].samples();
      phase_read_us[p].insert(phase_read_us[p].end(), s.begin(), s.end());
      phase_qps[p] += Ratio(static_cast<double>(st->phase_reads[p]),
                            st->phase_cpu_ns[p] * 1e-9);
    }
    const auto& rs = st->read_us.samples();
    read_us.insert(read_us.end(), rs.begin(), rs.end());
    const auto& ts = st->traced_read_us.samples();
    traced_read_us.insert(traced_read_us.end(), ts.begin(), ts.end());
    pin_us.insert(pin_us.end(), st->pin_us.begin(), st->pin_us.end());
    warm_us.insert(warm_us.end(), st->warm_us.begin(), st->warm_us.end());
    cold_hit_us.insert(cold_hit_us.end(), st->cold_hit_us.begin(), st->cold_hit_us.end());
    cold_compute_ms.insert(cold_compute_ms.end(), st->cold_compute_ms.begin(),
                           st->cold_compute_ms.end());
    traced_ns += st->traced_ns;
    pin_ns += st->pin_ns;
    cold_compute_ns += st->cold_compute_ns;
    exec_totals.Add(st->session->ctx());
    tr.MergeFrom(st->tracer);
  }
  out.attempted += feed.submitted;
  for (uint64_t i = 0; i < feed.submit_failures; ++i) out.Fail("delta submit refused");
  for (uint64_t i = 0; i < fin.deltas_rejected; ++i) out.Fail("delta rejected by the writer");

  // The writer's repair time over the window's turns. writer_ctx() may be
  // read only after Shutdown, so the priming turn cannot be subtracted by
  // reading it at the window's start; it is the only turn that records
  // cache.miss (the cache holds both registered queries from then on), so
  // cache.miss is left out.
  double writer_s = 0;
  for (const char* op : {"cache.hit", "cache.repair", "cache.shared_assembly",
                         "cache.fallback"}) {
    if (const lsens::OperatorStats* s = server->writer_ctx().FindStats(op)) {
      writer_s += s->wall_seconds;
    }
  }
  const uint64_t turns = fin.turns - base.turns;
  const uint64_t reads = fin.queries_served - base.queries_served;
  std::printf("# reads=%" PRIu64 " window_ms=%.1f turns=%" PRIu64
              " deltas_applied=%" PRIu64 " warm=%" PRIu64 " cold_hit=%" PRIu64
              " cold_compute=%" PRIu64 " writer_misses=%" PRIu64 " qps=%.0f\n",
              reads, window_ms, turns, fin.deltas_applied - base.deltas_applied,
              fin.warm_hits - base.warm_hits, fin.cold_hits - base.cold_hits,
              fin.cold_computes - base.cold_computes,
              Calls(server->writer_ctx(), "cache.miss"), qps);
  PrintSamples("op.read_us", read_us, "us");
  std::vector<double> lag_ms, late_ms;
  double late_share = 0;
  double rate_within_limit = 0;
  for (size_t p = 0; p < kPhases; ++p) {
    const std::vector<double>& lag = feed.lag_ms[p];
    const std::vector<double>& late = feed.late_ms[p];
    lag_ms.insert(lag_ms.end(), lag.begin(), lag.end());
    late_ms.insert(late_ms.end(), late.begin(), late.end());
    late_share = std::max(late_share, Quantile(late, 0.99) * PhaseRate(p) * 1e-3);
    const double read_p99 = Quantile(phase_read_us[p], 0.99);
    const double lag_level = TailLevel(lag.size());
    const double lag_tail = Quantile(lag, lag_level);
    const bool met = !lag.empty() && read_p99 <= kReadP99LimitUs &&
                     lag_tail <= kLagTailLimitMs;
    if (met) rate_within_limit = PhaseRate(p);
    std::printf("# rate %g/s (%.0f%% of capacity): qps=%.0f read_p50_us=%.3f "
                "read_p99_us=%.3f (n=%zu) lag_p50_ms=%.3f lag_p%.0f_ms=%.3f "
                "(n=%zu) late_p99_ms=%.3f %s\n",
                PhaseRate(p), kRateShares[p] * 100, phase_qps[p],
                Median(phase_read_us[p]), read_p99, phase_read_us[p].size(),
                Median(lag), lag_level * 100, lag_tail, lag.size(),
                Quantile(late, 0.99), met ? "within limits" : "OVER LIMIT");
  }
  std::printf("# server.rate_within_limit=%g/s (read p99 <= %g us, lag tail <= "
              "%g ms)\n",
              rate_within_limit, kReadP99LimitUs, kLagTailLimitMs);
  PrintSamples("server.lag_ms", lag_ms, "ms");
  PrintSamples("server.feeder_late_ms", late_ms, "ms");
  std::printf("# server.writer_repair_ms_per_turn=%.4f\n",
              Ratio(writer_s * 1e3, static_cast<double>(turns)));
  if (args.trace) {
    PrintSamples("server.pin_us", pin_us, "us");
    PrintSamples("server.warm_hit_us", warm_us, "us");
    PrintSamples("server.cold_hit_us", cold_hit_us, "us");
    PrintSamples("server.cold_compute_ms", cold_compute_ms, "ms");
  }
  // Sessions hold a server pointer: release them before the server. Then
  // set up again, so setup_s samples both ends of the run.
  readers.clear();
  server.reset();
  Serving spare;
  for (int round = 1; round < kSetupRounds; ++round) {
    set_up(spare);
    cal.Run();
  }
  spare.server->Shutdown();

  const double setup_med = Median(setup_s);
  std::vector<double> read_ms;
  for (double us : read_us) read_ms.push_back(us * 1e-3);
  SetEndToEnd(m, cal, setup_med, read_ms, qps, 0.99);
  m.Set("storage.generate_s", Median(generate_s));
  m.Set("storage.generate_share", Ratio(Median(generate_s), setup_med));
  m.Set("storage.bytes", static_cast<double>(bytes));
  m.Set("storage.rows", static_cast<double>(rows));
  m.Set("query.scan_ms", Median(scan_ms));
  if (args.trace) {
    const double traced_ms = traced_ns * 1e-6;
    exec_totals.SetCounts(m, "", std::max<uint64_t>(1, fin.cold_computes - base.cold_computes));
    exec_totals.SetShares(m, traced_ms);
    m.Set("sensitivity.cache_prime_share", Ratio(Median(prime_ms) * 1e-3, setup_med));
    m.Set("server.construct_share", Ratio(Median(construct_ms) * 1e-3, setup_med));
    m.Set("server.pin_share", Ratio(pin_ns, traced_ns));
    m.Set("server.warm_share", Ratio(static_cast<double>(fin.warm_hits - base.warm_hits),
                                     static_cast<double>(reads)));
    m.Set("server.cold_computes", static_cast<double>(fin.cold_computes - base.cold_computes));
    m.Set("server.cold_compute_share", Ratio(cold_compute_ns, traced_ns));
    m.Set("server.turns", static_cast<double>(turns));
    m.Set("server.mean_turn_deltas",
          Ratio(static_cast<double>(fin.deltas_applied - base.deltas_applied),
                static_cast<double>(turns)));
    m.Set("server.empty_turns", static_cast<double>(fin.empty_turns - base.empty_turns));
    m.Set("server.writer_busy_share", Ratio(writer_s * 1e3, window_ms));
    m.Set("server.epochs_live_max", static_cast<double>(feed.epochs_live_max));
    m.Set("server.epoch_bytes_max", static_cast<double>(feed.epoch_bytes_max));
    m.Set("server.feeder_late_share", late_share);
    m.Set("server.rate_within_limit", rate_within_limit);
    m.Set("trace.op_p50_ms", Median(traced_read_us) * 1e-3);
    m.Set("trace.overhead", Ratio(Median(traced_read_us), Median(read_us)) - 1.0);
  }
}

// --- main -----------------------------------------------------------------------------

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: lsens_perfbench --workload "
               "{tpch-acyclic,tpch-cyclic,update-stream,serve-mixed} --seed N "
               "--seconds S --trace {0,1} [--scale SF]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scale") {
      args.scale = std::strtod(v, nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "error: refusing to report numbers from a non-optimized build "
               "(build type %s)\n",
               LSENS_PERFBENCH_BUILD_TYPE);
  return 3;
#endif

#ifdef __GLIBC__
  // Fixed malloc thresholds. By default glibc raises its mmap threshold as
  // large blocks are freed, so whether a CloneSnapshot's column buffers come
  // from the heap or from fresh mmaps, page-faulted on every update step,
  // depends on the run's history: update-stream's p99 read 1.5-2.5 ms from
  // run to run, and 1.2-1.6 ms with the thresholds fixed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif

  Tracer tr(args.trace);
  Metrics m;
  Outcome out;
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d build=%s "
              "nproc=%u\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              LSENS_PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  if (args.workload == "tpch-acyclic") {
    RunTpch(args, /*cyclic=*/false, tr, m, out);
  } else if (args.workload == "tpch-cyclic") {
    RunTpch(args, /*cyclic=*/true, tr, m, out);
  } else if (args.workload == "update-stream") {
    RunUpdateStream(args, tr, m, out);
  } else if (args.workload == "serve-mixed") {
    RunServeMixed(args, tr, m, out);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  m.Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      tr.WriteJson(f);
      std::fclose(f);
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    for (const auto& [name, t] : tr.totals()) {
      std::printf("# span %-36s n=%-8" PRIu64 " incl_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), t.count, t.incl_ns * 1e-6, t.self_ns * 1e-6);
    }
  }
  std::printf("# fail_ratio=%.6g\n",
              Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed,
              m.Json(args.trace ? PerLayerCatalogue() : EndToEndCatalogue()).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
