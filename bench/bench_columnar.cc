// Columnar-storage microbenchmarks: the chunked per-column layout against an
// in-bench row-major baseline, on the four hot shapes the columnar rewrite
// targets — predicate scan + projection, key hashing, hash-join probe, and
// change-log delta projection — plus the storage-footprint comparison of a
// dictionary-encoded string column against per-row std::string storage.
// Every family computes a checksum on both paths and the run aborts on any
// divergence, so the speedup table can never quietly compare different
// answers. Writes the BENCH_columnar.json trajectory file.
//
// Exits non-zero (failing the CTest smoke) when
//   - any columnar/row-major checksum diverges,
//   - the median scan speedup falls below LSENS_COL_SCAN_MIN, or
//   - the columnar+dictionary footprint exceeds the row-major string
//     baseline (ratio > 1.0): the layout must never cost memory.
//
// Knobs:
//   LSENS_COL_ROWS       rows per benched relation      (default 200000)
//   LSENS_COL_REPS       repetitions per family         (default 5)
//   LSENS_COL_SCAN_MIN   scan speedup floor             (default 0.5; the
//                        lenient default absorbs noisy shared runners —
//                        perf CI pins a higher floor explicitly)
//   LSENS_BENCH_COL_JSON output path            (default BENCH_columnar.json)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/counted_relation.h"
#include "exec/hash_group_table.h"
#include "storage/database.h"
#include "storage/dictionary.h"
#include "storage/relation.h"
#include "storage/value.h"

namespace lsens {
namespace {

using bench::EnvInt;
using bench::EnvScales;
using bench::Median;

// The pre-columnar layout, reconstructed in-bench: one flat row-major
// vector with arity() stride. Each family's baseline walks rows of this.
struct RowMajorTable {
  size_t arity = 0;
  std::vector<Value> data;

  size_t NumRows() const { return data.size() / arity; }
  std::span<const Value> Row(size_t i) const {
    return {data.data() + i * arity, arity};
  }
};

struct FamilyResult {
  std::string name;
  size_t rows = 0;
  double columnar_ns = 0;  // median wall per repetition
  double rowmajor_ns = 0;
  double speedup = 0;  // rowmajor / columnar
};

// --- Scan: ~50% predicate on column 0, project columns {0, 2} -------------

uint64_t ColumnarScan(const Relation& rel, Value threshold,
                      std::vector<uint32_t>& sel,
                      std::vector<std::vector<Value>>& out) {
  const ChunkedColumn pred = rel.Chunks(0);
  sel.clear();
  for (size_t k = 0; k < pred.num_chunks(); ++k) {
    std::span<const Value> chunk = pred.chunk(k);
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (chunk[i] >= threshold) {
        sel.push_back(static_cast<uint32_t>(k * kChunkRows + i));
      }
    }
  }
  uint64_t checksum = kValueHashSeed;
  size_t out_col = 0;
  for (size_t c : {size_t{0}, size_t{2}}) {
    const ChunkedColumn col = rel.Chunks(c);
    std::vector<Value>& dst = out[out_col++];
    dst.resize(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) dst[i] = col[sel[i]];
    for (Value v : dst) checksum = HashValueFold(checksum, v);
  }
  return checksum;
}

uint64_t RowMajorScan(const RowMajorTable& table, Value threshold,
                      std::vector<Value>& out) {
  out.clear();
  for (size_t i = 0; i < table.NumRows(); ++i) {
    std::span<const Value> row = table.Row(i);
    if (row[0] >= threshold) {
      out.push_back(row[0]);
      out.push_back(row[2]);
    }
  }
  // Row-major emits (c0, c2) interleaved; fold per column so the checksum
  // is layout-independent and must equal the columnar one.
  uint64_t checksum = kValueHashSeed;
  for (size_t c = 0; c < 2; ++c) {
    for (size_t i = c; i < out.size(); i += 2) {
      checksum = HashValueFold(checksum, out[i]);
    }
  }
  return checksum;
}

// --- Hash: key columns {0, 1}, XOR of per-row key hashes ------------------

uint64_t ColumnarHash(const Relation& rel, std::vector<uint64_t>& hashes) {
  hashes.resize(rel.NumRows());
  HashValuesBatchSeed(hashes);
  for (size_t c : {size_t{0}, size_t{1}}) {
    const ChunkedColumn col = rel.Chunks(c);
    for (size_t k = 0; k < col.num_chunks(); ++k) {
      std::span<const Value> chunk = col.chunk(k);
      std::span<uint64_t> folded(hashes.data() + k * kChunkRows, chunk.size());
      HashValuesBatchFold(chunk, folded);
    }
  }
  uint64_t checksum = 0;
  for (uint64_t h : hashes) checksum ^= h;
  return checksum;
}

uint64_t RowMajorHash(const RowMajorTable& table) {
  uint64_t checksum = 0;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    std::span<const Value> row = table.Row(i);
    uint64_t h = kValueHashSeed;
    h = HashValueFold(h, row[0]);
    h = HashValueFold(h, row[1]);
    checksum ^= h;
  }
  return checksum;
}

// --- Join probe: batched probe-side hashes vs per-row hashing -------------

uint64_t BatchedProbe(const FlatGroupTable& table, const CountedRelation& a,
                      std::span<const int> probe_cols,
                      std::vector<Value>& gather,
                      std::vector<uint64_t>& hashes) {
  HashRowKeysBatch(a, probe_cols, gather, hashes);
  uint64_t matched = 0;
  for (size_t i = 0; i < a.NumRows(); ++i) {
    matched += table.Probe(a.Row(i), probe_cols, hashes[i]).size();
  }
  return matched;
}

uint64_t PerRowProbe(const FlatGroupTable& table, const CountedRelation& a,
                     std::span<const int> probe_cols) {
  uint64_t matched = 0;
  for (size_t i = 0; i < a.NumRows(); ++i) {
    matched += table.Probe(a.Row(i), probe_cols).size();
  }
  return matched;
}

// --- Repair: projected sharded change collection vs project-after --------

uint64_t FoldProjected(
    const std::vector<std::vector<ProjectedRowChange>>& shards) {
  uint64_t checksum = kValueHashSeed;
  for (const auto& shard : shards) {
    for (const ProjectedRowChange& pc : shard) {
      checksum = HashValueFold(checksum, pc.insert ? 1 : 0);
      for (Value v : pc.key) checksum = HashValueFold(checksum, v);
    }
  }
  return checksum;
}

uint64_t ColumnarRepairCollect(const Relation& rel, uint64_t since,
                               std::span<const size_t> key_cols,
                               size_t num_shards) {
  std::vector<std::vector<ProjectedRowChange>> shards(num_shards);
  auto filter = [](const RowChange& ch) { return ch.row[1] >= 0; };
  size_t num_changes = 0;
  if (!rel.CollectProjectedChangesShardedSince(since, key_cols, num_shards,
                                               filter, &shards,
                                               &num_changes)) {
    return 0;
  }
  return FoldProjected(shards);
}

uint64_t RowMajorRepairCollect(const Relation& rel, uint64_t since,
                               std::span<const size_t> key_cols,
                               size_t num_shards) {
  // The pre-columnar shape: collect whole-row changes per shard, then
  // filter and slice the key columns out of each row.
  std::vector<std::vector<RowChange>> raw(num_shards);
  if (!rel.CollectChangesShardedSince(since, key_cols, num_shards, &raw)) {
    return 0;
  }
  std::vector<std::vector<ProjectedRowChange>> shards(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (const RowChange& ch : raw[s]) {
      if (ch.row[1] < 0) continue;
      ProjectedRowChange pc;
      pc.insert = ch.insert;
      for (size_t col : key_cols) pc.key.push_back(ch.row[col]);
      shards[s].push_back(std::move(pc));
    }
  }
  return FoldProjected(shards);
}

// --- Footprint: dictionary-encoded column vs per-row std::string ----------

struct RowWithString {
  std::string label;
  Value a = 0;
  Value b = 0;
};

size_t RowMajorStringBytes(const std::vector<RowWithString>& rows) {
  size_t bytes = rows.capacity() * sizeof(RowWithString);
  for (const RowWithString& r : rows) {
    // Heap block behind a non-SSO string (libstdc++ SSO capacity is 15).
    if (r.label.capacity() > 15) bytes += r.label.capacity() + 1;
  }
  return bytes;
}

}  // namespace
}  // namespace lsens

int main() {
  using namespace lsens;

  bench::Banner("BENCH columnar storage",
                "flat key columns vs row-major through scan, hash, join "
                "probe, and delta repair; dictionary footprint gate");

  const long rows = EnvInt("LSENS_COL_ROWS", 200000);
  const long reps = EnvInt("LSENS_COL_REPS", 5);
  const double scan_min = EnvScales("LSENS_COL_SCAN_MIN", {0.5})[0];
  const size_t n = static_cast<size_t>(rows);

  Rng rng(42);
  Relation rel("R", {"A", "B", "C"});
  RowMajorTable table;
  table.arity = 3;
  rel.Reserve(n);
  table.data.reserve(n * 3);
  for (size_t i = 0; i < n; ++i) {
    const Value a = rng.NextInRange(-1000000, 1000000);
    const Value b = rng.NextInRange(-1000000, 1000000);
    const Value c = rng.NextInRange(0, 1000);
    rel.AppendRow({a, b, c});
    table.data.insert(table.data.end(), {a, b, c});
  }

  int failures = 0;
  std::vector<FamilyResult> results;
  auto run_family = [&](const std::string& name, auto columnar,
                        auto rowmajor) {
    std::vector<double> col_ns;
    std::vector<double> row_ns;
    uint64_t col_sum = 0;
    uint64_t row_sum = 0;
    for (long r = 0; r < reps; ++r) {
      WallTimer t;
      col_sum = columnar();
      col_ns.push_back(t.ElapsedSeconds() * 1e9);
      t.Reset();
      row_sum = rowmajor();
      row_ns.push_back(t.ElapsedSeconds() * 1e9);
      if (col_sum != row_sum) {
        std::fprintf(stderr,
                     "FAIL %s: checksum divergence columnar=%" PRIu64
                     " rowmajor=%" PRIu64 "\n",
                     name.c_str(), col_sum, row_sum);
        ++failures;
        break;
      }
    }
    FamilyResult fr;
    fr.name = name;
    fr.rows = n;
    fr.columnar_ns = Median(col_ns);
    fr.rowmajor_ns = Median(row_ns);
    fr.speedup = fr.columnar_ns > 0 ? fr.rowmajor_ns / fr.columnar_ns : 0;
    results.push_back(fr);
    std::printf("%-12s rows=%zu columnar=%.0fns rowmajor=%.0fns "
                "speedup=%.2fx checksum=%" PRIu64 "\n",
                name.c_str(), n, fr.columnar_ns, fr.rowmajor_ns, fr.speedup,
                col_sum);
    return fr.speedup;
  };

  // Scan.
  std::vector<uint32_t> sel;
  std::vector<std::vector<Value>> scan_out(2);
  std::vector<Value> scan_flat;
  const double scan_speedup = run_family(
      "scan", [&] { return ColumnarScan(rel, 0, sel, scan_out); },
      [&] { return RowMajorScan(table, 0, scan_flat); });

  // Hash.
  std::vector<uint64_t> hashes;
  run_family("hash", [&] { return ColumnarHash(rel, hashes); },
             [&] { return RowMajorHash(table); });

  // Join probe: build side = distinct keys in a narrow domain so probe
  // runs hit; probe side = the bench relation's first two columns.
  CountedRelation probe_rel({1, 2});
  probe_rel.Reserve(n);
  {
    std::span<Value> dst = probe_rel.AppendRowsRaw(n, Count::One());
    const ChunkedColumn c0 = rel.Chunks(0);
    const ChunkedColumn c2 = rel.Chunks(2);
    for (size_t i = 0; i < n; ++i) {
      dst[i * 2] = c0[i] % 997;
      dst[i * 2 + 1] = c2[i];
    }
  }
  CountedRelation build_rel({1, 2});
  for (Value k = -996; k < 997; ++k) {
    build_rel.AppendRow({k, k * 2}, Count::One());
  }
  FlatGroupTable group_table;
  const std::vector<int> build_cols = {0};
  const std::vector<int> probe_cols = {0};
  group_table.Build(build_rel, build_cols);
  std::vector<Value> gather;
  run_family(
      "join-probe",
      [&] {
        return BatchedProbe(group_table, probe_rel, probe_cols, gather,
                            hashes);
      },
      [&] { return PerRowProbe(group_table, probe_rel, probe_cols); });

  // Repair: a change-logged relation under a mutation stream, then the
  // delta projection both ways.
  Relation logged("L", {"A", "B", "C"});
  const size_t updates = std::min<size_t>(n, 50000);
  logged.EnableChangeLog(2 * updates + 16);
  const uint64_t since = logged.version();
  for (size_t i = 0; i < updates; ++i) {
    if (logged.NumRows() > 0 && rng.NextBounded(4) == 0) {
      logged.SwapRemoveRow(rng.NextBounded(logged.NumRows()));
    } else {
      logged.AppendRow({rng.NextInRange(-50, 50), rng.NextInRange(-50, 50),
                        rng.NextInRange(0, 100)});
    }
  }
  const std::vector<size_t> key_cols = {0, 2};
  run_family("repair",
             [&] { return ColumnarRepairCollect(logged, since, key_cols, 8); },
             [&] { return RowMajorRepairCollect(logged, since, key_cols, 8); });

  // Footprint: one dictionary-encoded label column plus two int columns,
  // against per-row std::string storage of the same data.
  Database db;
  Relation* dict_rel = db.AddRelation("S", {"label", "a", "b"});
  std::vector<RowWithString> string_rows;
  {
    std::vector<std::vector<Value>> columns(3);
    const size_t distinct = std::max<size_t>(1, n / 16);
    for (size_t i = 0; i < n; ++i) {
      RowWithString r;
      r.label = "label-value-" + std::to_string(i % distinct);
      r.a = static_cast<Value>(i);
      r.b = static_cast<Value>(i % 7);
      columns[0].push_back(db.dict().Intern(r.label));
      columns[1].push_back(r.a);
      columns[2].push_back(r.b);
      string_rows.push_back(std::move(r));
    }
    dict_rel->AppendColumns(columns);
    dict_rel->set_column_dictionary(0, true);
  }
  const size_t columnar_bytes = db.MemoryBytes();
  const size_t rowmajor_bytes = RowMajorStringBytes(string_rows);
  const double ratio =
      rowmajor_bytes > 0
          ? static_cast<double>(columnar_bytes) / rowmajor_bytes
          : 0.0;
  std::printf("footprint    rows=%zu columnar+dict=%zuB rowmajor-string=%zuB "
              "ratio=%.3f\n",
              n, columnar_bytes, rowmajor_bytes, ratio);
  if (ratio > 1.0) {
    std::fprintf(stderr,
                 "FAIL footprint: columnar+dictionary (%zuB) exceeds the "
                 "row-major string baseline (%zuB)\n",
                 columnar_bytes, rowmajor_bytes);
    ++failures;
  }

  if (scan_speedup < scan_min) {
    std::fprintf(stderr,
                 "FAIL scan speedup %.2fx below LSENS_COL_SCAN_MIN=%.2f\n",
                 scan_speedup, scan_min);
    ++failures;
  }

  // BENCH_columnar.json: the per-family speedup table plus the footprint
  // entry, for cross-PR trajectory diffs.
  const char* path = std::getenv("LSENS_BENCH_COL_JSON");
  if (path == nullptr) path = "BENCH_columnar.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::fprintf(f, "[\n");
  for (const FamilyResult& fr : results) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"rows\": %zu, \"columnar_ns\": %.1f, "
                 "\"rowmajor_ns\": %.1f, \"speedup\": %.3f},\n",
                 fr.name.c_str(), fr.rows, fr.columnar_ns, fr.rowmajor_ns,
                 fr.speedup);
  }
  std::fprintf(f,
               "  {\"name\": \"footprint\", \"rows\": %zu, "
               "\"columnar_bytes\": %zu, \"rowmajor_bytes\": %zu, "
               "\"ratio\": %.4f}\n",
               n, columnar_bytes, rowmajor_bytes, ratio);
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path, results.size() + 1);

  if (failures > 0) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}
