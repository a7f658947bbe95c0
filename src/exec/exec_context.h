#ifndef LSENS_EXEC_EXEC_CONTEXT_H_
#define LSENS_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"
#include "exec/hash_group_table.h"
#include "exec/row_sort.h"
#include "storage/value.h"

namespace lsens {

class ExecContextPool;

// Aggregate counters for one operator kind ("join.hash", "normalize", ...).
// Wall times of nested operators overlap: a fold_join's time includes the
// joins it runs, which are also reported under "join.*".
struct OperatorStats {
  std::string name;
  uint64_t calls = 0;
  uint64_t rows_in = 0;     // Σ explicit input rows over all calls
  uint64_t rows_out = 0;    // Σ output rows over all calls
  uint64_t build_rows = 0;  // Σ hash-build-side rows (join/semijoin only)
  double wall_seconds = 0.0;
};

// Execution state threaded through the exec and sensitivity layers: owns
// the reusable arenas (sort permutations, packed sort keys, row and hash
// scratch, the flat hash group table) so hot operators allocate O(1) times
// per context instead of per invocation, collects per-operator stats, and
// carries execution knobs.
//
// Ownership rule under parallel execution:
//   - A context is single-threaded state: one owner thread at a time,
//     never shared across concurrently running threads.
//   - Callers pass a context through JoinOptions::ctx (and thus
//     TSensOptions::join.ctx). Operators that receive none fall back to a
//     thread-local default so arena reuse still happens — but ONLY on
//     non-pool threads. On a pooled worker the fallback is a hidden trap
//     (stats silently vanish into a per-thread context nobody merges, and
//     a future reuse of that worker for a different caller would mix
//     arenas), so DefaultExecContext() asserts (debug builds) that it is
//     never reached from a ThreadPool worker. Code that runs inside a
//     parallel region must use the worker context ParallelApply hands it.
//   - The primary context owns a lazily created ExecContextPool of worker
//     contexts (one per global-pool worker). ParallelApply hands task
//     blocks their worker's context and afterwards merges the workers'
//     stats back into the primary, deterministically, so a parallel run
//     reports the same per-operator calls/rows as the serial run.
class ExecContext {
 public:
  ExecContext() = default;
  ~ExecContext();
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // --- Knobs -------------------------------------------------------------
  // When false, Record() is a no-op (arenas still reused).
  bool collect_stats = true;

  // --- Arenas ------------------------------------------------------------
  // Distinct slots so concurrently-live uses inside one operator never
  // alias (e.g. sort-merge join holds both side permutations while a
  // Normalize uses its own).
  //
  // Row permutations: the sort-merge join's two sides, and the sorted
  // order of Normalize, the group-bys and RowsUniqueOn.
  std::vector<uint32_t>& perm_a() { return perm_a_; }
  std::vector<uint32_t>& perm_b() { return perm_b_; }
  std::vector<uint32_t>& norm_perm() { return norm_perm_; }
  // A join's output row under construction; a column-position list.
  std::vector<Value>& row_buf() { return row_buf_; }
  std::vector<int>& col_buf() { return col_buf_; }
  // SortRowsBy's packed keys and their radix ping-pong buffer.
  std::vector<SortKey64>& sort_keys64() { return sort_keys64_; }
  std::vector<SortKey64>& sort_keys64_tmp() { return sort_keys64_tmp_; }
  // ScanAtom's packed row keys and their radix ping-pong buffer, and its
  // selected row indices.
  std::vector<uint64_t>& packed_keys() { return packed_keys_; }
  std::vector<uint64_t>& packed_keys_tmp() { return packed_keys_tmp_; }
  std::vector<uint32_t>& sel_buf() { return sel_buf_; }
  // The hash join's key hashes, gathered key column and group table.
  std::vector<uint64_t>& hash_buf() { return hash_buf_; }
  std::vector<Value>& gather_buf() { return gather_buf_; }
  FlatGroupTable& group_table() { return group_table_; }

  // --- Stats -------------------------------------------------------------
  void Record(std::string_view op, uint64_t rows_in, uint64_t rows_out,
              uint64_t build_rows, double wall_seconds);
  // Folds another context's totals for one operator into this context
  // (find-or-append by name, all fields summed).
  void MergeStats(const OperatorStats& other);
  const std::vector<OperatorStats>& stats() const { return stats_; }
  bool has_stats() const { return !stats_.empty(); }
  void ResetStats() { stats_.clear(); }
  // Stats for one operator, or nullptr if it never ran.
  const OperatorStats* FindStats(std::string_view op) const;

  // --- Parallel workers --------------------------------------------------
  // True for contexts created by an ExecContextPool (i.e. handed to tasks
  // running on pool worker threads).
  bool is_pool_worker() const { return is_pool_worker_; }
  // The lazily created pool of worker contexts parallel regions draw from.
  // Owned by this (primary) context so worker arenas are reused across
  // parallel regions exactly like the primary's arenas are across calls.
  ExecContextPool& worker_contexts();

 private:
  friend class ExecContextPool;

  std::vector<uint32_t> perm_a_;
  std::vector<uint32_t> perm_b_;
  std::vector<uint32_t> norm_perm_;
  std::vector<Value> row_buf_;
  std::vector<int> col_buf_;
  std::vector<SortKey64> sort_keys64_;
  std::vector<SortKey64> sort_keys64_tmp_;
  std::vector<uint64_t> packed_keys_;
  std::vector<uint64_t> packed_keys_tmp_;
  std::vector<uint32_t> sel_buf_;
  std::vector<uint64_t> hash_buf_;
  std::vector<Value> gather_buf_;
  FlatGroupTable group_table_;
  std::vector<OperatorStats> stats_;  // small: one entry per operator kind
  bool is_pool_worker_ = false;
  std::unique_ptr<ExecContextPool> workers_;
};

// A set of per-worker ExecContexts for one parallel region owner. Context i
// belongs exclusively to global-pool worker i while a region is running;
// between regions the owning (primary) context's thread may touch them
// (merging stats, tests). Contexts are never shared across workers — each
// holds its own arenas — and persist across regions for arena reuse.
class ExecContextPool {
 public:
  ExecContextPool() = default;
  ExecContextPool(const ExecContextPool&) = delete;
  ExecContextPool& operator=(const ExecContextPool&) = delete;

  // Grows the pool to at least `n` contexts (never shrinks), each marked
  // as a pool worker and carrying `collect_stats`.
  void Ensure(size_t n, bool collect_stats);

  size_t size() const { return contexts_.size(); }
  ExecContext& context(size_t i) { return *contexts_[i]; }

  // Folds every worker's stats into `into` and clears the workers'.
  // Deterministic: operator names are merged in sorted order, workers in
  // index order, so the integer fields of the merged profile are
  // bit-identical run to run (and equal to a serial run's — wall times,
  // being wall times, are not).
  void MergeStatsInto(ExecContext& into);

 private:
  std::vector<std::unique_ptr<ExecContext>> contexts_;
};

// The thread-local fallback context used when callers pass none. Asserts
// (debug builds) that it is not reached from a ThreadPool worker — see the
// ownership rule on ExecContext.
ExecContext& DefaultExecContext();

// `ctx` if non-null, the thread-local default otherwise.
inline ExecContext& ResolveExecContext(ExecContext* ctx) {
  return ctx != nullptr ? *ctx : DefaultExecContext();
}

// True when a parallel region of `threads`-way parallelism over `n` tasks
// is worth entering at all: threads > 1, more than one task, and the
// caller is not itself a pooled worker (regions never nest).
bool ShouldRunParallel(int threads, size_t n);

// Runs fn(task_index, worker_context) for every task in [0, n), fanning
// the tasks out over the global thread pool in min(threads, n) contiguous
// blocks. Falls back to running every task inline on `primary`, in order,
// when ShouldRunParallel(threads, n) is false — so the serial path is
// byte-for-byte today's behavior, stats included.
//
// Parallel determinism contract for callers: fn must write its results
// into per-task slots (never shared accumulators), because block-to-worker
// assignment is scheduling-dependent. Stats recorded on worker contexts
// are merged back into `primary` before this returns. Exceptions thrown by
// tasks propagate (first one wins).
void ParallelApply(ExecContext& primary, int threads, size_t n,
                   const std::function<void(size_t, ExecContext&)>& fn);

// RAII stats scope: times its lifetime and records one call on the
// resolved context at destruction.
class OpTimer {
 public:
  OpTimer(ExecContext& ctx, std::string_view op, uint64_t rows_in)
      : ctx_(ctx), op_(op), rows_in_(rows_in) {}
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;
  ~OpTimer() {
    ctx_.Record(op_, rows_in_, rows_out_, build_rows_,
                timer_.ElapsedSeconds());
  }

  // For an operator that learns its input size only after it starts.
  void set_rows_in(uint64_t n) { rows_in_ = n; }
  void set_rows_out(uint64_t n) { rows_out_ = n; }
  void set_build_rows(uint64_t n) { build_rows_ = n; }

 private:
  ExecContext& ctx_;
  std::string_view op_;
  uint64_t rows_in_;
  uint64_t rows_out_ = 0;
  uint64_t build_rows_ = 0;
  WallTimer timer_;
};

}  // namespace lsens

#endif  // LSENS_EXEC_EXEC_CONTEXT_H_
