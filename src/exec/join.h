#ifndef LSENS_EXEC_JOIN_H_
#define LSENS_EXEC_JOIN_H_

#include "exec/counted_relation.h"

namespace lsens {

class ExecContext;

// Natural-join algorithm selection. kAuto decides from key order alone:
// when both sides are already ordered on the join key (RowsSortedBy —
// true of a sorted relation whose key leads its attribute order) it runs
// the sort-merge kernel, a single linear merge with no sort and no table
// build; otherwise it runs the hash kernel. No output-size estimate is
// taken for the decision. kHash / kSortMerge force one kernel; both
// produce the same rows and counts, possibly in different orders (the
// paper describes its algorithms with sort-merge joins, so that kernel is
// also the cross-check oracle).
enum class JoinAlgorithm { kAuto, kHash, kSortMerge };

struct JoinOptions {
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  // Execution context supplying scratch arenas and collecting operator
  // stats. Null = the thread-local default context.
  ExecContext* ctx = nullptr;
  // Maximum parallelism for the partitioned probe of large hash joins
  // (and for the parallel regions of the sensitivity engine, which reads
  // this knob through TSensOptions::join). 0 or 1 = fully serial, today's
  // behavior. Results are bit-identical at every setting; see the
  // "Threading model" section of the README.
  int threads = 0;
};

// `base` with the context swapped for a pooled worker's and parallelism
// disabled — the options every operator invoked *inside* a parallel region
// must run with (regions never nest; see common/thread_pool.h).
inline JoinOptions WorkerJoinOptions(const JoinOptions& base,
                                     ExecContext& worker_ctx) {
  JoinOptions o = base;
  o.ctx = &worker_ctx;
  o.threads = 0;
  return o;
}

// The paper's r⋈ operator: natural join on the shared attributes with
// multiplicity (cnt) propagation by product. Output attributes are the
// sorted union; an empty intersection yields a cross product.
//
// Both inputs must be unique() (CHECKed). The output is unique() too; its
// row order is unspecified but deterministic — a function of the inputs'
// row orders, the kernel, and nothing else (thread count included) — and
// sorted() is set when the rows happen to come out ordered. Sort it
// (Normalize) before reading order.
//
// Defaulted (top-k truncated) inputs: at most one side may carry a
// default_count, and that side's attributes must be covered by the other
// side's (so unmatched rows of the covering side pick up the default
// multiplier and no unbounded row set needs materializing). Violations
// CHECK-fail; callers arrange join orders accordingly.
CountedRelation NaturalJoin(const CountedRelation& a, const CountedRelation& b,
                            const JoinOptions& options = {});

// γ_group(a ⋈ b) — GroupBySum(NaturalJoin(a, b, options), group), bit for
// bit — without building a ⋈ b. The join runs the kernel NaturalJoin would
// pick (the kAuto rule, the forced algorithms, the partitioned probe at
// threads > 1), but each matching pair only packs its group values into a
// 64-bit key (PackedKeyLayout; a group column is read from `a` when `a` has
// it, else from `b`, and packs over that side's value range) next to its
// product count, summed into the previous pair's when their keys agree.
// The keys are then sorted (SortPackedKeys; nothing to do when they arrive
// in order) and each run of equal keys becomes one output row carrying the
// run's summed count. The output is sorted().
//
// Two cases build the join and group it instead: a defaulted (top-k) side,
// whose unmatched rows take the covering join's default, and a group whose
// value ranges need more than 64 bits together.
//
// Stats are recorded under the operators the two-step form records: the
// join kernel ("join.hash", "join.sort_merge" or "join.cross", rows_out =
// the matches), then "group_by_sum" (rows_in = the matches) — except for
// an empty group, the join's total, which records the join alone. `group`
// must be a subset of the union of the inputs' attributes, which must be
// unique() (CHECKed).
CountedRelation JoinGroupBySum(const CountedRelation& a,
                               const CountedRelation& b,
                               const AttributeSet& group,
                               const JoinOptions& options = {});

// Exact number of result rows NaturalJoin(a, b) would produce, computed in
// O(|a| + |b|) with a flat hash-group table on the smaller side (key
// verification included, so the count is exact even under hash
// collisions). Recorded as "estimate_join_rows"; FoldJoin's greedy
// join-order heuristic is its only engine caller, in contests that key
// bounds do not settle. (The hash kernels take
// the same exact count inside their own "join.hash" timer to size their
// output, unless the key covers every build attribute: then each probe row
// matches at most once and the probe side's size is the bound.)
// `threads` > 1 chunk-sums large probe sides on the global pool (the count
// is unchanged).
size_t EstimateJoinRows(const CountedRelation& a, const CountedRelation& b,
                        ExecContext* ctx = nullptr, int threads = 0);

}  // namespace lsens

#endif  // LSENS_EXEC_JOIN_H_
