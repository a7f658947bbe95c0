#include "exec/counted_relation.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "exec/exec_context.h"
#include "exec/row_sort.h"

namespace lsens {

namespace {

// The merge step shared by Normalize and GroupBySum: for every run of
// `perm` (rows of `in` sorted by `cols`) equal on `cols`, appends the run's
// `cols` values to `data` and its summed count to `counts`. Runs summing
// to zero are dropped: stored counts are never zero.
void AppendSummedRuns(const CountedRelation& in, std::span<const int> cols,
                      std::span<const uint32_t> perm, std::vector<Value>& data,
                      std::vector<Count>& counts) {
  ForEachSortedGroup(in, cols, perm, [&](size_t begin, size_t end) {
    Count total = Count::Zero();
    for (size_t i = begin; i < end; ++i) total += in.CountAt(perm[i]);
    if (total.IsZero()) return;
    std::span<const Value> row = in.Row(perm[begin]);
    for (int c : cols) data.push_back(row[static_cast<size_t>(c)]);
    counts.push_back(total);
  });
}

}  // namespace

int CompareRows(std::span<const Value> a, std::span<const Value> b) {
  LSENS_CHECK(a.size() == b.size());
  return CompareRowsUnchecked(a, b);
}

CountedRelation::CountedRelation(AttributeSet attrs)
    : attrs_(std::move(attrs)) {
  LSENS_CHECK_MSG(IsValidAttributeSet(attrs_),
                  "CountedRelation attrs must be sorted and unique");
}

CountedRelation CountedRelation::Unit() {
  CountedRelation unit{AttributeSet{}};
  unit.counts_.push_back(Count::One());
  return unit;
}

void CountedRelation::AppendRow(std::span<const Value> row, Count count) {
  LSENS_CHECK(row.size() == arity());
  data_.insert(data_.end(), row.begin(), row.end());
  counts_.push_back(count);
  unique_ = sorted_ = false;
}

CountedRelation::RawRows CountedRelation::AppendRowsRaw(size_t n,
                                                        Count count) {
  const size_t old_values = data_.size();
  const size_t old_rows = counts_.size();
  data_.resize(old_values + n * arity());
  counts_.resize(old_rows + n, count);
  unique_ = sorted_ = false;
  return {{data_.data() + old_values, n * arity()},
          {counts_.data() + old_rows, n}};
}

void CountedRelation::GatherColumn(int col, std::span<Value> out) const {
  LSENS_CHECK(out.size() == NumRows());
  const size_t k = arity();
  const Value* src = data_.data() + static_cast<size_t>(col);
  for (size_t i = 0; i < out.size(); ++i) out[i] = src[i * k];
}

void CountedRelation::AppendRows(const CountedRelation& other) {
  LSENS_CHECK_MSG(other.attrs_ == attrs_,
                  "AppendRows requires identical attribute sets");
  // A default is a statement about the *absent* rows; concatenation cannot
  // preserve either side's, so refuse rather than silently miscount.
  LSENS_CHECK_MSG(!has_default() && !other.has_default(),
                  "AppendRows cannot concatenate defaulted (top-k) relations");
  if (other.counts_.empty()) return;
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  counts_.insert(counts_.end(), other.counts_.begin(), other.counts_.end());
  unique_ = sorted_ = false;
}

void CountedRelation::MarkUnique() {
  unique_ = true;
  sorted_ = true;
  for (size_t i = 1; i < NumRows() && sorted_; ++i) {
    sorted_ = CompareRowsUnchecked(Row(i - 1), Row(i)) < 0;
  }
}

void CountedRelation::Normalize(ExecContext* ctx_in) {
  const size_t n = NumRows();
  const size_t k = arity();
  if (sorted_ || n == 0) {
    unique_ = sorted_ = true;
    return;
  }
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "normalize", n);

  std::vector<int>& cols = ctx.col_buf();
  cols.resize(k);
  std::iota(cols.begin(), cols.end(), 0);

  std::vector<uint32_t>& perm = ctx.norm_perm();
  if (SortRowsBy(*this, cols, perm, ctx)) {
    // Already sorted: one verification pass; strictly increasing rows with
    // non-zero counts need no rebuild at all.
    bool clean = true;
    for (size_t i = 0; i < n && clean; ++i) {
      clean = !counts_[i].IsZero() &&
              (i == 0 || CompareRowsAt(Row(i - 1), Row(i), cols) != 0);
    }
    if (clean) {
      unique_ = sorted_ = true;
      op.set_rows_out(n);
      return;
    }
  }

  std::vector<Value> data;
  std::vector<Count> counts;
  data.reserve(data_.size());
  counts.reserve(n);
  AppendSummedRuns(*this, cols, perm, data, counts);
  data_ = std::move(data);
  counts_ = std::move(counts);
  unique_ = sorted_ = true;
  op.set_rows_out(NumRows());
}

Count CountedRelation::TotalCount() const {
  LSENS_CHECK_MSG(!has_default(),
                  "TotalCount undefined for a defaulted (top-k) relation");
  Count total;
  for (Count c : counts_) total += c;
  return total;
}

Count CountedRelation::MaxCount() const {
  Count max = default_count_;
  for (Count c : counts_) max = std::max(max, c);
  return max;
}

size_t CountedRelation::ArgMaxRow() const {
  Count best = Count::Zero();
  size_t arg = SIZE_MAX;
  for (size_t i = 0; i < counts_.size(); ++i) {
    // Over sorted rows the first row attaining the max is the smallest; in
    // any other order a tie compares rows.
    if (counts_[i] > best ||
        (!sorted_ && arg != SIZE_MAX && counts_[i] == best &&
         CompareRowsUnchecked(Row(i), Row(arg)) < 0)) {
      best = counts_[i];
      arg = i;
    }
  }
  if (arg != SIZE_MAX && default_count_ > best) return SIZE_MAX;
  return arg;
}

Count CountedRelation::Lookup(std::span<const Value> row) const {
  const size_t i = FindRow(row);
  return i == SIZE_MAX ? default_count_ : counts_[i];
}

size_t CountedRelation::FindRow(std::span<const Value> row) const {
  LSENS_CHECK_MSG(sorted_, "FindRow requires a sorted relation");
  LSENS_CHECK(row.size() == arity());
  // The arity check above covers every probe of the search: Row(mid) is
  // arity-sized by construction, so the loop compares unchecked instead of
  // re-asserting sizes O(log n) times — this is the hot path of the
  // per-tuple sensitivity scan.
  size_t lo = 0;
  size_t hi = NumRows();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    int cmp = CompareRowsUnchecked(Row(mid), row);
    if (cmp == 0) return mid;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return SIZE_MAX;
}

void CountedRelation::TruncateTopK(size_t k, ExecContext* ctx_in) {
  LSENS_CHECK(k > 0);
  if (NumRows() <= k) return;
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "truncate.top_k", NumRows());
  // Order row indices by count descending (ties by row order for
  // determinism), keep the first k, remember the k-th count as default.
  std::vector<uint32_t> perm(NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return counts_[b] < counts_[a];
  });
  Count kth = counts_[perm[k - 1]];
  std::vector<Value> new_data;
  new_data.reserve(k * arity());
  std::vector<Count> new_counts;
  new_counts.reserve(k);
  perm.resize(k);
  std::sort(perm.begin(), perm.end());  // preserve row order, then renorm
  for (uint32_t idx : perm) {
    std::span<const Value> row = Row(idx);
    new_data.insert(new_data.end(), row.begin(), row.end());
    new_counts.push_back(counts_[idx]);
  }
  data_ = std::move(new_data);
  counts_ = std::move(new_counts);
  default_count_ = std::max(default_count_, kth);
  // A subset in the original order keeps unique() and sorted(); duplicate
  // rows of a raw relation still need merging.
  if (!unique_) Normalize(&ctx);
  op.set_rows_out(NumRows());
}

void CountedRelation::Filter(
    const std::function<bool(std::span<const Value>)>& keep) {
  std::vector<Value> new_data;
  std::vector<Count> new_counts;
  new_counts.reserve(counts_.size());
  for (size_t i = 0; i < NumRows(); ++i) {
    std::span<const Value> row = Row(i);
    if (!keep(row)) continue;
    new_data.insert(new_data.end(), row.begin(), row.end());
    new_counts.push_back(counts_[i]);
  }
  data_ = std::move(new_data);
  counts_ = std::move(new_counts);
}

int CountedRelation::ColumnOf(AttrId attr) const {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), attr);
  if (it == attrs_.end() || *it != attr) return -1;
  return static_cast<int>(it - attrs_.begin());
}

CountedRelation GroupBySum(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           ExecContext* ctx_in) {
  LSENS_CHECK_MSG(!in.has_default(),
                  "GroupBySum undefined for a defaulted (top-k) relation");
  LSENS_CHECK(IsSubset(group_attrs, in.attrs()));
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "group_by_sum", in.NumRows());
  if (in.sorted() && group_attrs.size() == in.arity()) {
    // γ onto every attribute of sorted rows: each row is its own group,
    // already in order.
    op.set_rows_out(in.NumRows());
    return in;
  }

  CountedRelation out(group_attrs);
  if (in.NumRows() == 0) return out;
  if (group_attrs.empty()) {
    // γ over nothing: a single arity-0 row carrying the total (dropped when
    // zero: stored counts are never zero).
    const Count total = in.TotalCount();
    if (!total.IsZero()) out.counts_.push_back(total);
    op.set_rows_out(out.NumRows());
    return out;
  }

  std::vector<int> cols;
  cols.reserve(group_attrs.size());
  for (AttrId a : group_attrs) cols.push_back(in.ColumnOf(a));

  // One sorted permutation over the input (a sort is skipped when the rows
  // are already ordered on the group columns), groups merged in order as
  // Normalize merges its rows — the output is sorted by construction.
  std::vector<uint32_t>& perm = ctx.norm_perm();
  SortRowsBy(in, cols, perm, ctx);
  AppendSummedRuns(in, cols, perm, out.data_, out.counts_);
  op.set_rows_out(out.NumRows());
  return out;
}

CountedRelation GroupByMax(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           std::vector<uint32_t>* arg_rows,
                           ExecContext* ctx_in) {
  LSENS_CHECK_MSG(!in.has_default(),
                  "GroupByMax undefined for a defaulted (top-k) relation");
  LSENS_CHECK(IsSubset(group_attrs, in.attrs()));
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "group_by_max", in.NumRows());

  std::vector<int> cols;
  cols.reserve(group_attrs.size());
  for (AttrId a : group_attrs) cols.push_back(in.ColumnOf(a));

  // Within a group the winner is the row with the largest count, ties to
  // the lexicographically smallest row (over a sorted input the stable sort
  // keeps a group's rows in row order, so the first attaining row already
  // is). Zero-count rows never win: a group whose rows all count zero is
  // dropped.
  CountedRelation out(group_attrs);
  arg_rows->clear();
  std::vector<uint32_t>& perm = ctx.norm_perm();
  SortRowsBy(in, cols, perm, ctx);
  ForEachSortedGroup(in, cols, perm, [&](size_t begin, size_t end) {
    uint32_t best = perm[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      const Count c = in.counts_[perm[i]];
      if (c > in.counts_[best] ||
          (!in.sorted_ && c == in.counts_[best] &&
           CompareRowsUnchecked(in.Row(perm[i]), in.Row(best)) < 0)) {
        best = perm[i];
      }
    }
    if (in.counts_[best].IsZero()) return;
    std::span<const Value> row = in.Row(best);
    for (int c : cols) out.data_.push_back(row[static_cast<size_t>(c)]);
    out.counts_.push_back(in.counts_[best]);
    arg_rows->push_back(best);
  });
  op.set_rows_out(out.NumRows());
  return out;
}

}  // namespace lsens
