#include "exec/hash_group_table.h"

#include "exec/flat_row_index.h"

namespace lsens {

uint64_t HashRowKey(std::span<const Value> row, std::span<const int> cols) {
  uint64_t h = kValueHashSeed;
  for (int c : cols) {
    h = HashValueFold(h, row[static_cast<size_t>(c)]);
  }
  return h;
}

void HashRowKeysBatch(const CountedRelation& rel, std::span<const int> cols,
                      std::vector<Value>& gather,
                      std::vector<uint64_t>& hashes) {
  const size_t n = rel.NumRows();
  hashes.resize(n);
  HashValuesBatchSeed(hashes);
  gather.resize(n);
  for (int c : cols) {
    rel.GatherColumn(c, gather);
    HashValuesBatchFold(gather, hashes);
  }
}

namespace {

bool KeysMatch(std::span<const Value> ra, std::span<const int> ca,
               std::span<const Value> rb, std::span<const int> cb) {
  for (size_t i = 0; i < ca.size(); ++i) {
    if (ra[static_cast<size_t>(ca[i])] != rb[static_cast<size_t>(cb[i])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

void FlatGroupTable::Build(const CountedRelation& rel,
                           std::span<const int> key_cols) {
  const size_t n = rel.NumRows();
  LSENS_CHECK_MSG(n < UINT32_MAX, "FlatGroupTable is limited to 2^32-1 rows");
  rel_ = &rel;
  key_cols_.assign(key_cols.begin(), key_cols.end());

  // Shared flat-probe policy (exec/flat_row_index.h): power-of-two bucket
  // array at load factor <= 0.5, linear probing.
  const size_t cap = FlatProbeBucketCount(n);
  mask_ = cap - 1;
  slots_.assign(cap, Slot{});
  row_slot_.resize(n);
  rows_.clear();
  num_groups_ = 0;

  // Key hashes for the whole build side in one column-batch pass; the
  // insertion loop below then touches row data only to verify colliding
  // keys.
  HashRowKeysBatch(rel, key_cols_, gather_, hashes_);

  // Pass 1: count group sizes, linear-probing each row's key. A group's
  // first row (its smallest index) becomes its representative.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes_[i];
    const uint32_t tag = HashTag(h);
    FlatProbeSeq seq(h, mask_);
    for (;;) {
      Slot& slot = slots_[seq.idx];
      if (slot.size == 0) {
        slot.tag = tag;
        slot.rep = static_cast<uint32_t>(i);
        slot.size = 1;
        ++num_groups_;
        break;
      }
      if (slot.tag == tag &&
          KeysMatch(rel.Row(slot.rep), key_cols_, rel.Row(i), key_cols_)) {
        ++slot.size;
        break;
      }
      seq.Next();
    }
    row_slot_[i] = static_cast<uint32_t>(seq.idx);
  }
  // Every key distinct: each group is its bucket's `rep`, no runs.
  if (num_groups_ == n) return;

  // Groups of two or more rows get a contiguous run in rows_. Each begin
  // starts one past its run's end and counts down as a backward scatter
  // fills the run, so the run ascends and begin ends at its first row.
  uint32_t offset = 0;
  for (Slot& slot : slots_) {
    if (slot.size < 2) continue;
    offset += slot.size;
    slot.begin = offset;
  }
  rows_.resize(offset);
  for (size_t i = n; i-- > 0;) {
    Slot& slot = slots_[row_slot_[i]];
    if (slot.size >= 2) rows_[--slot.begin] = static_cast<uint32_t>(i);
  }
}

std::span<const uint32_t> FlatGroupTable::Probe(
    std::span<const Value> row, std::span<const int> probe_cols) const {
  return Probe(row, probe_cols, HashRowKey(row, probe_cols));
}

std::span<const uint32_t> FlatGroupTable::Probe(std::span<const Value> row,
                                                std::span<const int> probe_cols,
                                                uint64_t hash) const {
  const uint32_t tag = HashTag(hash);
  FlatProbeSeq seq(hash, mask_);
  for (;;) {
    const Slot& slot = slots_[seq.idx];
    if (slot.size == 0) return {};
    if (slot.tag == tag &&
        KeysMatch(rel_->Row(slot.rep), key_cols_, row, probe_cols)) {
      if (slot.size == 1) return {&slot.rep, 1};
      return {rows_.data() + slot.begin, slot.size};
    }
    seq.Next();
  }
}

}  // namespace lsens
