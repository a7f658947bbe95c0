#ifndef LSENS_EXEC_HASH_GROUP_TABLE_H_
#define LSENS_EXEC_HASH_GROUP_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/counted_relation.h"

namespace lsens {

// Mixes the values of `cols` of one row into a 64-bit key hash.
uint64_t HashRowKey(std::span<const Value> row, std::span<const int> cols);

// Key hashes for every row of `rel` at once: gathers each key column into
// `gather` (one strided pass per column) and folds it over the whole batch
// with HashValuesBatchFold, so the inner loop runs over two contiguous
// arrays. hashes[i] == HashRowKey(rel.Row(i), cols) — the batch and scalar
// forms are interchangeable, which is what lets a build side hash its keys
// in bulk while a single-row probe hashes on the fly.
void HashRowKeysBatch(const CountedRelation& rel, std::span<const int> cols,
                      std::vector<Value>& gather,
                      std::vector<uint64_t>& hashes);

// Flat open-addressing group table over the key columns of a
// CountedRelation: the hash-join build side, semijoin filter, and join-size
// estimator all sit on top of it.
//
// Storage is a power-of-two bucket array (the shared flat-probe scheme
// from exec/flat_row_index.h: linear probing at load factor <= 0.5) and a
// row-index array. A bucket is 16 bytes, four to a cache line: a 32-bit
// tag (the high half of the 64-bit mixed key hash; the low bits pick the
// bucket), the group's representative row, its size and the offset of its
// run. Every tag match is verified against the representative row, so
// collisions can never produce wrong matches. A one-row group is answered
// straight from its bucket — the representative is the group — and only
// groups of two or more rows keep an ascending run in the row-index array.
// So a hit reads one bucket plus the representative row (plus the run for
// a larger group), and a build whose keys are all distinct writes no run
// array at all: every ⊥/⊤ table probed on its link, every key-covering
// join build and JoinWithDefault's build. Both arrays keep their capacity
// across Build() calls, which is why ExecContext owns one as an arena.
//
// The table aliases `rel` (no row data is copied); it is valid only while
// the relation outlives it and is wholly replaced by the next Build(). The
// span a Probe returns points into the table and lives as long as it does.
class FlatGroupTable {
 public:
  FlatGroupTable() = default;

  // Indexes `rel` by the given key columns. Key hashes are computed in one
  // column-batch pass (HashRowKeysBatch) before the bucket insertion loop.
  void Build(const CountedRelation& rel, std::span<const int> key_cols);

  // The run of build-side row indices whose key equals `row`'s values on
  // `probe_cols` (column routing of the probing relation; must have the
  // same arity as the build key), ascending. Empty span when no group
  // matches.
  std::span<const uint32_t> Probe(std::span<const Value> row,
                                  std::span<const int> probe_cols) const;

  // Probe with a precomputed key hash (HashRowKey(row, probe_cols), or the
  // batch equivalent) — join kernels hash a probe side once and reuse the
  // hashes across the estimate and emit passes.
  std::span<const uint32_t> Probe(std::span<const Value> row,
                                  std::span<const int> probe_cols,
                                  uint64_t hash) const;

  size_t num_groups() const { return num_groups_; }

 private:
  struct Slot {
    uint32_t tag = 0;    // HashTag of the group's key hash
    uint32_t rep = 0;    // representative (first) row; the group if size 1
    uint32_t size = 0;   // 0 = empty slot
    uint32_t begin = 0;  // offset of the group's run in rows_ (size >= 2)
  };
  static_assert(sizeof(Slot) == 16);

  static uint32_t HashTag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  std::vector<Slot> slots_;      // bucket array, power-of-two sized
  std::vector<uint32_t> rows_;   // runs of the groups of two or more rows
  std::vector<uint32_t> row_slot_;  // build scratch: row -> slot index
  std::vector<uint64_t> hashes_;    // build scratch: per-row key hashes
  std::vector<Value> gather_;       // build scratch: one key column
  const CountedRelation* rel_ = nullptr;
  std::vector<int> key_cols_;
  uint64_t mask_ = 0;
  size_t num_groups_ = 0;
};

}  // namespace lsens

#endif  // LSENS_EXEC_HASH_GROUP_TABLE_H_
