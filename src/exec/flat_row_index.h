#ifndef LSENS_EXEC_FLAT_ROW_INDEX_H_
#define LSENS_EXEC_FLAT_ROW_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace lsens {

// The probing scheme every flat hash structure in exec/ shares: linear
// probing over a power-of-two bucket array at load factor <= 0.5, starting
// at the bucket the low bits of a 64-bit mixed key hash pick, with
// collisions resolved by the caller verifying actual row values (a stored
// hash plus verification can never produce a wrong match).
// FlatGroupTable (the immutable batch-built join index; its 16-byte
// buckets keep a 32-bit tag and answer one-row groups in place, see
// exec/hash_group_table.h) and FlatRowIndex (the mutable index under
// DynTable) both sit on these two primitives, so the layout is tested once
// and tuned once.

// Bucket count for `entries` live entries: next power of two >= 2*entries
// (and at least 8), i.e. load factor <= 0.5.
inline size_t FlatProbeBucketCount(size_t entries) {
  return std::bit_ceil(std::max<size_t>(2 * entries, 8));
}

// Linear probe cursor over a power-of-two bucket array.
struct FlatProbeSeq {
  size_t idx;
  size_t mask;

  FlatProbeSeq(uint64_t hash, size_t mask)
      : idx(static_cast<size_t>(hash) & mask), mask(mask) {}
  void Next() { idx = (idx + 1) & mask; }
};

// Open-addressing hash -> row-id index with tombstones: the mutable
// counterpart of FlatGroupTable's bucket array, built for DynTable's
// primary and secondary indexes. One probe sequence (Locate) resolves
// lookup, insert position, and erase at once; entries are unique per key —
// DynTable's secondary indexes keep one entry per distinct projected key
// and chain that key's rows through intrusive per-row links (duplicate
// hashes stored as separate slots would merge into one long probe cluster,
// the classic linear-probing failure mode for group indexes).
//
// Deletion writes a tombstone (probe chains stay intact); rehashing drops
// every tombstone (compaction) and resizes for the live count only, so a
// table that shrinks also releases probe-chain debris. Stats (probe steps,
// rehashes) are counted only on the mutating paths — const lookups write
// nothing.
class FlatRowIndex {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  FlatRowIndex() = default;

  size_t size() const { return live_; }
  size_t bucket_count() const { return slots_.size(); }
  uint64_t probe_steps() const { return probe_steps_; }
  uint64_t rehashes() const { return rehashes_; }
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

  // Drops the contents but keeps the bucket array allocated.
  void Clear();

  // Grows the bucket array (compacting tombstones) so `entries` live
  // entries fit without a further rehash.
  void Reserve(size_t entries);

  // One probe answering every question at once: the row whose stored hash
  // is `hash` and whose row id passes `eq` (kNoRow when absent), plus the
  // slot an insert of this key would use (first tombstone on the probe
  // path, else the terminating empty slot). `eq(row)` must verify the
  // actual key values, exactly like FlatGroupTable's representative-row
  // check.
  struct Cursor {
    size_t slot = SIZE_MAX;
    uint32_t row = kNoRow;
  };
  template <typename Eq>
  Cursor Locate(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return Cursor{};
    size_t insert_slot = SIZE_MAX;
    FlatProbeSeq seq(hash, slots_.size() - 1);
    for (;;) {
      const Slot& slot = slots_[seq.idx];
      if (slot.row == kEmpty) {
        return Cursor{insert_slot == SIZE_MAX ? seq.idx : insert_slot,
                      kNoRow};
      }
      if (slot.row == kTombstone) {
        if (insert_slot == SIZE_MAX) insert_slot = seq.idx;
      } else if (slot.hash == hash && eq(slot.row)) {
        return Cursor{seq.idx, slot.row};
      }
      seq.Next();
    }
  }

  // Inserts (hash, row) at the vacant cursor a Locate miss returned. May
  // rehash first (growth or tombstone pressure), in which case the slot is
  // re-derived internally — the caller never probes twice.
  void InsertAt(Cursor cur, uint64_t hash, uint32_t row);

  // Tombstones the occupied slot a Locate hit returned.
  void EraseAt(Cursor cur);

  // Rebinds the occupied slot a Locate hit returned to a new row id —
  // group-head rotation in DynTable's secondary indexes, without a second
  // probe.
  void SetRowAt(Cursor cur, uint32_t row) {
    LSENS_CHECK(slots_[cur.slot].row == cur.row && row < kTombstone);
    slots_[cur.slot].row = row;
  }

 private:
  // Row-id sentinels keep the slot at 16 bytes with no separate state
  // byte; DynTable row ids are dense uint32 indices and never reach them.
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr uint32_t kTombstone = UINT32_MAX - 1;

  struct Slot {
    uint64_t hash = 0;
    uint32_t row = kEmpty;
  };

  // True when one more entry would push occupied slots (live + tombstones)
  // past the 0.5 load factor.
  bool NeedsRehash() const {
    return slots_.empty() ||
           2 * (live_ + tombstones_ + 1) > slots_.size();
  }
  // Rebuilds the bucket array sized for `entries` live entries, dropping
  // every tombstone.
  void Rehash(size_t entries);
  // The slot an insert of a known-absent key uses: first tombstone or
  // empty slot on the probe path.
  size_t FindInsertSlot(uint64_t hash);

  std::vector<Slot> slots_;
  size_t live_ = 0;
  size_t tombstones_ = 0;
  uint64_t probe_steps_ = 0;  // mutating paths only (see class comment)
  uint64_t rehashes_ = 0;
};

}  // namespace lsens

#endif  // LSENS_EXEC_FLAT_ROW_INDEX_H_
