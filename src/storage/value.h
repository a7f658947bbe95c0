#ifndef LSENS_STORAGE_VALUE_H_
#define LSENS_STORAGE_VALUE_H_

#include <cstdint>
#include <span>

#include "common/rng.h"

namespace lsens {

// All attribute values are 64-bit integers. String-valued attributes are
// interned through Dictionary (storage/dictionary.h); keys in the synthetic
// workloads are integers already. This keeps rows flat and joins cheap.
using Value = int64_t;

// Attribute identifier, assigned by AttributeCatalog.
using AttrId = int32_t;

inline constexpr AttrId kInvalidAttr = -1;

// The 64-bit key-hash fold every hash structure in the library shares:
// FlatGroupTable's buckets (HashRowKey) and DynTable's flat indexes. One
// definition keeps them in step; column-subset callers chain HashValueFold
// themselves.
inline constexpr uint64_t kValueHashSeed = 0x9e3779b97f4a7c15ULL;

inline uint64_t HashValueFold(uint64_t h, Value v) {
  return Mix64(h ^ static_cast<uint64_t>(v));
}

// Hash of a packed key row (equals folding the same values column-wise).
inline uint64_t HashValues(std::span<const Value> values) {
  uint64_t h = kValueHashSeed;
  for (Value v : values) h = HashValueFold(h, v);
  return h;
}

// Column-batch form of the same fold, for columnar storage: seed a batch of
// per-row hashes, then fold each key column in order. After seeding and
// folding columns c0..ck, hashes[i] == HashValues({col_c0[i], ...,
// col_ck[i]}) — the batch and scalar forms are pinned equal by
// storage_test, so every flat hash table agrees no matter which form
// produced the hash.
inline void HashValuesBatchSeed(std::span<uint64_t> hashes) {
  for (uint64_t& h : hashes) h = kValueHashSeed;
}

inline void HashValuesBatchFold(std::span<const Value> column,
                                std::span<uint64_t> hashes) {
  for (size_t i = 0; i < hashes.size(); ++i) {
    hashes[i] = HashValueFold(hashes[i], column[i]);
  }
}

}  // namespace lsens

#endif  // LSENS_STORAGE_VALUE_H_
