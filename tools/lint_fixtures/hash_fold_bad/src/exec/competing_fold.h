// MUST-FIRE fixture for rule hash-fold: three distinct competing-fold
// shapes — a mix magic constant, a direct Mix64 reference, and a
// redefinition of a canonical fold name — all outside storage/value.h.
#ifndef FIXTURE_COMPETING_FOLD_H_
#define FIXTURE_COMPETING_FOLD_H_

#include <cstdint>

namespace fixture {

// A private murmur3-style finalizer: exactly the drift the rule exists to
// stop (this fold would disagree with the flat tables' HashValues).
inline uint64_t LocalFmix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  return x;
}

// Referencing the rng finalizer directly instead of HashValues.
inline uint64_t FoldDirect(uint64_t x) { return Mix64(x ^ 17u); }

// Redefining the shared fold name locally.
inline uint64_t HashValueFold(uint64_t h, int64_t v) {
  return h ^ static_cast<uint64_t>(v);
}

}  // namespace fixture

#endif  // FIXTURE_COMPETING_FOLD_H_
