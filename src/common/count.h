#ifndef LSENS_COMMON_COUNT_H_
#define LSENS_COMMON_COUNT_H_

#include <cstdint>
#include <iosfwd>
#include <string>

namespace lsens {

// Saturating unsigned 128-bit counter.
//
// Tuple sensitivities are products of multiplicities across up to m
// relations; the paper's own Elastic numbers exceed 1e14 at TPC-H scale 0.1
// and adversarial inputs overflow 64 bits easily. All arithmetic saturates
// at Max() instead of wrapping, so comparisons stay meaningful (a saturated
// bound is still a valid upper bound).
class Count {
 public:
  constexpr Count() : v_(0) {}
  constexpr explicit Count(uint64_t v) : v_(v) {}

  static constexpr Count Max() {
    Count c;
    c.v_ = ~static_cast<unsigned __int128>(0);
    return c;
  }
  static constexpr Count Zero() { return Count(); }
  static constexpr Count One() { return Count(1); }

  bool IsZero() const { return v_ == 0; }
  bool IsSaturated() const { return v_ == Max().v_; }

  // Saturating addition / multiplication.
  Count operator+(Count o) const {
    Count r;
    r.v_ = v_ + o.v_;
    if (r.v_ < v_) return Max();  // wrapped
    return r;
  }
  Count operator*(Count o) const {
    Count r;
    if (((v_ | o.v_) >> 64) == 0) {
      // Both operands fit 64 bits: one 64x64 -> 128-bit multiply, which
      // cannot overflow, so no division check.
      r.v_ = static_cast<unsigned __int128>(static_cast<uint64_t>(v_)) *
             static_cast<uint64_t>(o.v_);
      return r;
    }
    if (v_ == 0 || o.v_ == 0) return Zero();
    r.v_ = v_ * o.v_;
    if (r.v_ / v_ != o.v_) return Max();  // wrapped
    return r;
  }
  Count& operator+=(Count o) { return *this = *this + o; }
  Count& operator*=(Count o) { return *this = *this * o; }

  // Saturating subtraction (floors at zero). Used for |Q(D)| - removals.
  Count SaturatingSub(Count o) const {
    Count r;
    r.v_ = (v_ > o.v_) ? v_ - o.v_ : 0;
    return r;
  }

  friend bool operator==(Count a, Count b) { return a.v_ == b.v_; }
  friend bool operator!=(Count a, Count b) { return a.v_ != b.v_; }
  friend bool operator<(Count a, Count b) { return a.v_ < b.v_; }
  friend bool operator<=(Count a, Count b) { return a.v_ <= b.v_; }
  friend bool operator>(Count a, Count b) { return a.v_ > b.v_; }
  friend bool operator>=(Count a, Count b) { return a.v_ >= b.v_; }

  // Lossy conversions for DP noise math and reporting.
  double ToDouble() const;
  // Exact iff the value fits; otherwise returns uint64 max.
  uint64_t ToUint64Saturated() const;
  // Decimal string (exact, arbitrary length), "SAT" suffix when saturated.
  std::string ToString() const;

 private:
  unsigned __int128 v_;
};

std::ostream& operator<<(std::ostream& os, Count c);

// gtest integration.
void PrintTo(Count c, std::ostream* os);

}  // namespace lsens

#endif  // LSENS_COMMON_COUNT_H_
