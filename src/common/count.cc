#include "common/count.h"

#include <algorithm>
#include <limits>
#include <ostream>

namespace lsens {

double Count::ToDouble() const {
  // __int128 -> double is exact up to 2^53 and correctly rounded beyond.
  return static_cast<double>(v_);
}

uint64_t Count::ToUint64Saturated() const {
  if (v_ > std::numeric_limits<uint64_t>::max()) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(v_);
}

std::string Count::ToString() const {
  if (IsSaturated()) return "SAT";
  if (v_ == 0) return "0";
  std::string digits;
  auto v = v_;
  while (v > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::ostream& operator<<(std::ostream& os, Count c) {
  return os << c.ToString();
}

void PrintTo(Count c, std::ostream* os) { *os << c.ToString(); }

}  // namespace lsens
