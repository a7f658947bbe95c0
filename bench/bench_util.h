#ifndef LSENS_BENCH_BENCH_UTIL_H_
#define LSENS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace lsens::bench {

// Comma-separated double list from the environment, with a default.
inline std::vector<double> EnvScales(const char* name,
                                     std::vector<double> fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::vector<double> out;
  std::string s(raw);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stod(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out.empty() ? fallback : out;
}

inline long EnvInt(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::atol(raw);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Prints a header banner mapping the binary to its paper artifact.
inline void Banner(const char* artifact, const char* description) {
  constexpr char kRule[] =
      "==============================================================\n";
  std::printf("%s", kRule);
  std::printf("%s\n%s\n", artifact, description);
  std::printf("%s", kRule);
}

}  // namespace lsens::bench

#endif  // LSENS_BENCH_BENCH_UTIL_H_
