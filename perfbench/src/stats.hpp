#pragma once
/// \file stats.hpp
/// Sample statistics for the in-run figures: medians and nearest-rank
/// percentiles with the tail rule (a percentile is reported only when at
/// least kMinBeyond samples lie beyond it).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Median; the mean of the two middle values for an even count (as
/// Python's statistics.median). NaN for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly after the percentile's rank
  bool reportable = false;  ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile \p pct (1..99) of \p v: the sample at rank
/// ceil(pct n / 100), with n minus that rank samples beyond it. Integer
/// rank arithmetic, so p99 of 1000 samples is exactly rank 990.
inline Percentile percentile(std::vector<double> v, std::size_t pct) {
  Percentile out;
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank =
      std::clamp<std::size_t>((n * pct + 99) / 100, 1, n);
  out.value = v[rank - 1];
  out.beyond = n - rank;
  out.reportable = out.beyond >= kMinBeyond;
  return out;
}

}  // namespace perfbench
