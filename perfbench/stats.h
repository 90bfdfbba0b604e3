#ifndef INVARNETX_PERFBENCH_STATS_H_
#define INVARNETX_PERFBENCH_STATS_H_

// Percentile helper of the benchmark. A timing is reported as its median
// plus the highest percentile that still has at least kMinBeyond samples
// above it; a named percentile (tick p99, verdict p95) that lacks that
// support is flagged so nobody reads a tail made of two samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace invarnetx::perfbench {

inline constexpr size_t kMinBeyond = 10;

// 1-based nearest rank of the q-th percentile of n samples (0 when n = 0);
// the epsilon keeps q * n from rounding up past an exact rank.
inline size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? (n > 0 ? 1 : 0) : std::min(static_cast<size_t>(rank), n);
}

// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty set.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), q) - 1];
}

// Samples strictly above the nearest-rank q-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - NearestRank(n, q);
}

// True when the q-th percentile of n samples has >= kMinBeyond above it.
inline bool Supported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;    // value at tail_q
  double tail_q = 0.0;  // highest supported of 0.999/0.99/0.95/0.9/0.75/0.5
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  s.p50 = Percentile(values, 0.5);
  s.tail_q = 0.5;
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (Supported(values.size(), q)) {
      s.tail_q = q;
      break;
    }
  }
  s.tail = Percentile(values, s.tail_q);
  return s;
}

// The named percentile `q` of `values`; warns on stderr when it has fewer
// than kMinBeyond samples above it.
inline double NamedPercentile(const std::vector<double>& values, double q,
                              const std::string& name) {
  if (!Supported(values.size(), q)) {
    std::fprintf(stderr,
                 "WARNING: %s has %zu samples beyond it (n=%zu, want >= %zu)"
                 "\n",
                 name.c_str(), SamplesBeyond(values.size(), q), values.size(),
                 kMinBeyond);
  }
  return Percentile(values, q);
}

}  // namespace invarnetx::perfbench

#endif  // INVARNETX_PERFBENCH_STATS_H_
