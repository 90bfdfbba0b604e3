// Checks of the benchmark's percentile helper. Built as the
// perfbench_stats_test target and run by test_run.py; exits non-zero on the
// first failed check.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace invarnetx::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  Check(Percentile({}, 0.5) == 0.0, "empty set has percentile 0");
  Check(Percentile({7.0}, 0.99) == 7.0, "single sample is every percentile");
  const std::vector<double> v = Ramp(100);
  Check(Percentile(v, 0.5) == 50.0, "nearest-rank median of 1..100 is 50");
  Check(Percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  Check(Percentile(v, 1.0) == 100.0, "p100 is the maximum");
  Check(Percentile(v, 0.0) == 1.0, "p0 is the minimum");
}

void TestSupport() {
  Check(SamplesBeyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  Check(SamplesBeyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  Check(!Supported(999, 0.99), "p99 of 999 samples is unsupported");
  Check(Supported(1000, 0.99), "p99 of 1000 samples is supported");
  Check(Supported(200, 0.95), "p95 of 200 samples is supported");
  Check(!Supported(0, 0.5), "no samples support nothing");
}

void TestSummarize() {
  const Summary big = Summarize(Ramp(20000));
  Check(big.count == 20000, "count");
  Check(big.tail_q == 0.999, "20000 samples support p99.9");
  Check(big.tail == 19980.0, "p99.9 of 1..20000");
  const Summary mid = Summarize(Ramp(300));
  Check(mid.tail_q == 0.95, "300 samples support p95 but not p99");
  Check(mid.p50 == 150.0, "median of 1..300");
  const Summary small = Summarize(Ramp(12));
  Check(small.tail_q == 0.5, "12 samples support only the median");
}

void TestNamedPercentileStillReports() {
  // An unsupported named percentile warns but still returns the value.
  Check(NamedPercentile(Ramp(100), 0.99, "test_p99") == 99.0,
        "named percentile value");
}

}  // namespace
}  // namespace invarnetx::perfbench

int main() {
  using namespace invarnetx::perfbench;
  TestPercentile();
  TestSupport();
  TestSummarize();
  TestNamedPercentileStillReports();
  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
