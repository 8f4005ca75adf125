// bench_e2e_stats_test: exact nearest-rank percentiles on known
// distributions.  Exit code 0 = all checks passed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "percentiles.h"
#include "util/rng.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
}

void ExpectEq(const char* what, double got, double want) {
  Expect(got == want, what, got, want);
}

}  // namespace

int main() {
  using rdfc::e2e::Samples;

  // 1..100 in shuffled order: the p-th percentile is exactly p.
  {
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i) values.push_back(i);
    rdfc::util::Rng rng(7);
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      std::swap(values[i], values[rng.Uniform(0, i)]);
    }
    Samples s;
    for (double v : values) s.Add(v);
    ExpectEq("1..100 p0", s.Percentile(0), 1);
    ExpectEq("1..100 p1", s.Percentile(1), 1);
    ExpectEq("1..100 p50", s.Percentile(50), 50);
    ExpectEq("1..100 p99", s.Percentile(99), 99);
    ExpectEq("1..100 p99.5", s.Percentile(99.5), 100);
    ExpectEq("1..100 p100", s.Percentile(100), 100);
    ExpectEq("1..100 mean", s.Mean(), 50.5);
  }

  // 1000 samples: p99.9 is the 999th smallest, not the maximum (binary
  // rounding of 99.9 must not push the rank up).
  {
    Samples s;
    for (int i = 1000; i >= 1; --i) s.Add(i * 0.5);
    ExpectEq("1000 p99.9", s.Percentile(99.9), 499.5);
    ExpectEq("1000 p99", s.Percentile(99), 495.0);
    ExpectEq("1000 p50", s.Percentile(50), 250.0);
  }

  // Odd count: the median is the middle sample, never an interpolation.
  {
    Samples s;
    for (double v : {5.0, 1.0, 3.0}) s.Add(v);
    ExpectEq("3 p50", s.Percentile(50), 3.0);
    ExpectEq("3 p34", s.Percentile(34), 3.0);
    ExpectEq("3 p33", s.Percentile(33), 1.0);
  }

  // A bimodal latency distribution: 990 fast, 10 slow.  p99 is the last
  // fast sample, p99.1 the first slow one — a bucketed histogram would blur
  // both into one bucket.
  {
    Samples s;
    for (int i = 0; i < 990; ++i) s.Add(1.0 + i * 1e-3);
    for (int i = 0; i < 10; ++i) s.Add(300.0 + i);
    ExpectEq("bimodal p99", s.Percentile(99), 1.0 + 989 * 1e-3);
    ExpectEq("bimodal p99.1", s.Percentile(99.1), 300.0);
    ExpectEq("bimodal p100", s.Percentile(100), 309.0);
  }

  // Adding after a percentile query re-sorts; AddAll merges.
  {
    Samples s;
    s.Add(10);
    ExpectEq("single p50", s.Percentile(50), 10);
    s.Add(1);
    ExpectEq("re-sorted p50", s.Percentile(50), 1);
    Samples t;
    t.Add(100);
    t.AddAll(s);
    ExpectEq("append p100", t.Percentile(100), 100);
    ExpectEq("append count", static_cast<double>(t.count()), 3);
  }

  // Empty: NaN, never a made-up zero.
  {
    Samples s;
    Expect(std::isnan(s.Percentile(50)), "empty p50 is NaN", s.Percentile(50), NAN);
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d checks failed\n", failures);
    return 1;
  }
  std::printf("bench_e2e_stats_test: all checks passed\n");
  return 0;
}
