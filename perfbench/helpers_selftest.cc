// Self-tests of the benchmark's own helpers (bench_helpers.h). Exits 0
// when every check holds, 1 otherwise. perfbench/run.py runs it before
// every measurement, so a broken helper can never produce a result.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_helpers.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "helpers_selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentile() {
  using perfbench::SelectPercentile;
  // 1..100 shuffled: nearest rank ceil(q n).
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const auto p50 = SelectPercentile(xs, 0.50);
  CHECK(p50.value == 50.0);
  CHECK(p50.beyond == 50);
  CHECK(p50.supported);
  const auto p90 = SelectPercentile(xs, 0.90);
  CHECK(p90.value == 90.0);
  CHECK(p90.beyond == 10);
  CHECK(p90.supported);  // exactly ten beyond: still reported
  const auto p99 = SelectPercentile(xs, 0.99);
  CHECK(p99.value == 99.0);
  CHECK(p99.beyond == 1);
  CHECK(!p99.supported);  // one sample beyond: refused
  // 1000 samples support p99 (ten beyond), 999 do not.
  std::vector<double> big(1000);
  for (int i = 0; i < 1000; ++i) big[i] = i;
  CHECK(SelectPercentile(big, 0.99).supported);
  CHECK(SelectPercentile(big, 0.99).value == 989.0);
  big.pop_back();
  CHECK(!SelectPercentile(big, 0.99).supported);
  // Degenerate inputs.
  CHECK(!SelectPercentile({}, 0.5).supported);
  CHECK(SelectPercentile({7.0}, 0.5).value == 7.0);
  CHECK(SelectPercentile({1.0, 2.0}, 1.0).value == 2.0);
  CHECK(perfbench::Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void TestZipf() {
  const perfbench::ZipfSampler zipf(64, 1.1);
  // Probabilities follow 1/(r+1)^1.1 and sum to one.
  double total = 0.0;
  for (size_t r = 0; r < 64; ++r) total += zipf.Probability(r);
  CHECK(Near(total, 1.0, 1e-12));
  CHECK(Near(zipf.Probability(1) / zipf.Probability(0), std::pow(2.0, -1.1),
             1e-12));
  CHECK(Near(zipf.Probability(9) / zipf.Probability(4),
             std::pow(10.0 / 5.0, -1.1), 1e-12));
  // Edges of the unit interval map to the first and last ranks.
  CHECK(zipf.Sample(0.0) == 0);
  CHECK(zipf.Sample(0.999999999999) == 63);
  // Empirical frequencies match within sampling error (200k draws).
  perfbench::SplitMix64 rng(7);
  std::vector<int> counts(64, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(rng.Uniform())];
  for (size_t r : {0u, 1u, 7u, 63u}) {
    const double expected = zipf.Probability(r) * draws;
    const double sigma = std::sqrt(expected);
    CHECK(std::fabs(counts[r] - expected) < 5.0 * sigma + 1.0);
  }
  // Same seed, same stream.
  perfbench::SplitMix64 a(42), b(42);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && a.Next() == b.Next();
  CHECK(same);
}

void TestLateness() {
  using perfbench::SummarizeLateness;
  // Sends due every 0.2 s; lateness 0, 0.01, ..., 0.09 (and one early send).
  std::vector<double> due, actual;
  for (int i = 0; i < 10; ++i) {
    due.push_back(0.2 * i);
    actual.push_back(0.2 * i + 0.01 * i);
  }
  due.push_back(2.0);
  actual.push_back(1.99);  // early: counts as on time
  const auto ok = SummarizeLateness(due, actual, 0.2);
  CHECK(ok.sends == 11);
  CHECK(Near(ok.max_s, 0.09, 1e-12));
  CHECK(Near(ok.p90_s, 0.08, 1e-12));  // rank ceil(0.9*11)=10 of sorted
  CHECK(!ok.fell_behind);
  // One send more than a whole interval late marks the run invalid.
  actual[5] = due[5] + 0.25;
  const auto late = SummarizeLateness(due, actual, 0.2);
  CHECK(late.fell_behind);
  CHECK(Near(late.max_s, 0.25, 1e-12));
  // Exactly one interval late is still on schedule.
  actual[5] = due[5] + 0.2;
  CHECK(!SummarizeLateness(due, actual, 0.2).fell_behind);
  CHECK(SummarizeLateness({}, {}, 0.2).sends == 0);
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,10) with children a [1,4) and b [3,6) (overlapping), c [8,12)
  // (runs past the root); a has a grandchild [2,3).
  const std::vector<Span> spans = {
      {1, 0, "serve", "request", 0.0, 10.0},
      {2, 1, "exec", "a", 1.0, 4.0},
      {3, 1, "exec", "b", 3.0, 6.0},
      {4, 1, "tops", "c", 8.0, 12.0},
      {5, 2, "store", "g", 2.0, 3.0},
      {6, 0, "serve", "other", 20.0, 21.0},
  };
  const auto self = perfbench::SelfTimes(spans);
  // Root covered by [1,6) and [8,10): 7 of 10.
  CHECK(Near(self.at(1), 3.0, 1e-12));
  CHECK(Near(self.at(2), 2.0, 1e-12));  // 3 minus the grandchild's 1
  CHECK(Near(self.at(3), 3.0, 1e-12));
  CHECK(Near(self.at(4), 4.0, 1e-12));  // no children: full duration
  CHECK(Near(self.at(5), 1.0, 1e-12));
  CHECK(Near(self.at(6), 1.0, 1e-12));
  const auto layers = perfbench::SelfTimeByLayer(spans);
  CHECK(Near(layers.at("serve"), 4.0, 1e-12));
  CHECK(Near(layers.at("exec"), 5.0, 1e-12));
  CHECK(Near(layers.at("tops"), 4.0, 1e-12));
  CHECK(Near(layers.at("store"), 1.0, 1e-12));
  CHECK(Near(perfbench::CoveredLength({{0, 1}, {0.5, 2}, {5, 6}}, 0, 5.5),
             2.5, 1e-12));
}

}  // namespace

int main() {
  TestPercentile();
  TestZipf();
  TestLateness();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "helpers_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("helpers_selftest: all checks passed\n");
  return 0;
}
