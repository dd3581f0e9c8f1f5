// Self-contained helpers of the serving benchmark: percentile selection
// with the ten-beyond rule, a Zipf sampler over a fixed pool, open-loop
// lateness accounting, and self-time computation over a span tree. They
// depend on nothing from the library so helpers_selftest.cc can pin them
// in isolation.
#ifndef NETCLUS_PERFBENCH_BENCH_HELPERS_H_
#define NETCLUS_PERFBENCH_BENCH_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own deterministic generator, so request
/// streams depend only on the seed argument.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// A percentile chosen by nearest rank. `beyond` counts the samples
/// strictly after the chosen rank; the value is only trustworthy (and is
/// only reported) when at least kMinBeyond samples lie beyond it.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;
  double value = 0.0;
  size_t beyond = 0;
  bool supported = false;
};

/// Nearest-rank percentile of `samples` (any order) at q in (0, 1]: the
/// value at 1-based rank ceil(q * n).
inline Percentile SelectPercentile(std::vector<double> samples, double q) {
  Percentile out;
  const size_t n = samples.size();
  if (n == 0) return out;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.supported = out.beyond >= Percentile::kMinBeyond;
  return out;
}

/// Median of `samples` (mean of the two middle values for even n).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Zipf(s) over ranks 0..n-1: P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    if (!cdf_.empty()) cdf_.back() = 1.0;
  }

  /// Maps u in [0, 1) to a rank.
  size_t Sample(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

  /// P(rank r).
  double Probability(size_t r) const {
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// How late an open-loop sender ran against its schedule.
struct Lateness {
  double p90_s = 0.0;
  double max_s = 0.0;
  size_t sends = 0;
  /// True when some send started more than one interval after it was due:
  /// the sender fell a whole period behind, so the schedule was not held.
  bool fell_behind = false;
};

/// `due` and `actual` are matching send times (seconds); lateness is
/// actual - due, floored at 0 (an early send is on time).
inline Lateness SummarizeLateness(const std::vector<double>& due,
                                  const std::vector<double>& actual,
                                  double interval_s) {
  Lateness out;
  const size_t n = std::min(due.size(), actual.size());
  out.sends = n;
  if (n == 0) return out;
  std::vector<double> late(n);
  for (size_t i = 0; i < n; ++i) {
    late[i] = std::max(0.0, actual[i] - due[i]);
    out.max_s = std::max(out.max_s, late[i]);
  }
  out.p90_s = SelectPercentile(late, 0.90).value;
  out.fell_behind = out.max_s > interval_s;
  return out;
}

/// One timed interval at a layer boundary. Spans of one request share a
/// root; `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string layer;  ///< the layer whose time this is ("serve", "exec", ...)
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time per span id: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
inline std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    const double duration = std::max(0.0, s.end - s.start);
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0 : CoveredLength(it->second, s.start, s.end);
    self[s.id] = duration - covered;
  }
  return self;
}

/// Σ self time per layer.
inline std::map<std::string, double> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  const std::map<uint64_t, double> self = SelfTimes(spans);
  std::map<std::string, double> by_layer;
  for (const Span& s : spans) by_layer[s.layer] += self.at(s.id);
  return by_layer;
}

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_BENCH_HELPERS_H_
