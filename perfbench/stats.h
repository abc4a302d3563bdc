// Statistics the TATP benchmark reports, kept free of engine includes so
// stats_test.cc can check them on their own:
//
//   * order statistics on small samples (median, quartiles with the same
//     "exclusive" method as Python's statistics.quantiles(n=4)),
//   * the tail rule: report the highest standard percentile that still
//     has at least ten samples beyond it,
//   * a fixed-size log-linear latency histogram (constant memory, so the
//     benchmark's own footprint does not grow with throughput),
//   * the open-loop schedule and its generator loop, which time each
//     transaction from the moment it was due.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear interpolation between order statistics of a sorted sample
/// (q in [0,1]); 0 for an empty sample.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, 0.5);
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Python's statistics.quantiles(v, n=4) (method "exclusive"); needs at
/// least two values, returns zeros otherwise.
inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles out;
  if (v.size() < 2) return out;
  std::sort(v.begin(), v.end());
  const long m = static_cast<long>(v.size()) + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, static_cast<long>(v.size()) - 1);
    long delta = i * m - j * 4;
    const double lo = v[static_cast<size_t>(j - 1)];
    const double hi = v[static_cast<size_t>(j)];
    cut[i - 1] = (lo * static_cast<double>(4 - delta) +
                  hi * static_cast<double>(delta)) /
                 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

/// The highest of the standard percentiles (50, 90, 99, 99.9, ...) that
/// leaves at least `min_beyond` of `n` samples above it; 0 when even the
/// median does not.
inline double TailPercentile(uint64_t n, uint64_t min_beyond = 10) {
  static constexpr double kLadder[] = {50,     90,      99,       99.9,
                                       99.99, 99.999, 99.9999};
  double best = 0;
  for (double p : kLadder) {
    // Samples strictly beyond the p-th percentile: floor(n * (1 - p/100)),
    // computed in integers (per million) so 99.9 of 10000 is exactly 10.
    uint64_t per_million = static_cast<uint64_t>((100.0 - p) * 10000.0 + 0.5);
    if (n * per_million / 1000000 >= min_beyond) best = p;
  }
  return best;
}

/// Log-linear histogram of nanosecond values: exact below 128 ns, then 64
/// linear steps per power of two (at most 1.6% bucket width). Quantiles
/// interpolate inside a bucket, so they move continuously with the data.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 64
  static constexpr size_t kBuckets = 2 * kSub + 58 * kSub;

  void Add(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    max_ = std::max(max_, v);
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value below which a fraction q of the samples fall.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    double rank = q * static_cast<double>(count_);
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (static_cast<double>(cum + buckets_[i]) >= rank) {
        double frac = (rank - static_cast<double>(cum)) /
                      static_cast<double>(buckets_[i]);
        double v = static_cast<double>(Lower(i)) +
                   frac * static_cast<double>(Width(i));
        return std::min(v, static_cast<double>(max_));
      }
      cum += buckets_[i];
    }
    return static_cast<double>(max_);
  }

  static size_t Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    int shift = std::bit_width(v) - 1 - kSubBits;  // >= 1
    uint64_t top = v >> shift;                     // in [kSub, 2*kSub)
    size_t idx = static_cast<size_t>(kSub * static_cast<uint64_t>(shift + 1) +
                                     (top - kSub));
    return std::min(idx, kBuckets - 1);
  }
  static uint64_t Lower(size_t i) {
    if (i < 2 * kSub) return i;
    uint64_t shift = i / kSub - 1;
    return (kSub + i % kSub) << shift;
  }
  static uint64_t Width(size_t i) {
    return i < 2 * kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0;
  uint64_t max_ = 0;
};

/// Open-loop arrival schedule: transaction i is due at start + i * gap,
/// whatever happened to the transactions before it.
struct OpenLoopSchedule {
  uint64_t start_ns = 0;
  double gap_ns = 1000;
  uint64_t count = 0;

  uint64_t DueNs(uint64_t i) const {
    return start_ns + static_cast<uint64_t>(static_cast<double>(i) * gap_ns);
  }
  /// Transactions due at or before `now` (capped at count).
  uint64_t DueBy(uint64_t now) const {
    if (now < start_ns) return 0;
    uint64_t n =
        static_cast<uint64_t>(static_cast<double>(now - start_ns) / gap_ns) + 1;
    while (n > 0 && DueNs(n - 1) > now) --n;  // guard float rounding
    while (n < count && DueNs(n) <= now) ++n;
    return std::min(n, count);
  }
};

/// Drives an open-loop schedule on one generator thread: waits for the
/// next due time, then issues every transaction already due (at most
/// `max_wave` per call) with issue(first, n, now_ns). It never waits for
/// completions, so when issue() blocks (a stalled engine), the
/// transactions that fall due meanwhile are issued late, in one catch-up
/// burst, and their latency — timed by the caller from DueNs(i) — carries
/// the stall. `clock` provides Now() and WaitUntil(ns).
template <class Clock, class IssueFn>
void RunOpenLoop(const OpenLoopSchedule& s, Clock& clock, size_t max_wave,
                 IssueFn&& issue) {
  uint64_t next = 0;
  while (next < s.count) {
    uint64_t now = clock.Now();
    uint64_t due = s.DueBy(now);
    if (due <= next) {
      clock.WaitUntil(s.DueNs(next));
      continue;
    }
    uint64_t n = std::min<uint64_t>(due - next, max_wave);
    issue(next, n, now);
    next += n;
  }
}

}  // namespace perfbench
