// Checks of the benchmark's own statistics: quartiles, the tail rule, the
// latency histogram, open-loop due-time accounting under a stall, and
// span self time. Exits nonzero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestQuartiles() {
  // Values from Python: statistics.quantiles([1..10], n=4) ==
  // [2.75, 5.5, 8.25]; quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0];
  // quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  perfbench::Quartiles q = perfbench::QuartilesOf(ten);
  Check(Near(q.q1, 2.75, 1e-12) && Near(q.median, 5.5, 1e-12) &&
            Near(q.q3, 8.25, 1e-12),
        "quartiles of 1..10 match statistics.quantiles");
  q = perfbench::QuartilesOf({3, 1, 2});
  Check(Near(q.q1, 1.0, 1e-12) && Near(q.median, 2.0, 1e-12) &&
            Near(q.q3, 3.0, 1e-12),
        "quartiles of three values");
  q = perfbench::QuartilesOf({4, 3, 2, 1});
  Check(Near(q.q1, 1.25, 1e-12) && Near(q.median, 2.5, 1e-12) &&
            Near(q.q3, 3.75, 1e-12),
        "quartiles of four values");
  Check(Near(perfbench::Median({5, 1, 3}), 3.0, 1e-12), "odd median");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5, 1e-12), "even median");
  Check(perfbench::Median({}) == 0.0, "empty median is 0");
}

void TestTailRule() {
  using perfbench::TailPercentile;
  Check(TailPercentile(19) == 0, "19 samples: no percentile has 10 beyond");
  Check(TailPercentile(20) == 50, "20 samples: p50");
  Check(TailPercentile(100) == 90, "100 samples: p90 (10 beyond)");
  Check(TailPercentile(999) == 90, "999 samples: p99 has only 9 beyond");
  Check(TailPercentile(1000) == 99, "1000 samples: p99 (10 beyond)");
  Check(TailPercentile(9999) == 99, "9999 samples: p99.9 has 9 beyond");
  Check(TailPercentile(10000) == 99.9, "10000 samples: p99.9");
  Check(TailPercentile(5'000'000) == 99.999,
        "5M samples: p99.9999 has only 5 beyond, p99.999 has 50");
}

void TestHistogram() {
  perfbench::LatencyHistogram h;
  Check(h.Quantile(0.5) == 0.0, "empty histogram quantile is 0");
  for (uint64_t v = 1; v <= 100000; ++v) h.Add(v * 1000);  // 1us .. 100ms
  Check(h.count() == 100000, "histogram count");
  double p50 = h.Quantile(0.5), p99 = h.Quantile(0.99);
  Check(std::fabs(p50 / 50'000'000.0 - 1) < 0.02, "p50 within 2%");
  Check(std::fabs(p99 / 99'000'000.0 - 1) < 0.02, "p99 within 2%");
  Check(h.Quantile(1.0) <= 100'000'000.0, "quantile never exceeds max");
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 1000ULL, 123456789ULL,
                     (1ULL << 40) + 12345})
    Check(perfbench::LatencyHistogram::Lower(
              perfbench::LatencyHistogram::Index(v)) <= v &&
              v < perfbench::LatencyHistogram::Lower(
                      perfbench::LatencyHistogram::Index(v)) +
                      perfbench::LatencyHistogram::Width(
                          perfbench::LatencyHistogram::Index(v)),
          "value lies inside its bucket");
  perfbench::LatencyHistogram a, b;
  a.Add(10);
  b.Add(30);
  a.Merge(b);
  Check(a.count() == 2 && a.max() == 30 && a.mean() == 20, "merge");
}

/// A clock that only moves when told to: WaitUntil jumps forward, and the
/// issue callback below advances it to model time spent inside a submit.
struct FakeClock {
  uint64_t now = 0;
  uint64_t Now() const { return now; }
  void WaitUntil(uint64_t t) { now = std::max(now, t); }
};

void TestOpenLoopStall() {
  // 1000 transactions due every 10us from t=1ms. Issuing costs 1us per
  // wave; completing costs 2us after issue. The submit of transaction 300
  // blocks for 2ms (the engine holds its scheme gate).
  perfbench::OpenLoopSchedule s{1'000'000, 10'000, 1000};
  FakeClock clock;
  constexpr uint64_t kService = 2'000, kIssue = 1'000, kStall = 2'000'000;
  std::vector<uint64_t> latency(s.count, 0), issued_at(s.count, 0);
  std::vector<int> times_issued(s.count, 0);
  perfbench::RunOpenLoop(s, clock, 32, [&](uint64_t first, uint64_t n,
                                           uint64_t now) {
    bool stall = first <= 300 && 300 < first + n;
    clock.now = now + kIssue + (stall ? kStall : 0);
    for (uint64_t i = first; i < first + n; ++i) {
      ++times_issued[i];
      issued_at[i] = now;
      latency[i] = clock.now + kService - s.DueNs(i);
    }
  });
  bool once = true;
  for (int t : times_issued) once = once && t == 1;
  Check(once, "every scheduled transaction is issued exactly once");
  Check(latency[299] == kIssue + kService, "before the stall: service time");
  const uint64_t stall_end = s.DueNs(300) + kIssue + kStall;
  bool behind = true;
  for (uint64_t i = 300; i < s.count && s.DueNs(i) < stall_end; ++i)
    behind = behind && latency[i] >= stall_end - s.DueNs(i) &&
             latency[i] > kIssue + kService;
  Check(behind,
        "every transaction due during the stall waits until it ends");
  // Transactions due during the stall are issued late, in catch-up waves
  // of at most 32.
  Check(issued_at[301] >= stall_end - kIssue && issued_at[301] > s.DueNs(301),
        "the generator runs late behind the stall");
  Check(latency[s.count - 1] == kIssue + kService,
        "the schedule catches up after the stall");
  perfbench::LatencyHistogram h;
  for (uint64_t l : latency) h.Add(l);
  Check(h.Quantile(0.99) > 1'000'000,
        "the stall shows in the latency tail (>1ms at p99)");
  Check(h.Quantile(0.5) < 10'000, "and not in the median");
}

void TestDueBy() {
  perfbench::OpenLoopSchedule s{100, 3.3, 10};
  Check(s.DueBy(99) == 0, "nothing due before start");
  Check(s.DueBy(100) == 1, "first due at start");
  Check(s.DueBy(103) == 2 && s.DueNs(1) == 103, "second due at 103");
  Check(s.DueBy(1'000'000) == 10, "capped at count");
}

void TestSelfTime() {
  perfbench::SpanLog log;
  int32_t root = log.Open(perfbench::kClient, "wave", 1, -1, 0);
  log.Add(perfbench::kWorkload, "build", 1, root, 10, 30);
  int32_t sub = log.Open(perfbench::kEngine, "submit", 1, root, 40);
  log.Add(perfbench::kStorage, "inner", 1, sub, 42, 45);
  log.Close(sub, 50);
  log.Close(root, 100);
  auto self = perfbench::SelfTimeNs(log.spans());
  Check(self[perfbench::kClient] == 70, "root self = 100 - 20 - 10");
  Check(self[perfbench::kWorkload] == 20, "leaf self = its duration");
  Check(self[perfbench::kEngine] == 7, "nested self = 10 - 3");
  Check(self[perfbench::kStorage] == 3, "grandchild self");
}

}  // namespace

int main() {
  TestQuartiles();
  TestTailRule();
  TestHistogram();
  TestDueBy();
  TestOpenLoopStall();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
