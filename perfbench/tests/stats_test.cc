// Tests of the benchmark's own statistics on synthetic latency lists:
// the percentile-with-10-beyond rule, due-time latency accounting, the
// max-QPS search with backlog detection, and self time of nested spans.
#include <gtest/gtest.h>

#include <cmath>

#include "spans.h"
#include "stats.h"

namespace odb {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, KeepsTenSamplesBeyond) {
  const Quantile q = PercentileWithBeyond(Ramp(1000), 0.99);
  EXPECT_DOUBLE_EQ(q.q, 0.99);
  EXPECT_DOUBLE_EQ(q.value, 990.0);
  EXPECT_EQ(q.n, 1000);
  EXPECT_EQ(q.beyond, 10);
  EXPECT_EQ(q.Name(), "p99");
}

TEST(PercentileTest, LowersThePercentileWhenTooFewBeyond) {
  // 500 samples: p99 would leave 5 beyond; p98 leaves exactly 10.
  const Quantile q = PercentileWithBeyond(Ramp(500), 0.99);
  EXPECT_DOUBLE_EQ(q.q, 0.98);
  EXPECT_EQ(q.beyond, 10);
  EXPECT_DOUBLE_EQ(q.value, 490.0);
  EXPECT_EQ(q.Name(), "p98");
  // 400 samples: the highest 0.1%-grid percentile with 10 beyond is p97.5.
  const Quantile r = PercentileWithBeyond(Ramp(400), 0.99);
  EXPECT_EQ(r.Name(), "p97.5");
  EXPECT_EQ(r.beyond, 10);
}

TEST(PercentileTest, MedianOfSmallListsAndEmptyResult) {
  EXPECT_DOUBLE_EQ(PercentileWithBeyond(Ramp(21), 0.5).value, 11.0);
  EXPECT_EQ(PercentileWithBeyond(Ramp(10), 0.5).n, 0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PercentileTest, FastestOfRepeats) {
  EXPECT_DOUBLE_EQ(Min({0.9, 0.4, 2.5}), 0.4);
  EXPECT_DOUBLE_EQ(Min({}), 0.0);
}

TEST(PercentileTest, MedianOfFastestRepeats) {
  EXPECT_DOUBLE_EQ(MedianOfFastest({9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0}, 5), 3.0);
  EXPECT_DOUBLE_EQ(MedianOfFastest({4.0, 2.0}, 5), 3.0);
  EXPECT_DOUBLE_EQ(MedianOfFastest({}, 5), 0.0);
}

TEST(DueTimeTest, LateSendsCountAgainstTheSystem) {
  // Due at 0, 1 ms, 2 ms; the generator stalled and sent the last two at
  // 5 ms; each took 1 ms once sent.
  std::vector<Request> reqs = {{0, 0, 1'000'000},
                               {1'000'000, 5'000'000, 6'000'000},
                               {2'000'000, 5'000'000, 6'000'000},
                               {3'000'000, 3'000'000, 0}};  // never completed
  const std::vector<double> lat = DueLatenciesMs(reqs);
  ASSERT_EQ(lat.size(), 3u);
  EXPECT_DOUBLE_EQ(lat[0], 1.0);
  EXPECT_DOUBLE_EQ(lat[1], 5.0);
  EXPECT_DOUBLE_EQ(lat[2], 4.0);
  const std::vector<double> lag = SendLagsUs(reqs);
  EXPECT_DOUBLE_EQ(lag[1], 4000.0);
  EXPECT_DOUBLE_EQ(lag[3], 0.0);
}

TEST(BacklogTest, DetectsGrowthAndIgnoresLevelNoise) {
  std::vector<double> level, growing;
  for (int i = 0; i < 300; ++i) {
    level.push_back(2.0 + (i % 7) * 0.3);
    growing.push_back(2.0 + i * 0.05);
  }
  EXPECT_FALSE(BacklogGrowing(level));
  EXPECT_TRUE(BacklogGrowing(growing));
}

/// Synthetic service: p99 grows with load and a backlog builds past 733/s.
Probe FakeProbe(double rate) {
  Probe p;
  p.rate = rate;
  std::vector<double> lat;
  for (int i = 0; i < 1200; ++i) {
    const double base = 1.0 + (i % 100 == 0 ? 20.0 * rate / 1000.0 : 0.0);
    lat.push_back(rate > 733.0 ? base + i * 0.1 : base);
  }
  p.tail = PercentileWithBeyond(lat, 0.99);
  p.backlog = BacklogGrowing(lat);
  return p;
}

TEST(MaxRateSearchTest, FindsTheKneeWithinTolerance) {
  std::vector<Probe> probes;
  const double best = MaxRateSearch(FakeProbe, 200.0, 5000.0, 1.5, 0.05, 25.0,
                                    &probes);
  EXPECT_LE(best, 733.0);
  EXPECT_GE(best, 733.0 / 1.05);
  EXPECT_TRUE(probes.front().Passes(25.0));
  bool saw_backlog = false;
  for (const Probe& p : probes) saw_backlog |= p.backlog;
  EXPECT_TRUE(saw_backlog);
  // Deterministic probes give the same answer on every search.
  EXPECT_DOUBLE_EQ(best, MaxRateSearch(FakeProbe, 200.0, 5000.0, 1.5, 0.05,
                                       25.0, nullptr));
}

TEST(MaxRateSearchTest, TailLimitAloneStopsTheSearch) {
  // No backlog, but the p99 (20·rate/1000 + 1 ms at 1% of requests) crosses
  // 25 ms at 1200/s.
  auto tail_only = [](double rate) {
    Probe p;
    std::vector<double> lat(1200, 1.0);
    for (size_t i = 0; i < lat.size(); i += 50) lat[i] = 1.0 + 20.0 * rate / 1000.0;
    p.rate = rate;
    p.tail = PercentileWithBeyond(lat, 0.99);
    return p;
  };
  const double best = MaxRateSearch(tail_only, 300.0, 10000.0, 2.0, 0.05, 25.0,
                                    nullptr);
  EXPECT_LE(best, 1200.0);
  EXPECT_GE(best, 1200.0 / 1.05);
  // Starting above the knee, the search steps down to it.
  const double from_above = MaxRateSearch(tail_only, 5000.0, 10000.0, 2.0,
                                          0.05, 25.0, nullptr);
  EXPECT_LE(from_above, 1200.0);
  EXPECT_GE(from_above, 1200.0 / 1.05);
  auto never = [](double rate) {
    Probe p;
    p.rate = rate;
    return p;  // no samples: never passes
  };
  EXPECT_DOUBLE_EQ(MaxRateSearch(never, 500.0, 1000.0, 1.5, 0.05, 25.0,
                                 nullptr),
                   0.0);
}

TEST(SliceMedianTest, OneNoisySliceDoesNotMoveTheFigure) {
  std::vector<Request> reqs;
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t ms = i >= 1000 && i < 2000 ? 50 : 2 + i % 3;  // slow middle
    reqs.push_back({i * 1'000'000, i * 1'000'000, i * 1'000'000 + ms * 1'000'000});
  }
  EXPECT_DOUBLE_EQ(SliceMedian(reqs, 0.5, 3), 3.0);
  EXPECT_DOUBLE_EQ(SliceMedian(reqs, 0.99, 3), 4.0);
  EXPECT_DOUBLE_EQ(PercentileWithBeyond(DueLatenciesMs(reqs), 0.5).value, 4.0);
  const std::vector<double> thirds = SliceQuantiles(reqs, 0.5, 3);
  ASSERT_EQ(thirds.size(), 3u);
  EXPECT_DOUBLE_EQ(thirds[1], 50.0);
  EXPECT_DOUBLE_EQ(Min(thirds), 3.0);
  // Slices with too few samples for the quantile are skipped.
  const std::vector<Request> few(reqs.begin(), reqs.begin() + 30);
  EXPECT_TRUE(SliceQuantiles(few, 0.5, 3).empty());
}

TEST(SpanTest, SelfTimeSubtractsDirectChildren) {
  // step [0,100) ⊃ load [0,30), loss [30,90) ⊃ gemm [40,70).
  std::vector<Span> spans = {{"step", 0, 100, -1, 1, 1},
                             {"load", 0, 30, 0, 1, 1},
                             {"loss", 30, 90, 0, 1, 1},
                             {"gemm", 40, 70, 2, 1, 1}};
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 10u);
  EXPECT_EQ(self[1], 30u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_DOUBLE_EQ(ChildCoverage(spans, "step"), 0.9);
  EXPECT_DOUBLE_EQ(SumSpans(spans, "gemm").total_ms, 30e-6);
}

TEST(SpanTest, RecorderNestsPerThread) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 7);
    ScopedSpan inner(&log, "inner", 7);
  }
  { ScopedSpan next(&log, "next"); }
  const std::vector<Span> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_LE(ChildCoverage(spans, "outer"), 1.0);
}

}  // namespace
}  // namespace odb
