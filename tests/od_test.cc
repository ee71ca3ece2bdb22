#include "od/od_tensor.h"

#include <gtest/gtest.h>

#include "od/dataset.h"
#include "od/histogram.h"
#include "od/trip.h"

namespace odf {
namespace {

TEST(TimePartitionTest, IntervalArithmetic) {
  TimePartition tp(15, 2);
  EXPECT_EQ(tp.IntervalsPerDay(), 96);
  EXPECT_EQ(tp.NumIntervals(), 192);
  EXPECT_EQ(tp.IntervalOf(0), 0);
  EXPECT_EQ(tp.IntervalOf(899), 0);
  EXPECT_EQ(tp.IntervalOf(900), 1);
  EXPECT_EQ(tp.IntervalOf(86400), 96);
  EXPECT_DOUBLE_EQ(tp.HourOfDay(0), 0.0);
  EXPECT_DOUBLE_EQ(tp.HourOfDay(4), 1.0);
  EXPECT_DOUBLE_EQ(tp.HourOfDay(96 + 34), 8.5);
  EXPECT_EQ(tp.DayOf(100), 1);
}

TEST(TimePartitionTest, WeekendDetection) {
  TimePartition tp(60, 14);
  // Day 0 = Monday; days 5, 6, 12, 13 are weekends.
  EXPECT_FALSE(tp.IsWeekend(0));
  EXPECT_TRUE(tp.IsWeekend(5 * 24));
  EXPECT_TRUE(tp.IsWeekend(6 * 24 + 3));
  EXPECT_FALSE(tp.IsWeekend(7 * 24));
  EXPECT_TRUE(tp.IsWeekend(13 * 24));
}

TEST(TripTest, SpeedComputation) {
  Trip trip;
  trip.distance_m = 3000.0;
  trip.duration_s = 300.0;
  EXPECT_DOUBLE_EQ(trip.SpeedMs(), 10.0);
}

TEST(HistogramTest, PaperSpec) {
  SpeedHistogramSpec spec = SpeedHistogramSpec::Paper();
  EXPECT_EQ(spec.num_buckets(), 7);
  EXPECT_EQ(spec.BucketOf(0.0), 0);
  EXPECT_EQ(spec.BucketOf(2.99), 0);
  EXPECT_EQ(spec.BucketOf(3.0), 1);
  EXPECT_EQ(spec.BucketOf(17.9), 5);
  EXPECT_EQ(spec.BucketOf(18.0), 6);
  EXPECT_EQ(spec.BucketOf(200.0), 6);  // open tail
  EXPECT_DOUBLE_EQ(spec.BucketMidpointMs(0), 1.5);
}

TEST(HistogramTest, BuildNormalized) {
  SpeedHistogramSpec spec(4, 5.0);
  auto hist = spec.Build({1.0, 2.0, 7.0, 12.0});
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_FLOAT_EQ(hist[0], 0.5f);
  EXPECT_FLOAT_EQ(hist[1], 0.25f);
  EXPECT_FLOAT_EQ(hist[2], 0.25f);
  EXPECT_FLOAT_EQ(hist[3], 0.0f);
  float total = 0;
  for (float h : hist) total += h;
  EXPECT_FLOAT_EQ(total, 1.0f);
}

TEST(OdTensorTest, SetAndQuery) {
  OdTensor tensor(3, 4, 2);
  EXPECT_FALSE(tensor.IsObserved(1, 2));
  tensor.SetHistogram(1, 2, {0.25f, 0.75f}, 4.0f);
  EXPECT_TRUE(tensor.IsObserved(1, 2));
  EXPECT_FLOAT_EQ(tensor.values().At3(1, 2, 1), 0.75f);
  EXPECT_FLOAT_EQ(tensor.counts().At2(1, 2), 4.0f);
  EXPECT_DOUBLE_EQ(tensor.ObservedFraction(), 1.0 / 12.0);
  EXPECT_DOUBLE_EQ(tensor.TotalTrips(), 4.0);
}

TEST(OdSourceTest, FillBroadcastsMaskOverBuckets) {
  OdTensorSeries series;
  series.tensors.emplace_back(2, 2, 3);
  series.tensors[0].SetHistogram(0, 1, {0.5f, 0.0f, 0.5f});
  const SeriesOdSource source(&series);
  Tensor values(Shape({2, 2, 3}));
  Tensor mask(Shape({2, 2, 3}));
  source.Fill(0, values.data(), mask.data());
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_FLOAT_EQ(values.At3(0, 1, k), k == 1 ? 0.0f : 0.5f);
    EXPECT_FLOAT_EQ(mask.At3(0, 1, k), 1.0f);
    EXPECT_FLOAT_EQ(mask.At3(1, 0, k), 0.0f);
  }
}

std::vector<Trip> MakeTrips() {
  // Interval 0: two trips 0->1 (speeds 2, 4 m/s), one trip 1->0 (speed 10).
  // Interval 1: one trip 0->1 (speed 20).
  std::vector<Trip> trips;
  trips.push_back({0, 1, 10, 1000.0, 500.0});
  trips.push_back({0, 1, 20, 1000.0, 250.0});
  trips.push_back({1, 0, 30, 1000.0, 100.0});
  trips.push_back({0, 1, 900, 2000.0, 100.0});
  return trips;
}

TEST(BuildOdTensorSeriesTest, BucketsTripsByInterval) {
  TimePartition tp(15, 1);
  SpeedHistogramSpec spec = SpeedHistogramSpec::Paper();
  OdTensorSeries series = BuildOdTensorSeries(MakeTrips(), tp, 2, 2, spec);
  EXPECT_EQ(series.NumIntervals(), 96);

  const OdTensor& t0 = series.at(0);
  EXPECT_TRUE(t0.IsObserved(0, 1));
  EXPECT_TRUE(t0.IsObserved(1, 0));
  EXPECT_FALSE(t0.IsObserved(0, 0));
  // Speeds 2 and 4 m/s -> buckets 0 and 1, probability 0.5 each.
  EXPECT_FLOAT_EQ(t0.values().At3(0, 1, 0), 0.5f);
  EXPECT_FLOAT_EQ(t0.values().At3(0, 1, 1), 0.5f);
  // Speed 10 -> bucket 3.
  EXPECT_FLOAT_EQ(t0.values().At3(1, 0, 3), 1.0f);
  EXPECT_FLOAT_EQ(t0.counts().At2(0, 1), 2.0f);

  const OdTensor& t1 = series.at(1);
  EXPECT_TRUE(t1.IsObserved(0, 1));
  // Speed 20 -> open tail bucket 6.
  EXPECT_FLOAT_EQ(t1.values().At3(0, 1, 6), 1.0f);
}

TEST(SparsityTest, OriginalVsPreprocessed) {
  TimePartition tp(15, 1);
  SpeedHistogramSpec spec = SpeedHistogramSpec::Paper();
  OdTensorSeries series = BuildOdTensorSeries(MakeTrips(), tp, 2, 2, spec);
  SparsityStats stats = ComputeSparsity(series);
  // Ever observed: (0,1) and (1,0) of 4 pairs.
  EXPECT_EQ(stats.ever_observed_pairs, 2);
  EXPECT_DOUBLE_EQ(stats.original[0], 0.5);
  EXPECT_DOUBLE_EQ(stats.preprocessed[0], 1.0);
  EXPECT_DOUBLE_EQ(stats.original[1], 0.25);
  EXPECT_DOUBLE_EQ(stats.preprocessed[1], 0.5);
  // Preprocessed sparsity is never below original.
  for (size_t t = 0; t < stats.original.size(); ++t) {
    EXPECT_GE(stats.preprocessed[t], stats.original[t]);
  }
}

OdTensorSeries MakeSeries(int64_t intervals) {
  OdTensorSeries series;
  for (int64_t t = 0; t < intervals; ++t) {
    OdTensor tensor(2, 2, 2);
    // Value encodes the interval so tests can identify steps.
    const float p = static_cast<float>(t % 2);
    tensor.SetHistogram(0, 1, {1.0f - p, p});
    series.tensors.push_back(tensor);
  }
  return series;
}

TEST(ForecastDatasetTest, WindowCountsAndAnchors) {
  OdTensorSeries series = MakeSeries(20);
  ForecastDataset dataset(&series, /*history=*/6, /*horizon=*/3);
  EXPECT_EQ(dataset.NumSamples(), 12);
  EXPECT_EQ(dataset.AnchorInterval(0), 5);
  EXPECT_EQ(dataset.AnchorInterval(11), 16);
}

TEST(ForecastDatasetTest, ChronologicalSplitOrdered) {
  OdTensorSeries series = MakeSeries(50);
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  EXPECT_EQ(split.train.size() + split.validation.size() +
                split.test.size(),
            static_cast<size_t>(dataset.NumSamples()));
  // Strictly chronological: max(train) < min(val) < min(test).
  EXPECT_LT(split.train.back(), split.validation.front());
  EXPECT_LT(split.validation.back(), split.test.front());
}

TEST(ForecastDatasetTest, BatchShapesAndContents) {
  OdTensorSeries series = MakeSeries(20);
  ForecastDataset dataset(&series, 3, 2);
  Batch batch = dataset.MakeBatch({0, 4});
  EXPECT_EQ(batch.batch_size(), 2);
  ASSERT_EQ(batch.inputs.size(), 3u);
  ASSERT_EQ(batch.targets.size(), 2u);
  ASSERT_EQ(batch.target_masks.size(), 2u);
  EXPECT_EQ(batch.inputs[0].shape(), Shape({2, 2, 2, 2}));
  // Sample 0 anchors at interval 2: inputs are intervals 0,1,2;
  // targets intervals 3,4.
  EXPECT_EQ(batch.anchor_intervals[0], 2);
  // Interval parity is encoded in bucket 1 of pair (0,1).
  // inputs[0] = interval 0 -> bucket1 = 0.
  EXPECT_FLOAT_EQ(batch.inputs[0].At({0, 0, 1, 1}), 0.0f);
  // inputs[1] = interval 1 -> bucket1 = 1.
  EXPECT_FLOAT_EQ(batch.inputs[1].At({0, 0, 1, 1}), 1.0f);
  // targets[0] = interval 3 -> bucket1 = 1.
  EXPECT_FLOAT_EQ(batch.targets[0].At({0, 0, 1, 1}), 1.0f);
  // Mask is 1 on the observed pair, 0 elsewhere.
  EXPECT_FLOAT_EQ(batch.target_masks[0].At({0, 0, 1, 0}), 1.0f);
  EXPECT_FLOAT_EQ(batch.target_masks[0].At({0, 1, 0, 0}), 0.0f);
}

TEST(ForecastDatasetTest, ShuffledBatchesCoverAllSamples) {
  OdTensorSeries series = MakeSeries(30);
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.8, 0.0);
  Rng rng(5);
  auto batches = dataset.ShuffledBatches(split.train, 4, rng);
  std::vector<int> seen(static_cast<size_t>(dataset.NumSamples()), 0);
  size_t total = 0;
  for (const auto& batch : batches) {
    EXPECT_LE(batch.size(), 4u);
    for (int64_t i : batch) ++seen[static_cast<size_t>(i)];
    total += batch.size();
  }
  EXPECT_EQ(total, split.train.size());
  for (int64_t i : split.train) EXPECT_EQ(seen[static_cast<size_t>(i)], 1);
}

}  // namespace
}  // namespace odf
