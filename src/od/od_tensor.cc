#include "od/od_tensor.h"

#include <unordered_map>

namespace odf {

OdTensor::OdTensor(int64_t num_origins, int64_t num_destinations,
                   int num_buckets)
    : values_(Shape({num_origins, num_destinations, num_buckets})),
      mask_(Shape({num_origins, num_destinations})),
      counts_(Shape({num_origins, num_destinations})) {
  ODF_CHECK_GT(num_origins, 0);
  ODF_CHECK_GT(num_destinations, 0);
  ODF_CHECK_GT(num_buckets, 1);
}

void OdTensor::SetHistogram(int64_t o, int64_t d,
                            const std::vector<float>& histogram,
                            float count) {
  ODF_CHECK_EQ(static_cast<int64_t>(histogram.size()), num_buckets());
  float total = 0;
  for (size_t k = 0; k < histogram.size(); ++k) {
    ODF_DCHECK(histogram[k] >= 0.0f);
    values_.At3(o, d, static_cast<int64_t>(k)) = histogram[k];
    total += histogram[k];
  }
  ODF_CHECK(total > 0.99f && total < 1.01f)
      << "histogram must be normalized, sums to " << total;
  mask_.At2(o, d) = 1.0f;
  counts_.At2(o, d) = count;
}

void OdTensor::SetCounts(int64_t o, int64_t d,
                         const uint32_t* bucket_counts, uint32_t total) {
  NormalizeCounts(bucket_counts, static_cast<int>(num_buckets()), total,
                  &values_.At3(o, d, 0));
  mask_.At2(o, d) = 1.0f;
  counts_.At2(o, d) = static_cast<float>(total);
}

void OdTensor::ClearObservation(int64_t o, int64_t d) {
  for (int64_t k = 0; k < num_buckets(); ++k) {
    values_.At3(o, d, k) = 0.0f;
  }
  mask_.At2(o, d) = 0.0f;
  counts_.At2(o, d) = 0.0f;
}

double OdTensor::ObservedFraction() const {
  double observed = 0;
  for (int64_t i = 0; i < mask_.numel(); ++i) observed += mask_[i];
  return observed / static_cast<double>(mask_.numel());
}

double OdTensor::TotalTrips() const {
  double total = 0;
  for (int64_t i = 0; i < counts_.numel(); ++i) total += counts_[i];
  return total;
}

OdTensor BuildOdTensor(const std::vector<Trip>& trips, int64_t num_origins,
                       int64_t num_destinations,
                       const SpeedHistogramSpec& spec) {
  OdTensor tensor(num_origins, num_destinations, spec.num_buckets());
  // Group speeds by OD pair.
  std::unordered_map<int64_t, std::vector<double>> speeds;
  for (const Trip& trip : trips) {
    ODF_CHECK_GE(trip.origin, 0);
    ODF_CHECK_LT(trip.origin, num_origins);
    ODF_CHECK_GE(trip.destination, 0);
    ODF_CHECK_LT(trip.destination, num_destinations);
    const int64_t key =
        static_cast<int64_t>(trip.origin) * num_destinations +
        trip.destination;
    speeds[key].push_back(trip.SpeedMs());
  }
  for (const auto& [key, pair_speeds] : speeds) {
    const int64_t o = key / num_destinations;
    const int64_t d = key % num_destinations;
    tensor.SetHistogram(o, d, spec.Build(pair_speeds),
                        static_cast<float>(pair_speeds.size()));
  }
  return tensor;
}

OdTensorSeries BuildOdTensorSeries(const std::vector<Trip>& trips,
                                   const TimePartition& time_partition,
                                   int64_t num_origins,
                                   int64_t num_destinations,
                                   const SpeedHistogramSpec& spec) {
  std::vector<std::vector<Trip>> per_interval(
      static_cast<size_t>(time_partition.NumIntervals()));
  for (const Trip& trip : trips) {
    per_interval[static_cast<size_t>(
                     time_partition.IntervalOf(trip.departure_s))]
        .push_back(trip);
  }
  OdTensorSeries series;
  series.tensors.reserve(per_interval.size());
  for (const auto& interval_trips : per_interval) {
    series.tensors.push_back(BuildOdTensor(interval_trips, num_origins,
                                           num_destinations, spec));
  }
  return series;
}

SparsityStats ComputeSparsity(const OdTensorSeries& series) {
  ODF_CHECK_GT(series.NumIntervals(), 0);
  const OdTensor& first = series.at(0);
  const int64_t pairs = first.num_origins() * first.num_destinations();
  Tensor ever(Shape({first.num_origins(), first.num_destinations()}));
  for (const OdTensor& t : series.tensors) {
    for (int64_t i = 0; i < pairs; ++i) {
      if (t.mask()[i] != 0.0f) ever[i] = 1.0f;
    }
  }
  SparsityStats stats;
  for (int64_t i = 0; i < pairs; ++i) {
    stats.ever_observed_pairs += ever[i] != 0.0f ? 1 : 0;
  }
  stats.original.reserve(series.tensors.size());
  stats.preprocessed.reserve(series.tensors.size());
  for (const OdTensor& t : series.tensors) {
    double observed = 0;
    for (int64_t i = 0; i < pairs; ++i) observed += t.mask()[i];
    stats.original.push_back(observed / static_cast<double>(pairs));
    stats.preprocessed.push_back(
        stats.ever_observed_pairs == 0
            ? 0.0
            : observed / static_cast<double>(stats.ever_observed_pairs));
  }
  return stats;
}

}  // namespace odf
