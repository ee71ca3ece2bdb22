#ifndef ODF_OD_OD_TENSOR_H_
#define ODF_OD_OD_TENSOR_H_

#include <cstdint>
#include <vector>

#include "od/histogram.h"
#include "od/trip.h"
#include "tensor/tensor.h"

namespace odf {

/// A (possibly sparse) OD stochastic speed tensor M^(t) ∈ R^{N×N'×K} for one
/// time interval, together with its observation mask Ω (paper Sec. III /
/// Eq. 4): mask(o,d)=1 iff at least one trip was observed for that OD pair
/// during the interval.
class OdTensor {
 public:
  /// Empty (all-unobserved) tensor.
  OdTensor(int64_t num_origins, int64_t num_destinations, int num_buckets);

  int64_t num_origins() const { return values_.dim(0); }
  int64_t num_destinations() const { return values_.dim(1); }
  int64_t num_buckets() const { return values_.dim(2); }

  /// Histogram values [N, N', K]; zero rows where unobserved.
  const Tensor& values() const { return values_; }
  /// Observation mask [N, N'] with entries in {0, 1}.
  const Tensor& mask() const { return mask_; }
  /// Trips per OD pair [N, N'].
  const Tensor& counts() const { return counts_; }

  bool IsObserved(int64_t o, int64_t d) const {
    return mask_.At2(o, d) != 0.0f;
  }

  /// Sets the histogram of one OD pair (marks it observed).
  void SetHistogram(int64_t o, int64_t d, const std::vector<float>& histogram,
                    float count = 1.0f);

  /// Sets one OD pair from integer counts: `bucket_counts[0..K)` trips per
  /// bucket, `total` their sum, normalized by NormalizeCounts — so the bytes
  /// equal BuildOdTensor's for the same trips.
  void SetCounts(int64_t o, int64_t d, const uint32_t* bucket_counts,
                 uint32_t total);

  /// Removes one OD pair's observation (mask, histogram and count are
  /// zeroed), as if its sensors never reported. Used by the sensor-dropout
  /// scenario injector (sim/scenario.h); a no-op on unobserved pairs.
  void ClearObservation(int64_t o, int64_t d);

  /// Fraction of observed OD pairs in [0, 1].
  double ObservedFraction() const;

  /// Total number of trips that contributed.
  double TotalTrips() const;

 private:
  Tensor values_;
  Tensor mask_;
  Tensor counts_;
};

/// Builds the OD tensor of one interval from that interval's trips
/// (paper Sec. III: group by OD pair, build an equi-width histogram each).
OdTensor BuildOdTensor(const std::vector<Trip>& trips,
                       int64_t num_origins, int64_t num_destinations,
                       const SpeedHistogramSpec& spec);

/// A chronological series of OD tensors, one per interval.
struct OdTensorSeries {
  std::vector<OdTensor> tensors;

  int64_t NumIntervals() const {
    return static_cast<int64_t>(tensors.size());
  }
  const OdTensor& at(int64_t t) const {
    return tensors[static_cast<size_t>(t)];
  }
};

/// Builds the full series by bucketing trips into intervals first.
OdTensorSeries BuildOdTensorSeries(const std::vector<Trip>& trips,
                                   const TimePartition& time_partition,
                                   int64_t num_origins,
                                   int64_t num_destinations,
                                   const SpeedHistogramSpec& spec);

/// Per-interval sparsity statistics (paper Fig. 7).
struct SparsityStats {
  /// Fraction of all N×N' pairs observed, per interval ("original").
  std::vector<double> original;
  /// Fraction of ever-observed pairs observed, per interval
  /// ("preprocessed": OD pairs never seen in the whole dataset are dropped,
  /// mirroring the paper's preprocessing of never-covered taxizone pairs).
  std::vector<double> preprocessed;
  /// Number of OD pairs observed at least once anywhere in the series.
  int64_t ever_observed_pairs = 0;
};

SparsityStats ComputeSparsity(const OdTensorSeries& series);

}  // namespace odf

#endif  // ODF_OD_OD_TENSOR_H_
