#ifndef ODF_OD_HISTOGRAM_H_
#define ODF_OD_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace odf {

/// Equi-width speed-histogram specification (paper Sec. VI-A-1): K buckets of
/// `bucket_width_ms` m/s each, the last bucket open-ended
/// ([0,3), [3,6), ..., [18,∞) with K=7, width=3 in the paper).
class SpeedHistogramSpec {
 public:
  SpeedHistogramSpec(int num_buckets, double bucket_width_ms)
      : num_buckets_(num_buckets), bucket_width_ms_(bucket_width_ms) {
    ODF_CHECK_GT(num_buckets, 1);
    ODF_CHECK_GT(bucket_width_ms, 0.0);
  }

  /// The paper's configuration: 7 buckets of 3 m/s.
  static SpeedHistogramSpec Paper() { return SpeedHistogramSpec(7, 3.0); }

  int num_buckets() const { return num_buckets_; }
  double bucket_width_ms() const { return bucket_width_ms_; }

  /// Bucket index for a speed in m/s (the last bucket absorbs the tail).
  int BucketOf(double speed_ms) const {
    ODF_DCHECK(speed_ms >= 0.0);
    const int bucket = static_cast<int>(speed_ms / bucket_width_ms_);
    return bucket >= num_buckets_ ? num_buckets_ - 1 : bucket;
  }

  /// Representative (mid-point) speed of bucket `k` in m/s; the open tail
  /// bucket uses its lower edge plus half a width.
  double BucketMidpointMs(int k) const {
    ODF_DCHECK(k >= 0 && k < num_buckets_);
    return (static_cast<double>(k) + 0.5) * bucket_width_ms_;
  }

  /// Normalized histogram over speeds; requires a non-empty sample.
  std::vector<float> Build(const std::vector<double>& speeds_ms) const {
    ODF_CHECK(!speeds_ms.empty());
    std::vector<float> hist(static_cast<size_t>(num_buckets_), 0.0f);
    for (double v : speeds_ms) ++hist[static_cast<size_t>(BucketOf(v))];
    const float inv = 1.0f / static_cast<float>(speeds_ms.size());
    for (float& h : hist) h *= inv;
    return hist;
  }

 private:
  int num_buckets_;
  double bucket_width_ms_;
};

/// The normalized histogram of `num_buckets` integer bucket counts that sum
/// to `total`: out[k] = float(counts[k]) · (1/total), in float.
/// SpeedHistogramSpec::Build adds 1.0f per sample (exact below 2^24) and
/// multiplies by the same inverse, so both give the same bytes for the same
/// speeds — what lets a sparse interval store keep counts, not values.
inline void NormalizeCounts(const uint32_t* counts, int num_buckets,
                            uint32_t total, float* out) {
  ODF_DCHECK(total > 0);
  const float inv = 1.0f / static_cast<float>(total);
  for (int k = 0; k < num_buckets; ++k) {
    out[k] = static_cast<float>(counts[k]) * inv;
  }
}

}  // namespace odf

#endif  // ODF_OD_HISTOGRAM_H_
