#ifndef ODF_OD_OD_SOURCE_H_
#define ODF_OD_OD_SOURCE_H_

#include <algorithm>
#include <memory>

#include "od/od_tensor.h"

namespace odf {

/// Read-only provider of per-interval OD tensors — the abstraction that lets
/// ForecastDataset consume either a fully materialized OdTensorSeries or a
/// streaming backend (od/stream_source.h) that builds tensors on demand from
/// a trip log, so dataset size is no longer bounded by RAM.
///
/// `Interval` returns a shared snapshot rather than a bare reference: a
/// materialized series hands out an alias of its tensor, a streaming source
/// a freshly densified one. Implementations must be thread-safe and
/// deterministic: the same `t` always yields byte-identical tensor contents.
class OdSource {
 public:
  virtual ~OdSource() = default;

  /// Number of intervals in the underlying series.
  virtual int64_t NumIntervals() const = 0;

  /// Snapshot of interval `t`'s OD tensor; never null.
  virtual std::shared_ptr<const OdTensor> Interval(int64_t t) const = 0;

  /// Writes interval `t` into zero-filled [N, N', K] buffers, as
  /// ForecastDataset stacks it: the histogram values into `values` and,
  /// when `masks` is non-null, the mask broadcast over the bucket axis.
  /// Same bytes as copying Interval(t); sparse sources override it to
  /// write only their observed cells.
  virtual void Fill(int64_t t, float* values, float* masks) const {
    const std::shared_ptr<const OdTensor> tensor = Interval(t);
    const int64_t pairs = tensor->mask().numel();
    const int64_t k = tensor->num_buckets();
    std::copy_n(tensor->values().data(), pairs * k, values);
    if (masks == nullptr) return;
    const float* mask = tensor->mask().data();
    for (int64_t i = 0; i < pairs; ++i) {
      std::fill_n(masks + i * k, k, mask[i]);
    }
  }
};

/// Non-owning OdSource view over a materialized series: hands out aliasing
/// shared_ptrs (no control block, no copy, no deleter) since the series —
/// which must outlive the view — already owns every tensor.
class SeriesOdSource final : public OdSource {
 public:
  explicit SeriesOdSource(const OdTensorSeries* series) : series_(series) {
    ODF_CHECK(series != nullptr);
  }

  int64_t NumIntervals() const override { return series_->NumIntervals(); }

  std::shared_ptr<const OdTensor> Interval(int64_t t) const override {
    ODF_CHECK_GE(t, 0);
    ODF_CHECK_LT(t, series_->NumIntervals());
    return std::shared_ptr<const OdTensor>(std::shared_ptr<const OdTensor>(),
                                           &series_->at(t));
  }

  const OdTensorSeries& series() const { return *series_; }

 private:
  const OdTensorSeries* series_;
};

}  // namespace odf

#endif  // ODF_OD_OD_SOURCE_H_
