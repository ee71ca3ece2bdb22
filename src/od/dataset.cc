#include "od/dataset.h"

#include <algorithm>

namespace odf {

ForecastDataset::ForecastDataset(const OdTensorSeries* series,
                                 int64_t history, int64_t horizon)
    : series_source_(std::make_shared<const SeriesOdSource>(series)),
      source_(series_source_.get()),
      history_(history),
      horizon_(horizon) {
  InitDims();
}

ForecastDataset::ForecastDataset(const OdSource* source, int64_t history,
                                 int64_t horizon)
    : source_(source), history_(history), horizon_(horizon) {
  ODF_CHECK(source != nullptr);
  InitDims();
}

void ForecastDataset::InitDims() {
  ODF_CHECK_GT(history_, 0);
  ODF_CHECK_GT(horizon_, 0);
  ODF_CHECK_GE(source_->NumIntervals(), history_ + horizon_)
      << "series too short for the requested window";
  const std::shared_ptr<const OdTensor> proto = source_->Interval(0);
  num_origins_ = proto->num_origins();
  num_destinations_ = proto->num_destinations();
  num_buckets_ = proto->num_buckets();
}

const OdTensorSeries& ForecastDataset::series() const {
  ODF_CHECK(series_source_ != nullptr)
      << "series() on a streaming-backed ForecastDataset; whole-series "
         "access requires the in-memory constructor (has_series())";
  return series_source_->series();
}

int64_t ForecastDataset::NumSamples() const {
  return source_->NumIntervals() - history_ - horizon_ + 1;
}

int64_t ForecastDataset::AnchorInterval(int64_t i) const {
  ODF_CHECK_GE(i, 0);
  ODF_CHECK_LT(i, NumSamples());
  return i + history_ - 1;
}

ForecastDataset::Split ForecastDataset::ChronologicalSplit(
    double train_fraction, double validation_fraction) const {
  ODF_CHECK_GT(train_fraction, 0.0);
  ODF_CHECK_GE(validation_fraction, 0.0);
  ODF_CHECK_LT(train_fraction + validation_fraction, 1.0);
  const int64_t n = NumSamples();
  const int64_t train_end = static_cast<int64_t>(n * train_fraction);
  const int64_t val_end =
      static_cast<int64_t>(n * (train_fraction + validation_fraction));
  Split split;
  for (int64_t i = 0; i < n; ++i) {
    if (i < train_end) {
      split.train.push_back(i);
    } else if (i < val_end) {
      split.validation.push_back(i);
    } else {
      split.test.push_back(i);
    }
  }
  ODF_CHECK(!split.train.empty());
  ODF_CHECK(!split.test.empty());
  return split;
}

Batch ForecastDataset::MakeBatch(
    std::span<const int64_t> sample_indices) const {
  ODF_CHECK(!sample_indices.empty());
  const int64_t n = num_origins_;
  const int64_t m = num_destinations_;
  const int64_t k = num_buckets_;
  const int64_t batch = static_cast<int64_t>(sample_indices.size());
  const int64_t cell = n * m * k;

  Batch out;
  out.anchor_intervals.reserve(sample_indices.size());
  for (int64_t i : sample_indices) {
    out.anchor_intervals.push_back(AnchorInterval(i));
  }

  auto stack = [&](int64_t offset_from_anchor, bool masks) {
    Tensor stacked(Shape({batch, n, m, k}));
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t t = out.anchor_intervals[static_cast<size_t>(b)] +
                        offset_from_anchor;
      // The shared_ptr keeps the tensor alive across the copy even if a
      // streaming source evicts it from its cache concurrently.
      const std::shared_ptr<const OdTensor> tensor = source_->Interval(t);
      const Tensor source =
          masks ? tensor->ExpandedMask() : tensor->values();
      std::copy(source.data(), source.data() + cell,
                stacked.data() + b * cell);
    }
    return stacked;
  };

  for (int64_t step = 0; step < history_; ++step) {
    out.inputs.push_back(stack(step - history_ + 1, /*masks=*/false));
  }
  for (int64_t j = 1; j <= horizon_; ++j) {
    out.targets.push_back(stack(j, /*masks=*/false));
    out.target_masks.push_back(stack(j, /*masks=*/true));
  }
  return out;
}

std::vector<std::vector<int64_t>> ForecastDataset::ShuffledBatches(
    const std::vector<int64_t>& samples, int64_t batch_size, Rng& rng) const {
  ODF_CHECK_GT(batch_size, 0);
  std::vector<int64_t> shuffled = samples;
  // Fisher–Yates with our deterministic RNG.
  for (size_t i = shuffled.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(i));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  std::vector<std::vector<int64_t>> batches;
  for (size_t start = 0; start < shuffled.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(shuffled.size(),
                                start + static_cast<size_t>(batch_size));
    batches.emplace_back(shuffled.begin() + static_cast<int64_t>(start),
                         shuffled.begin() + static_cast<int64_t>(end));
  }
  return batches;
}

}  // namespace odf
