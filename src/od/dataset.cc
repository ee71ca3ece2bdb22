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

void ForecastDataset::Stack(std::span<const int64_t> sample_indices,
                            int64_t offset, Tensor* values,
                            Tensor* masks) const {
  ODF_CHECK(!sample_indices.empty());
  const int64_t cell = num_origins_ * num_destinations_ * num_buckets_;
  const Shape shape({static_cast<int64_t>(sample_indices.size()),
                     num_origins_, num_destinations_, num_buckets_});
  *values = Tensor(shape);
  if (masks != nullptr) *masks = Tensor(shape);
  for (size_t b = 0; b < sample_indices.size(); ++b) {
    const int64_t at = static_cast<int64_t>(b) * cell;
    source_->Fill(AnchorInterval(sample_indices[b]) + offset,
                  values->data() + at,
                  masks != nullptr ? masks->data() + at : nullptr);
  }
}

std::vector<Tensor> ForecastDataset::MakeInputs(
    std::span<const int64_t> sample_indices) const {
  std::vector<Tensor> inputs(static_cast<size_t>(history_));
  for (int64_t step = 0; step < history_; ++step) {
    Stack(sample_indices, step - history_ + 1,
          &inputs[static_cast<size_t>(step)], nullptr);
  }
  return inputs;
}

Batch ForecastDataset::MakeBatch(
    std::span<const int64_t> sample_indices) const {
  Batch out;
  out.inputs = MakeInputs(sample_indices);
  out.anchor_intervals.reserve(sample_indices.size());
  for (int64_t i : sample_indices) {
    out.anchor_intervals.push_back(AnchorInterval(i));
  }
  out.targets.resize(static_cast<size_t>(horizon_));
  out.target_masks.resize(static_cast<size_t>(horizon_));
  for (int64_t j = 1; j <= horizon_; ++j) {
    Stack(sample_indices, j, &out.targets[static_cast<size_t>(j - 1)],
          &out.target_masks[static_cast<size_t>(j - 1)]);
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
