#ifndef ODF_OD_DATASET_H_
#define ODF_OD_DATASET_H_

#include <memory>
#include <span>
#include <vector>

#include "od/od_source.h"
#include "od/od_tensor.h"
#include "util/rng.h"

namespace odf {

/// A materialized mini-batch of forecasting windows.
///
/// Each element of `inputs` / `targets` / `target_masks` is one time step,
/// shaped [B, N, N', K]; masks are the observation masks Ω broadcast over
/// the bucket axis (loss and metrics only score observed ground-truth cells,
/// paper Eq. 4 / Eq. 12).
struct Batch {
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  std::vector<Tensor> target_masks;
  /// Interval index of the last input step of each sample in the batch.
  std::vector<int64_t> anchor_intervals;

  int64_t batch_size() const {
    return inputs.empty() ? 0 : inputs.front().dim(0);
  }
};

/// Sliding-window forecasting dataset over an OD tensor series
/// (paper problem statement: s historical tensors -> h future tensors).
///
/// Every interval comes from one OdSource:
///  - in-memory: constructed from an `OdTensorSeries*`, which the dataset
///    wraps in a SeriesOdSource — every interval is materialized
///    (paper-scale grids; also what the classical baselines need, see
///    `series()`);
///  - streaming: constructed from an `OdSource*` (e.g. od/stream_source.h
///    over an on-disk trip log) — intervals are built on demand and kept
///    as sparse records of their observed cells, never as dense tensors.
///
/// The series or source must outlive the dataset. Batches are byte-identical
/// across the two modes for the same underlying intervals.
class ForecastDataset {
 public:
  ForecastDataset(const OdTensorSeries* series, int64_t history,
                  int64_t horizon);
  ForecastDataset(const OdSource* source, int64_t history, int64_t horizon);

  int64_t history() const { return history_; }
  int64_t horizon() const { return horizon_; }

  int64_t num_origins() const { return num_origins_; }
  int64_t num_destinations() const { return num_destinations_; }
  int64_t num_buckets() const { return num_buckets_; }

  /// Number of valid windows.
  int64_t NumSamples() const;

  /// The anchor interval (last input step) of sample `i`.
  int64_t AnchorInterval(int64_t i) const;

  /// Chronological split into train/validation/test sample index lists.
  struct Split {
    std::vector<int64_t> train;
    std::vector<int64_t> validation;
    std::vector<int64_t> test;
  };
  Split ChronologicalSplit(double train_fraction,
                           double validation_fraction) const;

  /// The `history()` input steps of the windows `sample_indices`, each
  /// stacked as [B, N, N', K] — all a forward pass reads (`Batch::inputs`).
  std::vector<Tensor> MakeInputs(
      std::span<const int64_t> sample_indices) const;

  /// Materializes the windows `sample_indices` as stacked tensors. The span
  /// overload lets callers batch a sub-range of an index list (e.g. the
  /// evaluation loop) without copying it into a fresh vector.
  Batch MakeBatch(std::span<const int64_t> sample_indices) const;
  Batch MakeBatch(const std::vector<int64_t>& sample_indices) const {
    return MakeBatch(std::span<const int64_t>(sample_indices));
  }
  Batch MakeBatch(std::initializer_list<int64_t> sample_indices) const {
    return MakeBatch(
        std::span<const int64_t>(sample_indices.begin(), sample_indices.end()));
  }

  /// Splits `samples` into shuffled mini-batches of at most `batch_size`.
  std::vector<std::vector<int64_t>> ShuffledBatches(
      const std::vector<int64_t>& samples, int64_t batch_size,
      Rng& rng) const;

  /// True when the dataset is backed by a materialized series (`series()` is
  /// callable). Streaming datasets return false.
  bool has_series() const { return series_source_ != nullptr; }

  /// The materialized series. Only the classical baselines (GP, VAR, the
  /// naive histogram) and offline analysis need whole-series access; they
  /// run at paper scale, where materializing is fine. Aborts on a
  /// streaming-backed dataset — check `has_series()` first.
  const OdTensorSeries& series() const;

  /// The source every interval is read from.
  const OdSource& source() const { return *source_; }

 private:
  void InitDims();
  /// Stacks interval AnchorInterval(i) + `offset` of each sample i into
  /// `*values` and, when `masks` is non-null, its observation mask broadcast
  /// over the bucket axis into `*masks`; both [B, N, N', K].
  void Stack(std::span<const int64_t> sample_indices, int64_t offset,
             Tensor* values, Tensor* masks) const;

  // In-memory mode owns the view over the series; shared so copies of the
  // dataset keep `source_` valid.
  std::shared_ptr<const SeriesOdSource> series_source_;
  const OdSource* source_ = nullptr;
  int64_t history_;
  int64_t horizon_;
  int64_t num_origins_ = 0;
  int64_t num_destinations_ = 0;
  int64_t num_buckets_ = 0;
};

}  // namespace odf

#endif  // ODF_OD_DATASET_H_
