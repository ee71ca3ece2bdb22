#ifndef ODF_OD_STREAM_SOURCE_H_
#define ODF_OD_STREAM_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "od/histogram.h"
#include "od/od_source.h"
#include "od/trip_log.h"

namespace odf {

/// One interval's observed OD cells as CSR over origins, with integer
/// counts instead of histogram values: per cell, K bucket counts then the
/// cell's trip total. Memory is observed cells × (K + 2) 32-bit words plus
/// one row pointer per origin — never N·N'·K.
///
/// Bit identity: Densify() and Fill() write each value with
/// NormalizeCounts, float(count_k) · (1/total) in float, which gives
/// SpeedHistogramSpec::Build's bytes; a record densifies to exactly
/// BuildOdTensor's tensor.
struct SparseInterval {
  int64_t num_origins = 0;
  int64_t num_destinations = 0;
  int num_buckets = 0;
  std::vector<int32_t> row_ptr;       // [num_origins + 1]
  std::vector<int32_t> destinations;  // per cell, ascending within a row
  std::vector<uint32_t> counts;       // per cell: K bucket counts, then total

  int64_t NumCells() const {
    return static_cast<int64_t>(destinations.size());
  }

  /// Calls f(o, d, cell) for each observed cell, row-major; `cell` points
  /// at the cell's K bucket counts followed by its total.
  template <typename F>
  void ForEachCell(F&& f) const {
    const size_t stride = static_cast<size_t>(num_buckets) + 1;
    for (size_t o = 0; o < static_cast<size_t>(num_origins); ++o) {
      for (auto c = static_cast<size_t>(row_ptr[o]);
           c < static_cast<size_t>(row_ptr[o + 1]); ++c) {
        f(static_cast<int64_t>(o), static_cast<int64_t>(destinations[c]),
          counts.data() + c * stride);
      }
    }
  }

  OdTensor Densify() const;
  /// OdSource::Fill of this record: writes the observed cells only.
  void Fill(float* values, float* masks) const;
};

/// Region-pair map of a view: returns false to drop cell (o, d), true to
/// keep it as cell (*mo, *md) of the view (e.g. global region ids →
/// shard-local ids, or → shard ids for the cross-shard boundary model).
/// Cells mapped onto the same view cell sum their integer counts, which is
/// exact. Must be pure, or views would not be deterministic.
using RegionPairMap =
    std::function<bool(int32_t o, int32_t d, int32_t* mo, int32_t* md)>;

/// Streaming OdSource and interval store: builds each interval's
/// SparseInterval once, the first time anyone asks for it, from a
/// TripSource (typically a TripLogReader over an on-disk ODTL log), keeps
/// it for the source's lifetime, and densifies it on every read.
/// Memory is the observed cells of the intervals read so far, independent of
/// N·N'·K — the paper's OD tensors are mostly empty (Fig. 7).
///
/// Thread-safe: each interval has its own once-flag. Callers of an interval
/// being built wait for it; other intervals build in parallel; once built,
/// a read takes no lock. Determinism: a record depends only on the
/// interval's trips, so the bytes are the same for every caller, every
/// epoch and every ODF_THREADS value.
///
/// Metrics (when ODF_METRICS=1): stream.cache_hits counts reads served
/// from the store, stream.cache_misses counts builds, stream.build_ns
/// times them.
class TripOdSource final : public OdSource {
 public:
  /// `trips` must outlive the source.
  TripOdSource(const TripSource* trips, const SpeedHistogramSpec& spec,
               int64_t num_origins, int64_t num_destinations);

  int64_t NumIntervals() const override { return num_intervals_; }
  std::shared_ptr<const OdTensor> Interval(int64_t t) const override;
  void Fill(int64_t t, float* values, float* masks) const override;

  /// Interval `t`'s record, built on first use.
  const SparseInterval& Record(int64_t t) const;

 private:
  struct Slot {
    std::once_flag built;
    SparseInterval record;
  };

  const TripSource* trips_;
  SpeedHistogramSpec spec_;
  int64_t num_origins_;
  int64_t num_destinations_;
  int64_t num_intervals_;
  std::unique_ptr<Slot[]> slots_;
};

/// OdSource view of a TripOdSource through a RegionPairMap: maps the
/// store's cells, never its trips, so any number of views share one build
/// of each interval. `store` must outlive the view.
class MappedOdSource final : public OdSource {
 public:
  MappedOdSource(const TripOdSource* store, RegionPairMap map,
                 int64_t num_origins, int64_t num_destinations);

  int64_t NumIntervals() const override { return store_->NumIntervals(); }
  std::shared_ptr<const OdTensor> Interval(int64_t t) const override;
  void Fill(int64_t t, float* values, float* masks) const override;

 private:
  SparseInterval Map(int64_t t) const;

  const TripOdSource* store_;
  RegionPairMap map_;
  int64_t num_origins_;
  int64_t num_destinations_;
};

}  // namespace odf

#endif  // ODF_OD_STREAM_SOURCE_H_
