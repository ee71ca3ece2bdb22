#include "od/stream_source.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace odf {
namespace {

/// Folds (cell key, payload) entries into a CSR record, key = o · m + d;
/// `add(payload, cell_counts)` accumulates one entry into its cell. Sorting
/// first makes the record independent of the entries' order.
template <typename Add>
SparseInterval Assemble(std::vector<std::pair<int64_t, int64_t>> entries,
                        int64_t num_origins, int64_t num_destinations,
                        int num_buckets, Add add) {
  std::sort(entries.begin(), entries.end());
  SparseInterval out;
  out.num_origins = num_origins;
  out.num_destinations = num_destinations;
  out.num_buckets = num_buckets;
  out.row_ptr.assign(static_cast<size_t>(num_origins) + 1, 0);
  const size_t stride = static_cast<size_t>(num_buckets) + 1;
  size_t cells = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    cells += i == 0 || entries[i].first != entries[i - 1].first ? 1 : 0;
  }
  out.destinations.reserve(cells);  // records live long: no slack
  out.counts.reserve(cells * stride);
  int64_t last = -1;
  for (const auto& [key, payload] : entries) {
    if (key != last) {
      out.destinations.push_back(static_cast<int32_t>(key % num_destinations));
      out.counts.resize(out.counts.size() + stride, 0);
      ++out.row_ptr[static_cast<size_t>(key / num_destinations) + 1];
      last = key;
    }
    add(payload, out.counts.data() + out.counts.size() - stride);
  }
  for (size_t o = 0; o < static_cast<size_t>(num_origins); ++o) {
    out.row_ptr[o + 1] += out.row_ptr[o];
  }
  return out;
}

/// The record of one interval's trips (the sparse BuildOdTensor).
SparseInterval BuildSparseInterval(const std::vector<Trip>& trips,
                                   int64_t num_origins,
                                   int64_t num_destinations,
                                   const SpeedHistogramSpec& spec) {
  std::vector<std::pair<int64_t, int64_t>> entries;
  entries.reserve(trips.size());
  for (const Trip& trip : trips) {
    ODF_CHECK_GE(trip.origin, 0);
    ODF_CHECK_LT(trip.origin, num_origins);
    ODF_CHECK_GE(trip.destination, 0);
    ODF_CHECK_LT(trip.destination, num_destinations);
    entries.emplace_back(
        static_cast<int64_t>(trip.origin) * num_destinations +
            trip.destination,
        spec.BucketOf(trip.SpeedMs()));
  }
  const int k = spec.num_buckets();
  return Assemble(std::move(entries), num_origins, num_destinations, k,
                  [k](int64_t bucket, uint32_t* cell) {
                    ++cell[bucket];
                    ++cell[k];
                  });
}

/// `in` seen through `map` as a `num_origins` × `num_destinations` record.
SparseInterval MapSparseInterval(const SparseInterval& in,
                                 const RegionPairMap& map,
                                 int64_t num_origins,
                                 int64_t num_destinations) {
  ODF_CHECK_GT(num_origins, 0);
  ODF_CHECK_GT(num_destinations, 0);
  std::vector<std::pair<int64_t, int64_t>> entries;
  in.ForEachCell([&](int64_t o, int64_t d, const uint32_t* cell) {
    int32_t mo = 0;
    int32_t md = 0;
    if (!map(static_cast<int32_t>(o), static_cast<int32_t>(d), &mo, &md)) {
      return;
    }
    ODF_DCHECK(mo >= 0 && mo < num_origins);
    ODF_DCHECK(md >= 0 && md < num_destinations);
    entries.emplace_back(static_cast<int64_t>(mo) * num_destinations + md,
                         cell - in.counts.data());
  });
  const int64_t stride = in.num_buckets + 1;
  return Assemble(std::move(entries), num_origins, num_destinations,
                  in.num_buckets, [&in, stride](int64_t at, uint32_t* cell) {
                    for (int64_t j = 0; j < stride; ++j) {
                      cell[j] += in.counts[static_cast<size_t>(at + j)];
                    }
                  });
}

}  // namespace

OdTensor SparseInterval::Densify() const {
  OdTensor out(num_origins, num_destinations, num_buckets);
  ForEachCell([&](int64_t o, int64_t d, const uint32_t* cell) {
    out.SetCounts(o, d, cell, cell[num_buckets]);
  });
  return out;
}

void SparseInterval::Fill(float* values, float* masks) const {
  const int64_t k = num_buckets;
  ForEachCell([&](int64_t o, int64_t d, const uint32_t* cell) {
    const int64_t at = (o * num_destinations + d) * k;
    NormalizeCounts(cell, num_buckets, cell[k], values + at);
    if (masks != nullptr) std::fill_n(masks + at, k, 1.0f);
  });
}

TripOdSource::TripOdSource(const TripSource* trips,
                           const SpeedHistogramSpec& spec,
                           int64_t num_origins, int64_t num_destinations)
    : trips_(trips),
      spec_(spec),
      num_origins_(num_origins),
      num_destinations_(num_destinations),
      num_intervals_(trips != nullptr ? trips->NumIntervals() : 0),
      slots_(std::make_unique<Slot[]>(static_cast<size_t>(num_intervals_))) {
  ODF_CHECK(trips != nullptr);
  ODF_CHECK_GT(num_origins, 0);
  ODF_CHECK_GT(num_destinations, 0);
}

const SparseInterval& TripOdSource::Record(int64_t t) const {
  ODF_CHECK_GE(t, 0);
  ODF_CHECK_LT(t, num_intervals_);

  static Counter& hits =
      MetricsRegistry::Global().GetCounter("stream.cache_hits");
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("stream.cache_misses");
  static Histogram& build_ns =
      MetricsRegistry::Global().GetHistogram("stream.build_ns");

  Slot& slot = slots_[static_cast<size_t>(t)];
  bool built = false;
  std::call_once(slot.built, [&] {
    ScopedTimer timer(build_ns);
    std::vector<Trip> trips;
    trips_->IntervalTrips(t, &trips);
    slot.record =
        BuildSparseInterval(trips, num_origins_, num_destinations_, spec_);
    built = true;
  });
  if (MetricsEnabled()) (built ? misses : hits).Add();
  return slot.record;
}

std::shared_ptr<const OdTensor> TripOdSource::Interval(int64_t t) const {
  return std::make_shared<const OdTensor>(Record(t).Densify());
}

void TripOdSource::Fill(int64_t t, float* values, float* masks) const {
  Record(t).Fill(values, masks);
}

MappedOdSource::MappedOdSource(const TripOdSource* store, RegionPairMap map,
                               int64_t num_origins, int64_t num_destinations)
    : store_(store),
      map_(std::move(map)),
      num_origins_(num_origins),
      num_destinations_(num_destinations) {
  ODF_CHECK(store != nullptr);
  ODF_CHECK(map_ != nullptr);
  ODF_CHECK_GT(num_origins, 0);
  ODF_CHECK_GT(num_destinations, 0);
}

SparseInterval MappedOdSource::Map(int64_t t) const {
  return MapSparseInterval(store_->Record(t), map_, num_origins_,
                           num_destinations_);
}

std::shared_ptr<const OdTensor> MappedOdSource::Interval(int64_t t) const {
  return std::make_shared<const OdTensor>(Map(t).Densify());
}

void MappedOdSource::Fill(int64_t t, float* values, float* masks) const {
  Map(t).Fill(values, masks);
}

}  // namespace odf
