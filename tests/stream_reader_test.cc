// Streaming trip-reader robustness and equivalence tests (docs/sharding.md
// "Streaming trip log"): the on-disk ODTL container round-trips losslessly,
// every corruption in the checkpoint_test matrix (truncation anywhere, bit
// flips anywhere, zero-length files, forged directory counts) degrades to a
// typed TripLogStatus — never an abort, never a half-open reader — the
// streaming TripOdSource feeds ForecastDataset batches byte-identical to the
// fully materialized in-memory path, and one store serves every unit of a
// sharded city, building each interval once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "od/dataset.h"
#include "od/od_tensor.h"
#include "od/stream_source.h"
#include "od/trip_log.h"
#include "shard/sharded_model.h"
#include "util/binary_io.h"
#include "util/metrics.h"

namespace odf {
namespace {

std::string TestPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes));
  return bytes;
}

void Dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Small deterministic trip set spanning every interval of a 2-day,
/// 6-hour-interval partition over 6 regions.
std::vector<Trip> MakeTrips() {
  const TimePartition partition(360, 2);
  std::vector<Trip> trips;
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
    const int64_t base_s = t * 360 * 60;
    const int trips_here = 3 + static_cast<int>(next() % 5);
    for (int i = 0; i < trips_here; ++i) {
      Trip trip;
      trip.origin = static_cast<int32_t>(next() % 6);
      trip.destination = static_cast<int32_t>(next() % 6);
      trip.departure_s = base_s + static_cast<int64_t>(next() % (360 * 60));
      trip.distance_m = 500.0 + static_cast<double>(next() % 5000);
      trip.duration_s = 60.0 + static_cast<double>(next() % 600);
      trips.push_back(trip);
    }
  }
  return trips;
}

bool TensorBitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool BatchBitEqual(const Batch& a, const Batch& b) {
  if (a.inputs.size() != b.inputs.size() ||
      a.targets.size() != b.targets.size() ||
      a.target_masks.size() != b.target_masks.size() ||
      a.anchor_intervals != b.anchor_intervals) {
    return false;
  }
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    if (!TensorBitEqual(a.inputs[i], b.inputs[i])) return false;
  }
  for (size_t i = 0; i < a.targets.size(); ++i) {
    if (!TensorBitEqual(a.targets[i], b.targets[i])) return false;
    if (!TensorBitEqual(a.target_masks[i], b.target_masks[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Round trip.
// ---------------------------------------------------------------------

TEST(TripLogTest, RoundTripPreservesEveryRecord) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  const std::string path = TestPath("roundtrip.odtl");
  ASSERT_TRUE(WriteTripLog(trips, partition, 6, path));

  TripLogReader reader;
  ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
  EXPECT_TRUE(reader.is_open());
  EXPECT_EQ(reader.num_intervals(), partition.NumIntervals());
  EXPECT_EQ(reader.num_trips(), static_cast<int64_t>(trips.size()));
  EXPECT_EQ(reader.num_regions(), 6);
  EXPECT_EQ(reader.time_partition().interval_minutes(), 360);
  EXPECT_EQ(reader.VerifyPayload(), TripLogStatus::kOk);

  // Interval-by-interval contents match the in-memory bucketing, including
  // within-interval order.
  VectorTripSource memory(&trips, partition);
  std::vector<Trip> from_disk;
  std::vector<Trip> from_memory;
  int64_t total = 0;
  for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
    ASSERT_EQ(reader.ReadInterval(t, &from_disk), TripLogStatus::kOk);
    memory.IntervalTrips(t, &from_memory);
    ASSERT_EQ(from_disk.size(), from_memory.size()) << "interval " << t;
    for (size_t i = 0; i < from_disk.size(); ++i) {
      EXPECT_EQ(from_disk[i].origin, from_memory[i].origin);
      EXPECT_EQ(from_disk[i].destination, from_memory[i].destination);
      EXPECT_EQ(from_disk[i].departure_s, from_memory[i].departure_s);
      EXPECT_EQ(from_disk[i].distance_m, from_memory[i].distance_m);
      EXPECT_EQ(from_disk[i].duration_s, from_memory[i].duration_s);
    }
    total += static_cast<int64_t>(from_disk.size());
  }
  EXPECT_EQ(total, reader.num_trips());
}

TEST(TripLogTest, ReaderIsReusableAfterFailureAndAfterSuccess) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  const std::string path = TestPath("reuse.odtl");
  ASSERT_TRUE(WriteTripLog(trips, partition, 6, path));

  TripLogReader reader;
  EXPECT_EQ(reader.Open(TestPath("missing.odtl")), TripLogStatus::kIoError);
  EXPECT_FALSE(reader.is_open());
  EXPECT_EQ(reader.Open(path), TripLogStatus::kOk);
  EXPECT_TRUE(reader.is_open());
  // Re-open over an already-open reader is also fine.
  EXPECT_EQ(reader.Open(path), TripLogStatus::kOk);
  EXPECT_EQ(reader.VerifyPayload(), TripLogStatus::kOk);
}

// ---------------------------------------------------------------------
// Corruption matrix (mirrors checkpoint_test): typed errors, no aborts,
// no half-open readers.
// ---------------------------------------------------------------------

class TripLogCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    partition_ = std::make_unique<TimePartition>(360, 2);
    trips_ = MakeTrips();
    path_ = TestPath("corrupt.odtl");
    ASSERT_TRUE(WriteTripLog(trips_, *partition_, 6, path_));
    pristine_ = Slurp(path_);
    ASSERT_GT(pristine_.size(), 16u);
  }

  /// Opens `bytes` (written to a scratch file) and expects a typed failure
  /// that leaves the reader closed.
  void ExpectRejected(const std::vector<uint8_t>& bytes) {
    const std::string path = TestPath("mutated.odtl");
    Dump(path, bytes);
    TripLogReader reader;
    const TripLogStatus status = reader.Open(path);
    EXPECT_NE(status, TripLogStatus::kOk);
    EXPECT_FALSE(reader.is_open());
  }

  std::unique_ptr<TimePartition> partition_;
  std::vector<Trip> trips_;
  std::string path_;
  std::vector<uint8_t> pristine_;
};

TEST_F(TripLogCorruptionTest, ZeroLengthFile) {
  const std::string path = TestPath("zero.odtl");
  Dump(path, {});
  TripLogReader reader;
  EXPECT_EQ(reader.Open(path), TripLogStatus::kTruncated);
  EXPECT_FALSE(reader.is_open());
}

TEST_F(TripLogCorruptionTest, MissingFile) {
  TripLogReader reader;
  EXPECT_EQ(reader.Open(TestPath("nope.odtl")), TripLogStatus::kIoError);
  EXPECT_FALSE(reader.is_open());
}

TEST_F(TripLogCorruptionTest, BadMagic) {
  std::vector<uint8_t> bytes = pristine_;
  bytes[0] ^= 0xFF;
  const std::string path = TestPath("magic.odtl");
  Dump(path, bytes);
  TripLogReader reader;
  EXPECT_EQ(reader.Open(path), TripLogStatus::kBadMagic);
}

TEST_F(TripLogCorruptionTest, UnsupportedVersion) {
  std::vector<uint8_t> bytes = pristine_;
  bytes[4] = 99;
  const std::string path = TestPath("version.odtl");
  Dump(path, bytes);
  TripLogReader reader;
  EXPECT_EQ(reader.Open(path), TripLogStatus::kBadVersion);
}

TEST_F(TripLogCorruptionTest, TruncatedEverywhere) {
  // Every strict prefix is rejected with a typed error. (Prefixes that cut
  // into the header are kTruncated; ones that only cut trip records may be
  // kTruncated or kCorrupt depending on what the directory claims — either
  // way, typed, closed, no abort.)
  for (size_t keep = 0; keep < pristine_.size();
       keep += std::max<size_t>(1, pristine_.size() / 97)) {
    ExpectRejected(std::vector<uint8_t>(pristine_.begin(),
                                        pristine_.begin() +
                                            static_cast<int64_t>(keep)));
  }
}

TEST_F(TripLogCorruptionTest, HeaderBitFlipsCaughtAtOpen) {
  // Any flip in the header payload or its CRC is caught by Open itself.
  const size_t header_end = 16 + [&] {
    uint64_t payload_size = 0;
    std::memcpy(&payload_size, pristine_.data() + 8, 8);
    return static_cast<size_t>(payload_size) + 4;
  }();
  for (size_t pos = 8; pos < header_end;
       pos += std::max<size_t>(1, header_end / 61)) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> bytes = pristine_;
      bytes[pos] ^= static_cast<uint8_t>(1u << bit);
      if (bytes == pristine_) continue;
      ExpectRejected(bytes);
    }
  }
}

TEST_F(TripLogCorruptionTest, PayloadBitFlipsCaughtByIntervalCrc) {
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, pristine_.data() + 8, 8);
  const size_t trip_base = 16 + static_cast<size_t>(payload_size) + 4;
  ASSERT_LT(trip_base, pristine_.size());

  for (size_t pos = trip_base; pos < pristine_.size();
       pos += std::max<size_t>(1, (pristine_.size() - trip_base) / 53)) {
    std::vector<uint8_t> bytes = pristine_;
    bytes[pos] ^= 0x10;
    const std::string path = TestPath("flip.odtl");
    Dump(path, bytes);
    TripLogReader reader;
    // The header is intact, so Open succeeds; the sweep must catch the
    // flipped interval with a typed error.
    ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
    const TripLogStatus status = reader.VerifyPayload();
    EXPECT_TRUE(status == TripLogStatus::kCorrupt ||
                status == TripLogStatus::kBadRecord)
        << "flip at " << pos << " -> " << TripLogStatusName(status);
  }
}

TEST_F(TripLogCorruptionTest, ForgedDirectoryCountsRejected) {
  // Inflate interval 0's record count (and shift its successors' offsets
  // accordingly would be the "consistent" forgery — here we only touch the
  // count, so the dense-packing invariant must trip at Open).
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, pristine_.data() + 8, 8);
  const size_t dir_start = 16 + 32;  // after the fixed payload fields
  ASSERT_LT(dir_start + 20, 16 + static_cast<size_t>(payload_size));

  std::vector<uint8_t> bytes = pristine_;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + dir_start + 8, 8);
  count += 1;
  std::memcpy(bytes.data() + dir_start + 8, &count, 8);
  // Keep the header CRC valid so only the structural check can reject it.
  uint32_t crc = Crc32(bytes.data() + 16, static_cast<size_t>(payload_size));
  std::memcpy(bytes.data() + 16 + static_cast<size_t>(payload_size), &crc, 4);

  const std::string path = TestPath("forged.odtl");
  Dump(path, bytes);
  TripLogReader reader;
  EXPECT_EQ(reader.Open(path), TripLogStatus::kCorrupt);
  EXPECT_FALSE(reader.is_open());
}

TEST_F(TripLogCorruptionTest, ForgedTripCountRejected) {
  // num_trips in the header, CRC re-validated: the trip-section size check
  // must reject it.
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, pristine_.data() + 8, 8);
  std::vector<uint8_t> bytes = pristine_;
  uint64_t num_trips = 0;
  std::memcpy(&num_trips, bytes.data() + 16 + 16, 8);
  num_trips += 3;
  std::memcpy(bytes.data() + 16 + 16, &num_trips, 8);
  uint32_t crc = Crc32(bytes.data() + 16, static_cast<size_t>(payload_size));
  std::memcpy(bytes.data() + 16 + static_cast<size_t>(payload_size), &crc, 4);

  const std::string path = TestPath("forged_trips.odtl");
  Dump(path, bytes);
  TripLogReader reader;
  EXPECT_EQ(reader.Open(path), TripLogStatus::kTruncated);
  EXPECT_FALSE(reader.is_open());
}

TEST_F(TripLogCorruptionTest, OutOfRangeRegionIdIsBadRecord) {
  // Rewrite one record's origin to an out-of-range id and fix every CRC on
  // the way, so only record validation can catch it.
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, pristine_.data() + 8, 8);
  const size_t trip_base = 16 + static_cast<size_t>(payload_size) + 4;
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t hostile = 1000;
  std::memcpy(bytes.data() + trip_base, &hostile, 4);

  // Recompute interval 0's directory CRC over its records.
  const size_t dir_start = 16 + 32;
  uint64_t count0 = 0;
  std::memcpy(&count0, bytes.data() + dir_start + 8, 8);
  ASSERT_GT(count0, 0u);
  const uint32_t interval_crc =
      Crc32(bytes.data() + trip_base, static_cast<size_t>(count0) * 32);
  std::memcpy(bytes.data() + dir_start + 16, &interval_crc, 4);
  const uint32_t header_crc =
      Crc32(bytes.data() + 16, static_cast<size_t>(payload_size));
  std::memcpy(bytes.data() + 16 + static_cast<size_t>(payload_size),
              &header_crc, 4);

  const std::string path = TestPath("badrecord.odtl");
  Dump(path, bytes);
  TripLogReader reader;
  ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
  std::vector<Trip> out;
  EXPECT_EQ(reader.ReadInterval(0, &out), TripLogStatus::kBadRecord);
  EXPECT_TRUE(out.empty());  // never half-applied
  EXPECT_EQ(reader.VerifyPayload(), TripLogStatus::kBadRecord);
}

// ---------------------------------------------------------------------
// Streaming source: equivalence, region-pair views, concurrency.
// ---------------------------------------------------------------------

TEST(TripOdSourceTest, BatchesBitIdenticalToMaterializedSeries) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  const SpeedHistogramSpec spec(5, 4.0);
  const std::string path = TestPath("equiv.odtl");
  ASSERT_TRUE(WriteTripLog(trips, partition, 6, path));

  // In-memory path.
  const OdTensorSeries series =
      BuildOdTensorSeries(trips, partition, 6, 6, spec);
  ForecastDataset in_memory(&series, /*history=*/2, /*horizon=*/1);

  // Streaming path: each interval built on demand from the log.
  TripLogReader reader;
  ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
  TripOdSource source(&reader, spec, 6, 6);
  ForecastDataset streaming(&source, /*history=*/2, /*horizon=*/1);

  EXPECT_TRUE(in_memory.has_series());
  EXPECT_FALSE(streaming.has_series());
  ASSERT_EQ(in_memory.NumSamples(), streaming.NumSamples());
  EXPECT_EQ(streaming.num_origins(), 6);
  EXPECT_EQ(streaming.num_buckets(), 5);

  for (int64_t i = 0; i < in_memory.NumSamples(); ++i) {
    EXPECT_TRUE(BatchBitEqual(in_memory.MakeBatch({i}),
                              streaming.MakeBatch({i})))
        << "sample " << i;
  }
  // Multi-sample batches too.
  std::vector<int64_t> all(static_cast<size_t>(in_memory.NumSamples()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
  EXPECT_TRUE(BatchBitEqual(in_memory.MakeBatch(all),
                            streaming.MakeBatch(all)));
}

TEST(TripOdSourceTest, MapperFiltersAndRemaps) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  VectorTripSource vec(&trips, partition);
  const SpeedHistogramSpec spec(4, 5.0);
  TripOdSource store(&vec, spec, 6, 6);
  // Keep only cells out of region 0, remapped to a 1×6 tensor.
  RegionPairMap map = [](int32_t o, int32_t d, int32_t* mo, int32_t* md) {
    if (o != 0) return false;
    *mo = 0;
    *md = d;
    return true;
  };
  MappedOdSource view(&store, map, 1, 6);
  const std::shared_ptr<const OdTensor> tensor = view.Interval(0);
  EXPECT_EQ(tensor->num_origins(), 1);
  EXPECT_EQ(tensor->num_destinations(), 6);

  // Equivalent filtered build.
  std::vector<Trip> filtered;
  std::vector<Trip> interval0;
  vec.IntervalTrips(0, &interval0);
  for (Trip trip : interval0) {
    if (trip.origin != 0) continue;
    filtered.push_back(trip);
  }
  const OdTensor expected = BuildOdTensor(filtered, 1, 6, spec);
  EXPECT_TRUE(TensorBitEqual(tensor->values(), expected.values()));
  EXPECT_TRUE(TensorBitEqual(tensor->mask(), expected.mask()));
  EXPECT_TRUE(TensorBitEqual(tensor->counts(), expected.counts()));
}

bool OdTensorBitEqual(const OdTensor& a, const OdTensor& b) {
  return TensorBitEqual(a.values(), b.values()) &&
         TensorBitEqual(a.mask(), b.mask()) &&
         TensorBitEqual(a.counts(), b.counts());
}

// Readers of different intervals on a fresh store build concurrently and
// all see the bytes of a serial BuildOdTensor.
TEST(TripOdSourceTest, ConcurrentReadersSeeIdenticalTensors) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  const std::string path = TestPath("concurrent.odtl");
  ASSERT_TRUE(WriteTripLog(trips, partition, 6, path));
  TripLogReader reader;
  ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
  const SpeedHistogramSpec spec(4, 5.0);
  TripOdSource source(&reader, spec, 6, 6);

  // Reference tensors built serially, without the store.
  std::vector<OdTensor> expected;
  for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
    std::vector<Trip> interval;
    reader.IntervalTrips(t, &interval);
    expected.push_back(BuildOdTensor(interval, 6, 6, spec));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int rep = 0; rep < 3; ++rep) {
        for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
          const int64_t pick =
              (t + w * 3 + rep) % partition.NumIntervals();
          const std::shared_ptr<const OdTensor> got = source.Interval(pick);
          if (!OdTensorBitEqual(*got, expected[static_cast<size_t>(pick)])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // A record holds the observed cells only.
  for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
    const Tensor& mask = expected[static_cast<size_t>(t)].mask();
    int64_t observed = 0;
    for (int64_t i = 0; i < mask.numel(); ++i) observed += mask[i] != 0.0f;
    EXPECT_EQ(source.Record(t).NumCells(), observed) << "interval " << t;
  }
}

// ---------------------------------------------------------------------
// One store shared by every unit of a sharded city.
// ---------------------------------------------------------------------

/// Trips over `n` regions, `per_interval` per interval: enough that every
/// boundary cell merges several trips.
std::vector<Trip> CityTrips(int64_t n, const TimePartition& tp,
                            int per_interval) {
  std::vector<Trip> trips;
  uint64_t state = 777;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int64_t t = 0; t < tp.NumIntervals(); ++t) {
    const int64_t base_s =
        t * static_cast<int64_t>(tp.interval_minutes()) * 60;
    for (int i = 0; i < per_interval; ++i) {
      Trip trip;
      trip.origin = static_cast<int32_t>(next() % n);
      trip.destination = static_cast<int32_t>(next() % n);
      trip.departure_s =
          base_s + static_cast<int64_t>(next() % (tp.interval_minutes() * 60));
      trip.distance_m = 300.0 + static_cast<double>(next() % 3000);
      trip.duration_s = 60.0 + static_cast<double>(next() % 600);
      trips.push_back(trip);
    }
  }
  return trips;
}

shard::ShardedModelConfig TinyShardConfig(int64_t num_shards) {
  shard::ShardedModelConfig config;
  config.num_shards = num_shards;
  config.spec = SpeedHistogramSpec(5, 3.0);
  config.history = 2;
  config.horizon = 1;
  config.shard_model.cheb_order = 2;
  config.shard_model.conv_filters = 2;
  config.shard_model.num_levels = 1;
  config.shard_model.gcgru_hidden = 2;
  config.boundary_model.cheb_order = 2;
  config.boundary_model.conv_filters = 2;
  config.boundary_model.gcgru_hidden = 2;
  return config;
}

// Every interval of every shard unit and of the boundary unit equals
// BuildOdTensor over the trips the per-trip mapping keeps: intra-shard
// trips in local ids, cross-shard trips in shard ids. The oracle never
// touches the store. All units together build each interval once.
TEST(IntervalStoreTest, ShardedUnitsMatchPerTripOracle) {
  const TimePartition partition(360, 2);
  const RegionGraph city = RegionGraph::Grid(4, 4, 1.0);
  const std::vector<Trip> trips = CityTrips(city.size(), partition, 80);
  VectorTripSource vec(&trips, partition);
  const shard::ShardedModelConfig config = TinyShardConfig(4);

  SetMetricsEnabled(true);
  Counter& misses =
      MetricsRegistry::Global().GetCounter("stream.cache_misses");
  const uint64_t misses_before = misses.value();
  shard::ShardedModel model(city, &vec, config);
  const shard::ShardPartition& part = model.partition();
  ASSERT_GE(model.num_shards(), 2);
  ASSERT_TRUE(model.has_boundary());

  for (int64_t u = 0; u < model.num_units(); ++u) {
    const bool boundary = u == model.num_shards();
    const OdSource& source = boundary ? model.boundary_dataset()->source()
                                      : model.shard_dataset(u).source();
    const int64_t n =
        boundary ? model.num_shards()
                 : static_cast<int64_t>(
                       part.members[static_cast<size_t>(u)].size());
    for (int64_t t = 0; t < partition.NumIntervals(); ++t) {
      std::vector<Trip> interval;
      vec.IntervalTrips(t, &interval);
      std::vector<Trip> kept;
      for (Trip trip : interval) {
        const int32_t so = part.shard_of[static_cast<size_t>(trip.origin)];
        const int32_t sd =
            part.shard_of[static_cast<size_t>(trip.destination)];
        if (boundary) {
          if (so == sd) continue;
          trip.origin = so;
          trip.destination = sd;
        } else {
          if (so != u || sd != u) continue;
          trip.origin = part.local_of[static_cast<size_t>(trip.origin)];
          trip.destination =
              part.local_of[static_cast<size_t>(trip.destination)];
        }
        kept.push_back(trip);
      }
      const OdTensor expected = BuildOdTensor(kept, n, n, config.spec);
      EXPECT_TRUE(OdTensorBitEqual(*source.Interval(t), expected))
          << "unit " << u << " interval " << t;
    }
  }
  EXPECT_EQ(misses.value() - misses_before,
            static_cast<uint64_t>(partition.NumIntervals()));
  SetMetricsEnabled(false);
}

// 17 views (as many as a 16-shard city's units) asking for one interval at
// the same moment build it exactly once; the other 16 read the record.
TEST(IntervalStoreTest, ConcurrentViewsBuildAnIntervalOnce) {
  const TimePartition partition(360, 2);
  const std::vector<Trip> trips = MakeTrips();
  VectorTripSource vec(&trips, partition);
  const SpeedHistogramSpec spec(4, 5.0);
  TripOdSource store(&vec, spec, 6, 6);
  constexpr int kViews = 17;
  std::vector<std::unique_ptr<MappedOdSource>> views;
  for (int v = 0; v < kViews; ++v) {
    views.push_back(std::make_unique<MappedOdSource>(
        &store,
        [v](int32_t o, int32_t d, int32_t* mo, int32_t* md) {
          *mo = 0;
          *md = d;
          return o == v % 6;
        },
        1, 6));
  }

  SetMetricsEnabled(true);
  Counter& hits = MetricsRegistry::Global().GetCounter("stream.cache_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("stream.cache_misses");
  const uint64_t hits_before = hits.value();
  const uint64_t misses_before = misses.value();
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const OdTensor>> got(kViews);
  std::vector<std::thread> threads;
  for (int v = 0; v < kViews; ++v) {
    threads.emplace_back([&, v] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      got[static_cast<size_t>(v)] = views[static_cast<size_t>(v)]->Interval(3);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, static_cast<uint64_t>(kViews - 1));
  SetMetricsEnabled(false);

  std::vector<Trip> interval;
  vec.IntervalTrips(3, &interval);
  for (int v = 0; v < kViews; ++v) {
    std::vector<Trip> kept;
    for (Trip trip : interval) {
      if (trip.origin != v % 6) continue;
      trip.origin = 0;
      kept.push_back(trip);
    }
    EXPECT_TRUE(OdTensorBitEqual(*got[static_cast<size_t>(v)],
                                 BuildOdTensor(kept, 1, 6, spec)))
        << "view " << v;
  }
}

}  // namespace
}  // namespace odf
