// Shard subsystem tests (docs/sharding.md): the partition is a
// deterministic disjoint cover (byte-identical across runs and thread
// counts — shard membership determines model weights, so this is
// load-bearing), the Graclus coarsener it builds on is itself
// deterministic, the sharded ensemble trains byte-identically across
// ODF_THREADS, and the sharded serving path routes and merges exactly what
// the models predict.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "graph/coarsen.h"
#include "od/trip_log.h"
#include "shard/partition.h"
#include "shard/sharded_model.h"
#include "shard/sharded_service.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

using shard::BoundaryGraph;
using shard::PartitionRegions;
using shard::ShardedModel;
using shard::ShardedModelConfig;
using shard::ShardedService;
using shard::ShardGraph;
using shard::ShardPartition;
using shard::ShardSeed;

bool TensorBitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Deterministic trips over a `rows`×`cols` grid: every interval gets a mix
/// of short intra-neighbourhood and long cross-city trips, so both shard
/// and boundary models observe data.
std::vector<Trip> GridTrips(int rows, int cols, const TimePartition& tp,
                            int per_interval, uint64_t seed) {
  const int64_t n = static_cast<int64_t>(rows) * cols;
  std::vector<Trip> trips;
  uint64_t state = seed;
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
          base_s + static_cast<int64_t>(next() %
                                        (tp.interval_minutes() * 60));
      trip.distance_m = 400.0 + static_cast<double>(next() % 6000);
      trip.duration_s = 60.0 + static_cast<double>(next() % 500);
      trips.push_back(trip);
    }
  }
  return trips;
}

ShardedModelConfig TinyConfig(int64_t num_shards) {
  ShardedModelConfig config;
  config.num_shards = num_shards;
  config.spec = SpeedHistogramSpec(4, 4.0);
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

TrainConfig TinyTrain() {
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 4;
  config.patience = 10;
  config.seed = 11;
  return config;
}

// ---------------------------------------------------------------------
// Coarsener determinism (satellite: shard membership depends on it).
// ---------------------------------------------------------------------

TEST(CoarsenDeterminismTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  const RegionGraph graph = RegionGraph::Grid(6, 6, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});

  const CoarseningLevel first = CoarsenOnce(w);
  for (int run = 0; run < 3; ++run) {
    ThreadPool::Global().Resize(run % 2 == 0 ? 1 : 4);
    const CoarseningLevel again = CoarsenOnce(w);
    ASSERT_EQ(again.clusters, first.clusters);
    ASSERT_TRUE(TensorBitEqual(again.coarse_w, first.coarse_w));
  }
  ThreadPool::Global().Resize(1);

  // The full hierarchy too.
  const auto h1 = BuildCoarseningHierarchy(w, 3);
  const auto h2 = BuildCoarseningHierarchy(w, 3);
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t l = 0; l < h1.size(); ++l) {
    EXPECT_EQ(h1[l].clusters, h2[l].clusters);
    EXPECT_TRUE(TensorBitEqual(h1[l].coarse_w, h2[l].coarse_w));
  }
}

// ---------------------------------------------------------------------
// Partition properties.
// ---------------------------------------------------------------------

TEST(PartitionTest, DisjointCoverWithCanonicalOrder) {
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 4);

  EXPECT_EQ(partition.num_regions, 64);
  ASSERT_GE(partition.num_shards(), 2);
  ASSERT_LE(partition.num_shards(), 4);

  std::vector<int> seen(64, 0);
  int64_t previous_first = -1;
  for (int64_t p = 0; p < partition.num_shards(); ++p) {
    const auto& members = partition.members[p];
    ASSERT_FALSE(members.empty());
    // Ascending members, shards ordered by smallest member.
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
    EXPECT_GT(members.front(), previous_first);
    previous_first = members.front();
    for (int64_t r : members) {
      seen[static_cast<size_t>(r)] += 1;
      EXPECT_EQ(partition.shard_of[static_cast<size_t>(r)], p);
    }
  }
  for (int r = 0; r < 64; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], 1);

  // local_of inverts members.
  for (int64_t r = 0; r < 64; ++r) {
    const auto p = static_cast<size_t>(partition.shard_of[r]);
    const auto l = static_cast<size_t>(partition.local_of[r]);
    EXPECT_EQ(partition.members[p][l], r);
  }
}

TEST(PartitionTest, RoughlyBalanced) {
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 4);
  ASSERT_EQ(partition.num_shards(), 4);
  for (const auto& members : partition.members) {
    // Perfect balance is 16; coarsening granularity can skew it, but no
    // shard should be degenerate or dominant.
    EXPECT_GE(static_cast<int64_t>(members.size()), 4);
    EXPECT_LE(static_cast<int64_t>(members.size()), 32);
  }
}

TEST(PartitionTest, EdgeCases) {
  const RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});

  // P = 1: one shard with everything.
  ShardPartition one = PartitionRegions(graph, w, 1);
  ASSERT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.members[0].size(), 9u);

  // P > n clamps to n: 9 singleton shards.
  ShardPartition many = PartitionRegions(graph, w, 100);
  EXPECT_EQ(many.num_shards(), 9);
  for (const auto& members : many.members) EXPECT_EQ(members.size(), 1u);

  // Edgeless proximity (alpha below the grid pitch) still covers.
  const Tensor disconnected =
      graph.ProximityMatrix(ProximityParams{1.0, 0.5});
  ShardPartition sparse = PartitionRegions(graph, disconnected, 3);
  int64_t total = 0;
  for (const auto& members : sparse.members) {
    total += static_cast<int64_t>(members.size());
  }
  EXPECT_EQ(total, 9);
}

TEST(PartitionTest, SpatiallyCoherentShards) {
  // With a neighbour-only proximity kernel, coarsening merges neighbours,
  // so every shard's bounding box should be far smaller than the city's.
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 1.5});
  const ShardPartition partition = PartitionRegions(graph, w, 4);
  for (const auto& members : partition.members) {
    double max_pair_km = 0.0;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        max_pair_km =
            std::max(max_pair_km, graph.DistanceKm(members[a], members[b]));
      }
    }
    // City diameter is ~9.9 km; coherent shards stay well under it.
    EXPECT_LT(max_pair_km, 8.0);
  }
}

TEST(PartitionTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition first = PartitionRegions(graph, w, 4);
  for (int run = 0; run < 3; ++run) {
    ThreadPool::Global().Resize(run % 2 == 0 ? 4 : 1);
    const ShardPartition again = PartitionRegions(graph, w, 4);
    ASSERT_EQ(again.members, first.members);
    ASSERT_EQ(again.shard_of, first.shard_of);
    ASSERT_EQ(again.local_of, first.local_of);
  }
  ThreadPool::Global().Resize(1);
}

TEST(PartitionTest, ShardAndBoundaryGraphsPreserveGeometry) {
  const RegionGraph graph = RegionGraph::Grid(4, 4, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 2);

  const RegionGraph sub = ShardGraph(graph, partition.members[0]);
  ASSERT_EQ(sub.size(),
            static_cast<int64_t>(partition.members[0].size()));
  for (size_t i = 0; i < partition.members[0].size(); ++i) {
    EXPECT_EQ(sub.region(static_cast<int64_t>(i)).centroid_x_km,
              graph.region(partition.members[0][i]).centroid_x_km);
  }

  const RegionGraph coarse = BoundaryGraph(graph, partition);
  EXPECT_EQ(coarse.size(), partition.num_shards());
}

// ---------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------

TEST(ShardSeedTest, DistinctPerShardAndPerMaster) {
  std::vector<uint64_t> seeds;
  for (int64_t p = -1; p < 16; ++p) seeds.push_back(ShardSeed(7, p));
  for (size_t a = 0; a < seeds.size(); ++a) {
    for (size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
  EXPECT_NE(ShardSeed(7, 0), ShardSeed(8, 0));
}

// ---------------------------------------------------------------------
// End-to-end: train determinism across thread counts, routing, merging.
// ---------------------------------------------------------------------

class ShardedEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tp_ = std::make_unique<TimePartition>(360, 2);  // 8 intervals
    trips_ = GridTrips(4, 4, *tp_, /*per_interval=*/48, /*seed=*/99);
    source_ = std::make_unique<VectorTripSource>(&trips_, *tp_);
    city_ = std::make_unique<RegionGraph>(RegionGraph::Grid(4, 4, 1.0));
  }

  std::unique_ptr<TimePartition> tp_;
  std::vector<Trip> trips_;
  std::unique_ptr<VectorTripSource> source_;
  std::unique_ptr<RegionGraph> city_;
};

TEST_F(ShardedEndToEndTest, TrainAndPredictByteIdenticalAcrossThreadCounts) {
  std::vector<std::vector<TrainResult>> results;
  std::vector<std::vector<Tensor>> predictions;
  for (int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    ShardedModel model(*city_, source_.get(), TinyConfig(4));
    results.push_back(model.Train(TinyTrain()));
    predictions.push_back(model.Predict(0));
  }
  ThreadPool::Global().Resize(1);

  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t u = 0; u < results[0].size(); ++u) {
    EXPECT_EQ(results[0][u].train_losses, results[1][u].train_losses)
        << "unit " << u;
    EXPECT_EQ(results[0][u].validation_losses,
              results[1][u].validation_losses)
        << "unit " << u;
  }
  ASSERT_EQ(predictions[0].size(), predictions[1].size());
  for (size_t h = 0; h < predictions[0].size(); ++h) {
    EXPECT_TRUE(TensorBitEqual(predictions[0][h], predictions[1][h]));
  }
}

TEST_F(ShardedEndToEndTest, ServiceRoutesAndMergesExactly) {
  ShardedModel model(*city_, source_.get(), TinyConfig(4));
  ASSERT_TRUE(model.has_boundary());
  model.Train(TinyTrain());

  const int64_t sample = 1;
  const std::vector<Tensor> direct = model.Predict(sample);

  ShardedService service(&model);
  service.SetCurrentInterval(sample);

  // Full-city merge is byte-identical to the direct (tape) prediction:
  // compiled plans reproduce Predict bit-for-bit.
  const Tensor merged = service.MergedForecast(0);
  EXPECT_TRUE(TensorBitEqual(merged, direct[0]));

  // Per-pair routing agrees with the merged tensor on intra- and
  // cross-shard pairs alike.
  const ShardPartition& partition = model.partition();
  const int64_t n = partition.num_regions;
  const int64_t k = model.config().spec.num_buckets();
  int intra = 0;
  int cross = 0;
  for (int64_t o = 0; o < n; o += 3) {
    for (int64_t d = 0; d < n; d += 5) {
      const std::vector<float> hist = service.ForecastOd(o, d, 0);
      ASSERT_EQ(hist.size(), static_cast<size_t>(k));
      const float* expected = merged.data() + (o * n + d) * k;
      for (int64_t b = 0; b < k; ++b) {
        EXPECT_EQ(hist[static_cast<size_t>(b)], expected[b])
            << "pair (" << o << "," << d << ") bucket " << b;
      }
      (partition.SameShard(o, d) ? intra : cross) += 1;
    }
  }
  EXPECT_GT(intra, 0);
  EXPECT_GT(cross, 0);

  // Concurrent refresh: over several rollovers, a reader routes OD pairs
  // while the merge refreshes every unit at once. Every merge stays
  // byte-identical to Predict, whatever the pool size (service workers run
  // their plans serially either way).
  const int64_t samples = model.NumSamples();
  std::vector<std::vector<Tensor>> want;
  for (int64_t s = 0; s < samples; ++s) want.push_back(model.Predict(s));
  const int saved = ThreadPool::Global().threads();
  for (int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    std::atomic<bool> done{false};
    std::atomic<int> bad_reads{0};
    std::thread reader([&] {
      for (int64_t i = 0; !done.load(); ++i) {
        const std::vector<float> hist =
            service.ForecastOd(i % n, (i * 7 + 3) % n, 0);
        if (hist.size() != static_cast<size_t>(k)) bad_reads.fetch_add(1);
      }
    });
    for (int64_t roll = 0; roll < 2 * samples; ++roll) {
      const int64_t current = (sample + 1 + roll) % samples;
      service.SetCurrentInterval(current);
      EXPECT_TRUE(TensorBitEqual(service.MergedForecast(0),
                                 want[static_cast<size_t>(current)][0]))
          << "threads " << threads << " sample " << current;
    }
    done.store(true);
    reader.join();
    EXPECT_EQ(bad_reads.load(), 0);
  }
  ThreadPool::Global().Resize(saved);
}

// Out-of-range arguments at the sharded serving boundary are contract
// violations, caught before any service is asked.
using ShardedServiceDeathTest = ShardedEndToEndTest;

TEST_F(ShardedServiceDeathTest, OutOfRangeStepAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedModel model(*city_, source_.get(), TinyConfig(4));
  ShardedService service(&model);
  service.SetCurrentInterval(0);
  const int64_t horizon = model.config().horizon;
  EXPECT_DEATH(service.ForecastOd(0, 1, horizon), "CHECK");
  EXPECT_DEATH(service.ForecastOd(0, 1, -1), "CHECK");
  EXPECT_DEATH(service.MergedForecast(horizon), "CHECK");
  EXPECT_DEATH(service.MergedForecast(-1), "CHECK");
}

TEST_F(ShardedEndToEndTest, SingleShardHasNoBoundaryModel) {
  ShardedModel model(*city_, source_.get(), TinyConfig(1));
  EXPECT_EQ(model.num_shards(), 1);
  EXPECT_FALSE(model.has_boundary());
  EXPECT_EQ(model.boundary_model(), nullptr);
  EXPECT_EQ(model.num_units(), 1);
  model.Train(TinyTrain());
  const std::vector<Tensor> predicted = model.Predict(0);
  ASSERT_EQ(predicted.size(), 1u);
  EXPECT_EQ(predicted[0].dim(0), 16);
  EXPECT_EQ(predicted[0].dim(1), 16);
}

TEST_F(ShardedEndToEndTest, StreamingLogBackendMatchesInMemoryBackend) {
  // The same ensemble built over the on-disk trip log trains to the same
  // bytes as over the in-memory vector source.
  const std::string path = ::testing::TempDir() + "/shard_e2e.odtl";
  ASSERT_TRUE(WriteTripLog(trips_, *tp_, city_->size(), path));
  TripLogReader reader;
  ASSERT_EQ(reader.Open(path), TripLogStatus::kOk);
  ASSERT_EQ(reader.VerifyPayload(), TripLogStatus::kOk);

  ShardedModel from_memory(*city_, source_.get(), TinyConfig(2));
  ShardedModel from_disk(*city_, &reader, TinyConfig(2));
  const auto results_memory = from_memory.Train(TinyTrain());
  const auto results_disk = from_disk.Train(TinyTrain());
  ASSERT_EQ(results_memory.size(), results_disk.size());
  for (size_t u = 0; u < results_memory.size(); ++u) {
    EXPECT_EQ(results_memory[u].train_losses, results_disk[u].train_losses);
  }
  const std::vector<Tensor> p_memory = from_memory.Predict(2);
  const std::vector<Tensor> p_disk = from_disk.Predict(2);
  ASSERT_EQ(p_memory.size(), p_disk.size());
  for (size_t h = 0; h < p_memory.size(); ++h) {
    EXPECT_TRUE(TensorBitEqual(p_memory[h], p_disk[h]));
  }
}

}  // namespace
}  // namespace odf
