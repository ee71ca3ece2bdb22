#include "shard/sharded_model.h"

#include <utility>

#include "util/check.h"
#include "util/env_config.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf::shard {

uint64_t ShardSeed(uint64_t seed, int64_t shard) {
  // splitmix64 over seed ⊕ golden-ratio-spaced shard index: consecutive
  // shards land in unrelated stream positions.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull *
                          (static_cast<uint64_t>(shard) + 2);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ShardedModelConfig::ShardedModelConfig()
    : num_shards(GetEnvInt("ODF_SHARDS", 4)) {
  boundary_model.num_levels = 1;
  boundary_model.proximity = ProximityParams{4.0, 8.0};
}

ShardedModel::ShardedModel(const RegionGraph& city, const TripSource* trips,
                           const ShardedModelConfig& config)
    : city_(&city),
      config_(config),
      store_(trips, config.spec, city.size(), city.size()) {
  partition_ = PartitionRegions(
      city, city.ProximityMatrix(config.partition_proximity),
      config.num_shards);
  const int64_t p_count = partition_.num_shards();

  for (int64_t p = 0; p < p_count; ++p) {
    const std::vector<int64_t>& members = partition_.members[p];
    // Intra-shard cells only, renumbered to shard-local region ids. The
    // partition is captured by reference: it outlives every unit.
    const ShardPartition& part = partition_;
    RegionPairMap map = [&part, p](int32_t o, int32_t d, int32_t* lo,
                                   int32_t* ld) {
      if (part.shard_of[static_cast<size_t>(o)] != p ||
          part.shard_of[static_cast<size_t>(d)] != p) {
        return false;
      }
      *lo = part.local_of[static_cast<size_t>(o)];
      *ld = part.local_of[static_cast<size_t>(d)];
      return true;
    };
    AdvancedFrameworkConfig af = config_.shard_model;
    af.seed = ShardSeed(config_.shard_model.seed, p);
    shards_.push_back(
        MakeUnit(ShardGraph(city, members), std::move(map), af, af.seed));
  }

  if (p_count > 1) {
    // Cross-shard cells only, summed by (shard, shard) pair — the boundary
    // model forecasts one coarse histogram per pair. Its diagonal never
    // observes (intra pairs are filtered), which is loss-safe: the masked
    // loss only scores observed cells.
    const ShardPartition& part = partition_;
    RegionPairMap map = [&part](int32_t o, int32_t d, int32_t* so,
                                int32_t* sd) {
      *so = part.shard_of[static_cast<size_t>(o)];
      *sd = part.shard_of[static_cast<size_t>(d)];
      return *so != *sd;
    };
    AdvancedFrameworkConfig af = config_.boundary_model;
    af.seed = ShardSeed(config_.boundary_model.seed, -1);
    boundary_ = MakeUnit(BoundaryGraph(city, partition_), std::move(map), af,
                         af.seed);
  }
}

std::unique_ptr<ShardedModel::Unit> ShardedModel::MakeUnit(
    RegionGraph graph, RegionPairMap map,
    const AdvancedFrameworkConfig& af_config, uint64_t unit_seed) {
  auto unit = std::make_unique<Unit>(Unit{std::move(graph), nullptr, nullptr,
                                          nullptr});
  const int64_t n = unit->graph.size();
  unit->source =
      std::make_unique<MappedOdSource>(&store_, std::move(map), n, n);
  unit->dataset = std::make_unique<ForecastDataset>(
      unit->source.get(), config_.history, config_.horizon);
  AdvancedFrameworkConfig af = af_config;
  af.seed = unit_seed;
  unit->model = std::make_unique<AdvancedFramework>(
      unit->graph, unit->graph, config_.spec.num_buckets(), config_.horizon,
      af);
  return unit;
}

int64_t ShardedModel::num_units() const {
  return num_shards() + (boundary_ ? 1 : 0);
}

ShardedModel::Unit& ShardedModel::unit(int64_t i) {
  if (i < num_shards()) return *shards_[i];
  ODF_CHECK(boundary_ != nullptr);
  return *boundary_;
}

int64_t ShardedModel::NumSamples() const {
  return shards_.front()->dataset->NumSamples();
}

ForecastDataset::Split ShardedModel::TrainSplit() const {
  return shards_.front()->dataset->ChronologicalSplit(
      config_.train_fraction, config_.validation_fraction);
}

std::vector<TrainResult> ShardedModel::Train(const TrainConfig& config) {
  const int64_t units = num_units();
  const ForecastDataset::Split split = TrainSplit();
  std::vector<TrainResult> results(static_cast<size_t>(units));

  static Counter& trained =
      MetricsRegistry::Global().GetCounter("shard.units_trained");
  ParallelFor(units, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      TraceScope span("shard/", i < num_shards() ? "train_shard"
                                                 : "train_boundary",
                      "shard");
      Unit& u = unit(i);
      TrainConfig unit_config = config;
      unit_config.seed = ShardSeed(config.seed, i < num_shards() ? i : -1);
      if (!config.checkpoint_dir.empty()) {
        unit_config.checkpoint_dir =
            config.checkpoint_dir +
            (i < num_shards() ? "/shard_" + std::to_string(i) : "/boundary");
      }
      results[static_cast<size_t>(i)] =
          TrainForecaster(*u.model, *u.dataset, split, unit_config);
      if (MetricsEnabled()) trained.Add();
    }
  });
  return results;
}

std::vector<Tensor> ShardedModel::Predict(int64_t sample) {
  const int64_t n = city_->size();
  const int64_t k = config_.spec.num_buckets();
  const int64_t horizon = config_.horizon;

  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(horizon));
  for (int64_t h = 0; h < horizon; ++h) {
    out.emplace_back(Shape({n, n, k}));
  }

  for (int64_t p = 0; p < num_shards(); ++p) {
    Unit& u = *shards_[p];
    const std::vector<Tensor> pred =
        u.model->Predict(u.dataset->MakeBatch({sample}));
    const auto& members = partition_.members[p];
    const int64_t np = static_cast<int64_t>(members.size());
    for (int64_t h = 0; h < horizon; ++h) {
      const float* src = pred[static_cast<size_t>(h)].data();  // [1,np,np,k]
      float* dst = out[static_cast<size_t>(h)].data();
      for (int64_t lo = 0; lo < np; ++lo) {
        for (int64_t ld = 0; ld < np; ++ld) {
          const int64_t go = members[static_cast<size_t>(lo)];
          const int64_t gd = members[static_cast<size_t>(ld)];
          std::copy(src + (lo * np + ld) * k, src + (lo * np + ld + 1) * k,
                    dst + (go * n + gd) * k);
        }
      }
    }
  }

  if (boundary_ != nullptr) {
    const std::vector<Tensor> pred =
        boundary_->model->Predict(boundary_->dataset->MakeBatch({sample}));
    const int64_t ps = num_shards();
    for (int64_t h = 0; h < horizon; ++h) {
      const float* src = pred[static_cast<size_t>(h)].data();  // [1,P,P,k]
      float* dst = out[static_cast<size_t>(h)].data();
      for (int64_t go = 0; go < n; ++go) {
        const int64_t so = partition_.shard_of[static_cast<size_t>(go)];
        for (int64_t gd = 0; gd < n; ++gd) {
          const int64_t sd = partition_.shard_of[static_cast<size_t>(gd)];
          if (so == sd) continue;  // intra pairs belong to their shard
          std::copy(src + (so * ps + sd) * k, src + (so * ps + sd + 1) * k,
                    dst + (go * n + gd) * k);
        }
      }
    }
  }
  return out;
}

}  // namespace odf::shard
