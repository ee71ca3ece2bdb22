#ifndef ODF_SHARD_SHARDED_SERVICE_H_
#define ODF_SHARD_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/service.h"
#include "shard/sharded_model.h"

namespace odf::shard {

/// Sharded serving front-end (docs/sharding.md "Serving"): one compiled
/// ForwardPlan + micro-batching ForecastService per shard, plus one for
/// the boundary model, each with its own worker thread and
/// current-interval cache. Queries route by the partition — an OD pair
/// inside one shard hits that shard's service, a cross-shard pair hits
/// the boundary service — and full-city snapshots are assembled by
/// merging every service's cached forecast, refreshed concurrently.
///
/// Plans are compiled at construction from the models' current weights
/// (serve/forward_plan.h): construct after ShardedModel::Train. The model
/// must outlive the service.
///
/// Instrumentation (ODF_METRICS): counters shard.intra_queries /
/// shard.cross_queries, histograms shard.route_ns (per ForecastOd) and
/// shard.merge_ns (per MergedForecast).
class ShardedService {
 public:
  explicit ShardedService(
      ShardedModel* model,
      serve::ServeConfig config = serve::ServeConfig::FromEnv());

  /// Rolls every per-shard service (and the boundary service) over to
  /// window `sample`, invalidating their interval caches together.
  void SetCurrentInterval(int64_t sample);

  /// K-bucket histogram forecast for one OD pair at horizon step `step`
  /// (0 <= step < horizon; regions in [0, N)), served from the owning
  /// service's current-interval cache.
  std::vector<float> ForecastOd(int64_t origin, int64_t destination,
                                int64_t step);

  /// Full-city [N, N, K] forecast at horizon step `step` (0 <= step <
  /// horizon), merged from all services' current-interval forecasts.
  /// Refreshes the units concurrently: it asks every service for its
  /// current forecast before waiting on any, so after a rollover the
  /// shard and boundary workers run their plans at the same time.
  /// Byte-identical to ShardedModel::Predict of the same sample (plans
  /// reproduce Predict bit-for-bit).
  Tensor MergedForecast(int64_t step);

  int64_t num_shards() const { return model_->num_shards(); }
  serve::ForecastService& shard_service(int64_t p) {
    return *shard_services_[p];
  }
  serve::ForecastService* boundary_service() {
    return boundary_service_.get();
  }

 private:
  ShardedModel* model_;
  std::vector<std::unique_ptr<serve::ForecastService>> shard_services_;
  std::unique_ptr<serve::ForecastService> boundary_service_;
};

}  // namespace odf::shard

#endif  // ODF_SHARD_SHARDED_SERVICE_H_
