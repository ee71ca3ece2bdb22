#include "shard/sharded_service.h"

#include <algorithm>
#include <future>

#include "serve/forward_plan.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf::shard {

ShardedService::ShardedService(ShardedModel* model, serve::ServeConfig config)
    : model_(model) {
  ODF_CHECK(model != nullptr);
  const int64_t history = model->config().history;
  shard_services_.reserve(static_cast<size_t>(model->num_shards()));
  for (int64_t p = 0; p < model->num_shards(); ++p) {
    shard_services_.push_back(std::make_unique<serve::ForecastService>(
        &model->shard_dataset(p),
        serve::PlanCompiler::Compile(model->shard_model(p), history),
        config));
  }
  if (model->has_boundary()) {
    boundary_service_ = std::make_unique<serve::ForecastService>(
        model->boundary_dataset(),
        serve::PlanCompiler::Compile(*model->boundary_model(), history),
        config);
  }
}

void ShardedService::SetCurrentInterval(int64_t sample) {
  for (auto& service : shard_services_) service->SetCurrentInterval(sample);
  if (boundary_service_) boundary_service_->SetCurrentInterval(sample);
}

std::vector<float> ShardedService::ForecastOd(int64_t origin,
                                              int64_t destination,
                                              int64_t step) {
  static Counter& intra =
      MetricsRegistry::Global().GetCounter("shard.intra_queries");
  static Counter& cross =
      MetricsRegistry::Global().GetCounter("shard.cross_queries");
  static Histogram& route_ns =
      MetricsRegistry::Global().GetHistogram("shard.route_ns");
  ScopedTimer timer(route_ns);

  const ShardPartition& part = model_->partition();
  ODF_CHECK_GE(origin, 0);
  ODF_CHECK_LT(origin, part.num_regions);
  ODF_CHECK_GE(destination, 0);
  ODF_CHECK_LT(destination, part.num_regions);
  ODF_CHECK_GE(step, 0);
  ODF_CHECK_LT(step, model_->config().horizon);
  const int64_t so = part.shard_of[static_cast<size_t>(origin)];
  const int64_t sd = part.shard_of[static_cast<size_t>(destination)];

  int64_t row = 0;
  int64_t col = 0;
  serve::ForecastService* service = nullptr;
  if (so == sd) {
    if (MetricsEnabled()) intra.Add();
    service = shard_services_[static_cast<size_t>(so)].get();
    row = part.local_of[static_cast<size_t>(origin)];
    col = part.local_of[static_cast<size_t>(destination)];
  } else {
    if (MetricsEnabled()) cross.Add();
    ODF_CHECK(boundary_service_ != nullptr);
    service = boundary_service_.get();
    row = so;
    col = sd;
  }

  const serve::ForecastResult result = service->ForecastCurrent();
  const Tensor& tensor = (*result)[static_cast<size_t>(step)];
  const int64_t cols = tensor.dim(1);
  const int64_t k = tensor.dim(2);
  const float* cell = tensor.data() + (row * cols + col) * k;
  return std::vector<float>(cell, cell + k);
}

Tensor ShardedService::MergedForecast(int64_t step) {
  static Histogram& merge_ns =
      MetricsRegistry::Global().GetHistogram("shard.merge_ns");
  ScopedTimer timer(merge_ns);
  TraceScope span("shard/", "merge", "shard");
  ODF_CHECK_GE(step, 0);
  ODF_CHECK_LT(step, model_->config().horizon);

  // Ask every unit before waiting on any, so cold units refresh in
  // parallel on their own workers.
  std::vector<std::future<serve::ForecastResult>> pending;
  pending.reserve(shard_services_.size() + 1);
  for (auto& service : shard_services_) {
    pending.push_back(service->ForecastCurrentAsync());
  }
  if (boundary_service_ != nullptr) {
    pending.push_back(boundary_service_->ForecastCurrentAsync());
  }

  const ShardPartition& part = model_->partition();
  const int64_t n = part.num_regions;
  const int64_t ps = part.num_shards();
  const int64_t k = model_->config().spec.num_buckets();
  Tensor out(Shape({n, n, k}));
  float* dst = out.data();

  for (int64_t p = 0; p < ps; ++p) {
    const serve::ForecastResult result =
        pending[static_cast<size_t>(p)].get();
    const Tensor& tensor = (*result)[static_cast<size_t>(step)];
    const auto& members = part.members[static_cast<size_t>(p)];
    const int64_t np = static_cast<int64_t>(members.size());
    const float* src = tensor.data();  // [np, np, k]
    for (int64_t lo = 0; lo < np; ++lo) {
      for (int64_t ld = 0; ld < np; ++ld) {
        const int64_t go = members[static_cast<size_t>(lo)];
        const int64_t gd = members[static_cast<size_t>(ld)];
        std::copy(src + (lo * np + ld) * k, src + (lo * np + ld + 1) * k,
                  dst + (go * n + gd) * k);
      }
    }
  }

  if (boundary_service_ != nullptr) {
    const serve::ForecastResult result =
        pending[static_cast<size_t>(ps)].get();
    const Tensor& tensor = (*result)[static_cast<size_t>(step)];
    const float* src = tensor.data();  // [P, P, k]
    for (int64_t go = 0; go < n; ++go) {
      const int64_t so = part.shard_of[static_cast<size_t>(go)];
      for (int64_t gd = 0; gd < n; ++gd) {
        const int64_t sd = part.shard_of[static_cast<size_t>(gd)];
        if (so == sd) continue;
        std::copy(src + (so * ps + sd) * k, src + (so * ps + sd + 1) * k,
                  dst + (go * n + gd) * k);
      }
    }
  }
  return out;
}

}  // namespace odf::shard
