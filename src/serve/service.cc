#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "metrics/divergence.h"
#include "util/env_config.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odf::serve {

namespace {

struct ServeMetrics {
  Counter& requests =
      MetricsRegistry::Global().GetCounter("serve.requests");
  Counter& batches = MetricsRegistry::Global().GetCounter("serve.batches");
  Counter& cache_hits =
      MetricsRegistry::Global().GetCounter("serve.cache_hits");
  Counter& cache_misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  Gauge& queue_depth =
      MetricsRegistry::Global().GetGauge("serve.queue_depth");
  Histogram& request_seconds =
      MetricsRegistry::Global().GetHistogram("serve.request_seconds");
  Histogram& cached_request_seconds =
      MetricsRegistry::Global().GetHistogram("serve.cached_request_seconds");
  Histogram& batch_forward_seconds =
      MetricsRegistry::Global().GetHistogram("serve.batch_forward_seconds");
  Histogram& batch_size =
      MetricsRegistry::Global().GetHistogram("serve.batch_size");
  Counter& precision_checks =
      MetricsRegistry::Global().GetCounter("serve.precision_checks");
  Counter& precision_gate_rejects =
      MetricsRegistry::Global().GetCounter("serve.precision_gate_rejects");
  Gauge& precision_kl =
      MetricsRegistry::Global().GetGauge("serve.precision_kl");
  Gauge& precision_js =
      MetricsRegistry::Global().GetGauge("serve.precision_js");
  Gauge& precision_emd =
      MetricsRegistry::Global().GetGauge("serve.precision_emd");
};

ServeMetrics& Metrics() {
  static ServeMetrics m;
  return m;
}

}  // namespace

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.max_batch = GetEnvInt("ODF_SERVE_MAX_BATCH", config.max_batch);
  config.batch_window_us =
      GetEnvInt("ODF_SERVE_BATCH_WINDOW_US", config.batch_window_us);
  config.cache_enabled = GetEnvBool("ODF_SERVE_CACHE", config.cache_enabled);
  const std::string precision =
      GetEnvString("ODF_SERVE_PRECISION", PrecisionName(config.precision));
  if (precision == "fp64") {
    config.precision = Precision::kFp64;
  } else {
    ODF_CHECK(precision == "fp32")
        << "ODF_SERVE_PRECISION must be fp32 or fp64, got: " << precision;
    config.precision = Precision::kFp32;
  }
  config.precision_check =
      GetEnvBool("ODF_SERVE_PRECISION_CHECK", config.precision_check);
  return config;
}

ForecastService::ForecastService(const ForecastDataset* dataset,
                                 ForwardPlan plan, ServeConfig config)
    : dataset_(dataset),
      plan_(std::move(plan)),
      config_(config),
      active_(static_cast<uint8_t>(plan_.precision())) {
  ODF_CHECK(dataset_ != nullptr);
  ODF_CHECK_EQ(plan_.history(), dataset_->history());
  ODF_CHECK_GE(config_.max_batch, 1);
  ODF_CHECK_GE(config_.batch_window_us, 0);
  worker_ = std::thread(&ForecastService::WorkerLoop, this);
}

ForecastService::~ForecastService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void ForecastService::AddPlan(ForwardPlan plan) {
  ODF_CHECK(extra_.load(std::memory_order_acquire) == nullptr)
      << "at most one extra plan can be registered";
  ODF_CHECK_EQ(plan.history(), plan_.history());
  ODF_CHECK_EQ(plan.horizon(), plan_.horizon());
  ODF_CHECK(plan.precision() != plan_.precision())
      << "extra plan must be compiled at the other precision";
  extra_storage_ = std::make_unique<ForwardPlan>(std::move(plan));
  extra_.store(extra_storage_.get(), std::memory_order_release);
  if (config_.precision == extra_storage_->precision()) {
    SetPrecision(config_.precision);
  }
}

void ForecastService::SetPrecision(Precision p) {
  ODF_CHECK(PlanFor(p) != nullptr)
      << "no plan compiled at " << PrecisionName(p) << " is registered";
  active_.store(static_cast<uint8_t>(p), std::memory_order_release);
}

ForwardPlan* ForecastService::PlanFor(Precision p) {
  if (plan_.precision() == p) return &plan_;
  ForwardPlan* extra = extra_.load(std::memory_order_acquire);
  if (extra != nullptr && extra->precision() == p) return extra;
  return nullptr;
}

std::future<ForecastResult> ForecastService::ForecastAsync(int64_t sample) {
  ODF_CHECK_GE(sample, 0);
  ODF_CHECK_LT(sample, dataset_->NumSamples());
  Metrics().requests.Add(1);
  std::promise<ForecastResult> promise;
  std::future<ForecastResult> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::promise<ForecastResult>>& waiters = pending_[sample];
    if (waiters.empty()) order_.push_back(sample);
    waiters.push_back(std::move(promise));
  }
  cv_.notify_one();
  return future;
}

ForecastResult ForecastService::Forecast(int64_t sample) {
  ScopedTimer timer(Metrics().request_seconds);
  return ForecastAsync(sample).get();
}

ForecastResult ForecastService::CachedCurrent(int64_t* sample) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  *sample = current_;
  if (!config_.cache_enabled) return nullptr;
  if (cached_ != nullptr && cached_interval_ == current_ &&
      cached_precision_ == precision()) {
    Metrics().cache_hits.Add(1);
    return cached_;
  }
  Metrics().cache_misses.Add(1);
  return nullptr;
}

std::future<ForecastResult> ForecastService::ForecastCurrentAsync() {
  int64_t sample = 0;
  if (ForecastResult hit = CachedCurrent(&sample)) {
    std::promise<ForecastResult> ready;
    ready.set_value(std::move(hit));
    return ready.get_future();
  }
  return ForecastAsync(sample);
}

ForecastResult ForecastService::ForecastCurrent() {
  ScopedTimer timer(Metrics().cached_request_seconds);
  // Same as ForecastCurrentAsync().get(), without a future's shared state
  // on the hit path.
  int64_t sample = 0;
  if (ForecastResult hit = CachedCurrent(&sample)) return hit;
  return ForecastAsync(sample).get();
}

void ForecastService::SetCurrentInterval(int64_t sample) {
  ODF_CHECK_GE(sample, 0);
  ODF_CHECK_LT(sample, dataset_->NumSamples());
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (sample == current_) return;
  current_ = sample;
  cached_.reset();
  cached_interval_ = -1;
}

int64_t ForecastService::current_interval() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return current_;
}

void ForecastService::WorkerLoop() {
  // Plans run serially here: concurrency comes from batches and from other
  // services' workers, not from waking the pool for every small kernel.
  ThreadPool::RunInlineOnThisThread();
  std::vector<int64_t> samples;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !order_.empty(); });
      if (order_.empty()) return;  // stop_ and drained
      if (static_cast<int64_t>(order_.size()) < config_.max_batch &&
          config_.batch_window_us > 0) {
        // Latency budget: hold the batch open briefly for more arrivals.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(config_.batch_window_us);
        cv_.wait_until(lock, deadline, [&] {
          return stop_ ||
                 static_cast<int64_t>(order_.size()) >= config_.max_batch;
        });
      }
      samples.clear();
      while (!order_.empty() &&
             static_cast<int64_t>(samples.size()) < config_.max_batch) {
        samples.push_back(order_.front());
        order_.pop_front();
      }
      Metrics().queue_depth.Set(static_cast<double>(order_.size()));
    }
    RunBatch(samples);
  }
}

void ForecastService::RunBatch(const std::vector<int64_t>& samples) {
  const std::vector<Tensor> inputs = dataset_->MakeInputs(samples);
  const Precision active = precision();
  ForwardPlan* serving = PlanFor(active);
  ODF_CHECK(serving != nullptr);
  {
    ScopedTimer timer(Metrics().batch_forward_seconds);
    serving->Run(inputs);
  }
  Metrics().batches.Add(1);
  Metrics().batch_size.Record(samples.size());

  // Accuracy gate (docs/serving.md "Precision"): with the check on and both
  // widths registered, run the other plan on the same inputs and compare the
  // per-query worst-case histogram deltas against the tolerances. A rejected
  // batch is served from the fp64 reference plan.
  ForwardPlan* result_plan = serving;
  ForwardPlan* fp32 = PlanFor(Precision::kFp32);
  ForwardPlan* fp64 = PlanFor(Precision::kFp64);
  if (config_.precision_check && fp32 != nullptr && fp64 != nullptr) {
    ForwardPlan* other = serving == fp32 ? fp64 : fp32;
    other->Run(inputs);
    bool reject = false;
    const int64_t k = fp32->output(0).dim(3);  // histogram buckets
    double batch_kl = 0.0;
    double batch_js = 0.0;
    double batch_emd = 0.0;
    for (size_t row = 0; row < samples.size(); ++row) {
      double max_kl = 0.0;
      double max_js = 0.0;
      double max_emd = 0.0;
      for (int64_t j = 0; j < plan_.horizon(); ++j) {
        const Tensor& ref = fp64->output(j);  // [B, N, N', K]
        const Tensor& low = fp32->output(j);
        const int64_t per_row = ref.numel() / ref.dim(0);
        const float* pr = ref.data() + static_cast<int64_t>(row) * per_row;
        const float* pl = low.data() + static_cast<int64_t>(row) * per_row;
        for (int64_t c = 0; c < per_row / k; ++c, pr += k, pl += k) {
          max_kl = std::max(max_kl, std::fabs(KlDivergence(pr, pl, k)));
          max_js = std::max(max_js, std::fabs(JsDivergence(pr, pl, k)));
          max_emd = std::max(max_emd, EarthMoversDistance(pr, pl, k));
        }
      }
      Metrics().precision_checks.Add(1);
      batch_kl = std::max(batch_kl, max_kl);
      batch_js = std::max(batch_js, max_js);
      batch_emd = std::max(batch_emd, max_emd);
      if (max_kl > kPrecisionKlTolerance || max_js > kPrecisionJsTolerance ||
          max_emd > kPrecisionEmdTolerance) {
        reject = true;
      }
    }
    Metrics().precision_kl.Set(batch_kl);
    Metrics().precision_js.Set(batch_js);
    Metrics().precision_emd.Set(batch_emd);
    if (reject) {
      Metrics().precision_gate_rejects.Add(1);
      result_plan = fp64;
    }
  }

  const int64_t horizon = plan_.horizon();
  std::vector<ForecastResult> results;
  results.reserve(samples.size());
  for (size_t row = 0; row < samples.size(); ++row) {
    auto forecast = std::make_shared<std::vector<Tensor>>();
    forecast->reserve(static_cast<size_t>(horizon));
    for (int64_t j = 0; j < horizon; ++j) {
      const Tensor& out = result_plan->output(j);  // [B, N, N', K]
      std::vector<int64_t> dims(out.shape().dims().begin() + 1,
                                out.shape().dims().end());
      Tensor slice{Shape(dims)};
      const int64_t stride = slice.numel();
      std::copy(out.data() + static_cast<int64_t>(row) * stride,
                out.data() + static_cast<int64_t>(row + 1) * stride,
                slice.data());
      forecast->push_back(std::move(slice));
    }
    results.push_back(std::move(forecast));
  }

  // Publish the current interval's row to the cache before any waiter
  // wakes, so the caller's next ForecastCurrent is a hit. Only if neither
  // the interval nor the serving width rolled over since the batch started.
  if (config_.cache_enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (size_t row = 0; row < samples.size(); ++row) {
      if (samples[row] == current_ && precision() == active) {
        cached_ = results[row];
        cached_interval_ = current_;
        cached_precision_ = active;
        break;  // a batch's samples are distinct
      }
    }
  }

  // Fulfill outside mu_ so waiters never contend with the queue.
  std::vector<std::vector<std::promise<ForecastResult>>> waiters;
  waiters.reserve(samples.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t sample : samples) {
      auto it = pending_.find(sample);
      ODF_CHECK(it != pending_.end());
      waiters.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  for (size_t i = 0; i < waiters.size(); ++i) {
    for (std::promise<ForecastResult>& promise : waiters[i]) {
      promise.set_value(results[i]);
    }
  }
}

}  // namespace odf::serve
