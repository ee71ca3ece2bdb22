#ifndef ODF_SERVE_SERVICE_H_
#define ODF_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "od/dataset.h"
#include "serve/forward_plan.h"

namespace odf::serve {

/// Accuracy-gate tolerances for the precision check (docs/serving.md
/// "Precision"): a batch is rejected — and served from the fp64 reference
/// plan instead — when any query's per-cell max KL/JS/EMD between the fp32
/// and fp64 plan histograms exceeds these. The values bound what float
/// rounding can legitimately produce on trained checkpoints (measured by
/// bench_serving --precision and enforced by tests/serving_precision_test);
/// a genuine plan divergence lands orders of magnitude above them.
inline constexpr double kPrecisionKlTolerance = 1e-5;
inline constexpr double kPrecisionJsTolerance = 1e-5;
inline constexpr double kPrecisionEmdTolerance = 1e-4;

/// Serving front-end knobs (docs/serving.md).
struct ServeConfig {
  /// Largest number of distinct samples coalesced into one plan execution.
  int64_t max_batch = 8;
  /// How long the worker waits for more queries to arrive after the first
  /// one before closing a batch (the latency budget). 0 disables coalescing.
  int64_t batch_window_us = 200;
  /// Serve repeated current-interval queries from one cached snapshot.
  bool cache_enabled = true;
  /// Arithmetic width to serve at. The service activates this precision as
  /// soon as a plan compiled at it is available (the construction plan or a
  /// later AddPlan); until then it serves at the construction plan's width.
  Precision precision = Precision::kFp32;
  /// When true and plans at BOTH precisions are registered, every batch runs
  /// through both plans and the per-query KL/JS/EMD deltas are checked
  /// against the kPrecision*Tolerance gate; a rejected batch is served from
  /// the fp64 plan. Doubles the serving cost — a validation mode, off by
  /// default.
  bool precision_check = false;

  /// Reads ODF_SERVE_MAX_BATCH / ODF_SERVE_BATCH_WINDOW_US / ODF_SERVE_CACHE
  /// / ODF_SERVE_PRECISION / ODF_SERVE_PRECISION_CHECK (util/env_config.h)
  /// over the defaults above.
  static ServeConfig FromEnv();
};

/// One forecast: `horizon` tensors, each [N, N', K], for a single sample.
/// Shared so concurrent queries for the same sample (and every cache hit)
/// alias one immutable snapshot instead of copying it.
using ForecastResult = std::shared_ptr<const std::vector<Tensor>>;

/// Micro-batching forecast server over one compiled ForwardPlan.
///
/// Queries enqueue a sample index and block on a future; a single worker
/// thread coalesces everything that arrives within `batch_window_us` of the
/// first queued query (up to `max_batch` distinct samples) into one batched
/// plan execution, then slices the per-sample forecasts back out. Duplicate
/// sample indices inside one window share a batch row and a result snapshot.
///
/// The interval cache additionally pins the forecast of the designated
/// "current" interval: after the first miss, `ForecastCurrent` is a lock +
/// shared_ptr copy until `SetCurrentInterval` rolls the interval over. The
/// worker fills the cache itself, before it fulfils a batch's promises,
/// whenever a batch row's sample is the current interval and the batch ran
/// at the current serving width; a batch that a rollover or a precision
/// flip overtook publishes nothing. The cache is keyed on (interval,
/// precision), so flipping the serving precision mid-run can never hand
/// out a stale other-precision histogram. `ForecastCurrentAsync` is the
/// non-blocking form: callers that refresh many services (ShardedService)
/// ask every one first and collect afterwards, so their workers run at the
/// same time.
///
/// Threading: the worker runs every plan serially
/// (`ThreadPool::RunInlineOnThisThread`). A compiled plan is hundreds of
/// microsecond-sized kernels, and waking the pool for each costs more than
/// it saves; serving takes its concurrency from batches and from separate
/// services instead.
///
/// Precision (docs/serving.md "Precision"): the service serves from one
/// plan at a time — `AddPlan` registers a second plan compiled at the other
/// width, `SetPrecision` flips between them, and `config.precision` (the
/// ODF_SERVE_PRECISION knob) picks the width activated automatically once a
/// plan at it exists. With `config.precision_check` on and both plans
/// registered, every batch runs both widths and is gated on the per-query
/// KL/JS/EMD deltas (kPrecision*Tolerance).
///
/// Instrumentation (util/metrics.h, enabled via ODF_METRICS):
///   counters   serve.requests, serve.batches, serve.cache_hits,
///              serve.cache_misses, serve.precision_checks,
///              serve.precision_gate_rejects
///   gauges     serve.queue_depth (after each batch is cut),
///              serve.precision_kl / _js / _emd (largest per-query delta of
///              the latest checked batch; dimensionless)
///   histograms serve.request_seconds, serve.cached_request_seconds,
///              serve.batch_forward_seconds, serve.batch_size (a count,
///              not a duration), plus the plan's serve.plan.* family.
///
/// The dataset must outlive the service (as must the model the plans were
/// compiled from). All public methods are thread-safe.
class ForecastService {
 public:
  ForecastService(const ForecastDataset* dataset, ForwardPlan plan,
                  ServeConfig config = ServeConfig::FromEnv());
  ~ForecastService();

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Registers a second plan compiled at the other precision (same model,
  /// same history). At most one extra plan; if its width matches
  /// `config().precision`, it becomes the serving plan immediately.
  void AddPlan(ForwardPlan plan);

  /// Flips the serving width. A plan compiled at `p` must be registered.
  /// In-flight batches finish at the width they started at.
  void SetPrecision(Precision p);

  /// The width new batches serve at.
  Precision precision() const {
    return static_cast<Precision>(active_.load(std::memory_order_acquire));
  }

  /// Blocking forecast of dataset sample `sample`.
  ForecastResult Forecast(int64_t sample);

  /// Enqueues a forecast of sample `sample` without blocking.
  std::future<ForecastResult> ForecastAsync(int64_t sample);

  /// Forecast of the current interval's sample without blocking: a ready
  /// future when the cache is warm, else ForecastAsync of the current
  /// sample (the first call after a rollover or a precision flip, or any
  /// call with the cache disabled). The worker fills the cache.
  std::future<ForecastResult> ForecastCurrentAsync();

  /// Blocking ForecastCurrentAsync; a hit is a lock + shared_ptr copy.
  ForecastResult ForecastCurrent();

  /// Rolls the current interval over to `sample`, invalidating the cache
  /// when it actually changes.
  void SetCurrentInterval(int64_t sample);

  int64_t current_interval() const;
  const ServeConfig& config() const { return config_; }
  int64_t horizon() const { return plan_.horizon(); }

 private:
  void WorkerLoop();
  void RunBatch(const std::vector<int64_t>& samples);
  /// The cached current-interval forecast, or nullptr on a miss (or with
  /// the cache off); `*sample` receives the current interval either way.
  ForecastResult CachedCurrent(int64_t* sample);
  /// The registered plan compiled at `p`, or nullptr.
  ForwardPlan* PlanFor(Precision p);

  const ForecastDataset* dataset_;
  ForwardPlan plan_;
  ServeConfig config_;

  // Optional second plan at the other width. Published via an atomic pointer
  // so the worker's acquire-load sees a fully constructed plan without
  // holding mu_ across a batch.
  std::unique_ptr<ForwardPlan> extra_storage_;
  std::atomic<ForwardPlan*> extra_{nullptr};
  std::atomic<uint8_t> active_;  // Precision new batches serve at

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<int64_t> order_;  // distinct queued samples, arrival order
  std::unordered_map<int64_t, std::vector<std::promise<ForecastResult>>>
      pending_;

  mutable std::mutex cache_mu_;
  int64_t current_ = 0;
  int64_t cached_interval_ = -1;
  Precision cached_precision_ = Precision::kFp32;
  ForecastResult cached_;

  std::thread worker_;
};

}  // namespace odf::serve

#endif  // ODF_SERVE_SERVICE_H_
