// Workload `train`: a paper-default AF fitted on streamed windows.
//
// Set-up: a NYC-like 6×6 city, 4 simulated days at 30 min, is written to an
// ODTL log and read back through TripLogReader → TripOdSource →
// ForecastDataset (history 6, horizon 1).
//
// Timed: the training loop of TrainForecaster (batch 16, no early stop, no
// checkpoints), driven through the same public calls it makes —
// ShuffledBatches, MakeBatch, ZeroGrad, Loss, Backward, ClipGradNorm, Step,
// EvaluateLoss — so that every optimizer step can be timed on its own.
// The model is then scored on the test split with EvaluateForecaster.
// Checked: TrainForecaster itself, run for the first epochs on a fresh
// model with the same seed, must give the timed loop's losses bit for bit.
//
// The traced run repeats the loop on a fresh world with every call in a
// span, and requires its losses to equal the untraced loop's and
// TrainForecaster's bit for bit.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "core/advanced_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "nn/optimizer.h"
#include "od/stream_source.h"
#include "od/trip_log.h"
#include "sim/trip_generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odb {
namespace {

constexpr int kSetups = 5;
/// Epochs TrainForecaster runs to check the timed loop against.
constexpr int kCheckedEpochs = 1;

struct World {
  explicit World(odf::DatasetSpec s) : spec(std::move(s)) {}
  odf::DatasetSpec spec;
  std::unique_ptr<odf::TripLogReader> reader;
  std::unique_ptr<odf::TripOdSource> source;
  std::unique_ptr<odf::ForecastDataset> dataset;
  odf::ForecastDataset::Split split;
  std::unique_ptr<odf::AdvancedFramework> model;
};

/// Replaces the model with a freshly initialised one (the same weights
/// every time), freeing the old one first.
void FreshModel(World& w) {
  w.model.reset();
  w.model = std::make_unique<odf::AdvancedFramework>(
      w.spec.graph, w.spec.graph, odf::SpeedHistogramSpec::Paper().num_buckets(),
      /*horizon=*/1, odf::AdvancedFrameworkConfig{});
}

std::unique_ptr<World> SetUp(const Options& opt, int index) {
  auto w = std::make_unique<World>(
      odf::MakeNycLike(6, 6, /*num_days=*/4, /*interval_minutes=*/30));
  const odf::TimePartition tp(w->spec.config.interval_minutes,
                              w->spec.config.num_days);
  const int64_t n = w->spec.graph.size();
  const std::string log = opt.work_dir + "/train-" + std::to_string(index) +
                          ".odtl";
  {
    odf::TripGenerator generator(w->spec.graph, w->spec.config);
    if (!odf::WriteTripLog(generator.Generate(), tp, n, log)) return nullptr;
  }
  w->reader = std::make_unique<odf::TripLogReader>();
  if (w->reader->Open(log) != odf::TripLogStatus::kOk) return nullptr;
  w->source = std::make_unique<odf::TripOdSource>(
      w->reader.get(), odf::SpeedHistogramSpec::Paper(), n, n);
  w->dataset = std::make_unique<odf::ForecastDataset>(w->source.get(),
                                                      /*history=*/6,
                                                      /*horizon=*/1);
  w->split = w->dataset->ChronologicalSplit(0.7, 0.1);
  FreshModel(*w);
  return w;
}

/// The timed loop's configuration; its epoch count scales with --seconds
/// (7 at 20 s, about 3.4 s each on 4 cores).
odf::TrainConfig MakeTrainConfig(const Options& opt) {
  odf::TrainConfig config;
  config.epochs = std::max(kCheckedEpochs + 1, opt.seconds * 7 / 20);
  config.batch_size = 16;
  config.patience = 1'000'000;  // fixed work: no early stop
  config.seed = opt.seed;
  return config;
}

/// What one run of the training loop gives back.
struct LoopRun {
  odf::TrainResult losses;        // per epoch
  std::vector<double> step_loss;  // per optimizer step
  std::vector<double> full_ms;    // wall time of each full-batch step
  double steps_ms = 0.0;          // wall time of all steps
  double eval_ms = 0.0;           // wall time of the per-epoch validation
};

/// TrainForecaster's loop, call by call. Each step is timed; with a span
/// log, each call is also a span and `layers` receives the per-step layer
/// figures from the spans and the registry.
LoopRun TrainStepwise(const odf::TrainConfig& config, World& w,
                      SpanLog* spans, std::map<std::string, double>* layers) {
  odf::NeuralForecaster& model = *w.model;
  const odf::ForecastDataset& dataset = *w.dataset;
  odf::Rng rng(config.seed);
  model.set_dropout_rate(config.dropout);
  odf::nn::Adam optimizer(model.Parameters(), config.learning_rate);
  odf::nn::StepDecaySchedule schedule(config.learning_rate, config.lr_decay,
                                      config.lr_decay_every_epochs);
  const std::vector<int64_t>& val =
      w.split.validation.empty() ? w.split.train : w.split.validation;

  LoopRun out;
  std::map<std::string, double> sums;  // registry deltas over step loops
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    ScopedSpan epoch_span(spans, "train.epoch", epoch);
    schedule.Apply(optimizer, epoch);
    std::vector<std::vector<int64_t>> batches;
    {
      ScopedSpan s(spans, "od.ShuffledBatches");
      batches = dataset.ShuffledBatches(w.split.train, config.batch_size, rng);
    }
    double epoch_loss = 0.0;
    RegistrySnapshot before;
    if (spans != nullptr) before = RegistrySnapshot::Take();
    {
      ScopedSpan loop(spans, "train.step_loop", epoch);
      int64_t step = 0;
      for (const auto& indices : batches) {
        const int64_t id = epoch * 1000 + step++;
        const uint64_t step_start = odf::MonotonicNanos();
        odf::Batch batch;
        {
          ScopedSpan s(spans, "od.MakeBatch", id);
          batch = dataset.MakeBatch(indices);
        }
        {
          ScopedSpan s(spans, "nn.ZeroGrad", id);
          optimizer.ZeroGrad();
        }
        odf::autograd::Var loss = [&] {
          ScopedSpan s(spans, "core.Loss", id);
          return model.Loss(batch, /*train=*/true, rng);
        }();
        {
          ScopedSpan s(spans, "autograd.Backward", id);
          loss.Backward();
        }
        {
          ScopedSpan s(spans, "nn.ClipGradNorm", id);
          optimizer.ClipGradNorm(config.grad_clip_norm);
        }
        {
          ScopedSpan s(spans, "nn.Step", id);
          optimizer.Step();
        }
        const double value = loss.value().Item();
        const double ms =
            static_cast<double>(odf::MonotonicNanos() - step_start) * 1e-6;
        epoch_loss += value;
        out.step_loss.push_back(value);
        out.steps_ms += ms;
        if (static_cast<int64_t>(indices.size()) == config.batch_size) {
          out.full_ms.push_back(ms);
        }
      }
    }
    if (spans != nullptr) {
      const RegistrySnapshot after = RegistrySnapshot::Take();
      for (const char* h : {"gemm.seconds", "batch_gemm.seconds",
                            "cheb_basis.seconds", "cheb_basis_grad.seconds",
                            "spmm.seconds", "fused_recover.seconds",
                            "pool.chunk_seconds", "stream.build_ns"}) {
        sums[h] += after.SumMs(before, h);
      }
      for (const char* c : {"gemm.calls", "batch_gemm.calls", "spmm.calls",
                            "fused_recover.calls", "pool.parallel_fors",
                            "stream.cache_hits", "stream.cache_misses",
                            "autograd.tape_nodes"}) {
        sums[c] += after.Counter(before, c);
      }
      sums["cheb_basis.calls"] += after.Count(before, "cheb_basis.seconds") +
                                  after.Count(before, "cheb_basis_grad.seconds");
    }
    out.losses.train_losses.push_back(
        batches.empty() ? 0.0f
                        : static_cast<float>(epoch_loss /
                                             static_cast<double>(batches.size())));
    const uint64_t eval_start = odf::MonotonicNanos();
    {
      ScopedSpan s(spans, "core.EvaluateLoss", epoch);
      out.losses.validation_losses.push_back(odf::EvaluateLoss(
          model, dataset, val, config.batch_size, config.seed));
    }
    out.eval_ms += static_cast<double>(odf::MonotonicNanos() - eval_start) * 1e-6;
  }
  if (spans == nullptr) return out;

  const double steps = static_cast<double>(out.step_loss.size());
  const std::vector<Span> all = spans->Snapshot();
  auto per_step = [&](const char* span) {
    return SumSpans(all, span).total_ms / steps;
  };
  std::map<std::string, double>& l = *layers;
  l["od.make_batch_ms"] = per_step("od.MakeBatch");
  l["core.loss_fwd_ms"] = per_step("core.Loss");
  l["autograd.backward_ms"] = per_step("autograd.Backward");
  l["nn.optim_step_ms"] = per_step("nn.ZeroGrad") + per_step("nn.ClipGradNorm") +
                          per_step("nn.Step");
  l["core.eval_ms"] = out.eval_ms / config.epochs;
  l["autograd.tape_nodes_per_step"] = sums["autograd.tape_nodes"] / steps;
  const double hits = sums["stream.cache_hits"];
  const double misses = sums["stream.cache_misses"];
  l["od.stream_hits"] = hits;
  l["od.stream_misses"] = misses;
  l["od.stream_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  l["od.stream_build_ms"] = sums["stream.build_ns"] / steps;
  l["tensor.gemm_ms"] = sums["gemm.seconds"] / steps;
  l["tensor.gemm.calls"] = sums["gemm.calls"] / steps;
  l["tensor.batch_gemm_ms"] = sums["batch_gemm.seconds"] / steps;
  l["tensor.batch_gemm.calls"] = sums["batch_gemm.calls"] / steps;
  l["tensor.cheb_basis_ms"] =
      (sums["cheb_basis.seconds"] + sums["cheb_basis_grad.seconds"]) / steps;
  l["tensor.cheb_basis.calls"] = sums["cheb_basis.calls"] / steps;
  l["tensor.spmm_ms"] = sums["spmm.seconds"] / steps;
  l["tensor.spmm.calls"] = sums["spmm.calls"] / steps;
  l["tensor.fused_recover_ms"] = sums["fused_recover.seconds"] / steps;
  l["tensor.fused_recover.calls"] = sums["fused_recover.calls"] / steps;
  l["util.pool.fors_per_step"] = sums["pool.parallel_fors"] / steps;
  l["util.pool.busy_frac"] =
      sums["pool.chunk_seconds"] /
      (out.steps_ms * odf::ThreadPool::Global().threads());
  l["bench.step_closure"] = ChildCoverage(all, "train.step_loop");
  return out;
}

/// EvaluateForecaster on the test split. It reads whole series, so the
/// log is read back into an in-memory copy (whose batches are byte-identical
/// to the streamed ones) that lives only while scoring.
double TestKl(World& w) {
  std::vector<odf::Trip> trips;
  std::vector<odf::Trip> interval;
  for (int64_t t = 0; t < w.reader->num_intervals(); ++t) {
    if (w.reader->ReadInterval(t, &interval) != odf::TripLogStatus::kOk) {
      return -1.0;
    }
    trips.insert(trips.end(), interval.begin(), interval.end());
  }
  const int64_t n = w.spec.graph.size();
  const odf::OdTensorSeries series = odf::BuildOdTensorSeries(
      trips, w.reader->time_partition(), n, n, odf::SpeedHistogramSpec::Paper());
  trips = {};
  const odf::ForecastDataset dataset(&series, w.dataset->history(),
                                     w.dataset->horizon());
  return odf::EvaluateForecaster(*w.model, dataset, w.split.test, 16)[0].Mean(
      odf::Metric::kKl);
}

/// True when the first `epochs` epochs of `a` and `b` have the same bits.
bool SameLosses(const odf::TrainResult& a, const odf::TrainResult& b,
                size_t epochs) {
  auto same = [epochs](const std::vector<float>& x, const std::vector<float>& y) {
    return x.size() >= epochs && y.size() >= epochs &&
           std::memcmp(x.data(), y.data(), epochs * sizeof(float)) == 0;
  };
  return same(a.train_losses, b.train_losses) &&
         same(a.validation_losses, b.validation_losses);
}

}  // namespace

int RunTrain(const Options& opt, Result& result, SpanLog* spans) {
  std::vector<double> setup_s;  // the fastest of kSetups is reported
  const std::unique_ptr<World> w = SetUpRepeatedly(
      kSetups, [&opt](int i) { return SetUp(opt, i); }, &setup_s);
  if (w == nullptr) return 1;
  const odf::TrainConfig config = MakeTrainConfig(opt);
  std::printf("train: %lld windows (%zu train, %zu test), %d epochs\n",
              static_cast<long long>(w->dataset->NumSamples()),
              w->split.train.size(), w->split.test.size(), config.epochs);

  const LoopRun run = TrainStepwise(config, *w, nullptr, nullptr);
  for (double loss : run.step_loss) {
    result.Check(std::isfinite(loss), "train: non-finite step loss");
  }
  const uint64_t eval_start = odf::MonotonicNanos();
  const double kl = TestKl(*w);
  const double eval_ms =
      static_cast<double>(odf::MonotonicNanos() - eval_start) * 1e-6;
  result.Check(std::isfinite(kl) && kl > 0.0, "train: test KL not finite");

  // TrainForecaster on a fresh model with the same seed: the timed loop
  // must be its computation, bit for bit.
  FreshModel(*w);
  odf::TrainConfig checked = config;
  checked.epochs = kCheckedEpochs;
  const uint64_t forecaster_start = odf::MonotonicNanos();
  const odf::TrainResult forecaster =
      odf::TrainForecaster(*w->model, *w->dataset, w->split, checked);
  const double forecaster_ms =
      static_cast<double>(odf::MonotonicNanos() - forecaster_start) * 1e-6;
  result.Check(SameLosses(forecaster, run.losses, kCheckedEpochs),
               "train: the timed loop's losses differ from TrainForecaster's");

  // Throughput at the median of the five fastest full-batch steps (see
  // MedianOfFastest).
  const double batch = static_cast<double>(config.batch_size);
  const double step_ms = MedianOfFastest(run.full_ms, kFastestRepeats);
  const double sps = batch * 1e3 / step_ms;
  const double setup = Min(setup_s);
  char best[64];
  std::snprintf(best, sizeof best, "(median of the fastest %zu of %zu steps)",
                kFastestRepeats, run.full_ms.size());
  char steps[64];
  std::snprintf(steps, sizeof steps, "(median of %zu steps)", run.full_ms.size());
  char setups[64];
  std::snprintf(setups, sizeof setups, "(fastest of %d set-ups)", kSetups);
  result.Report("setup_s", setup, "s", setups);
  result.Report("train.samples_per_s", sps, "1/s", best);
  result.Report("train.samples_per_s_median", batch * 1e3 / Median(run.full_ms),
                "1/s", steps);
  result.Report("train.step_ms", step_ms, "ms", best);
  result.Report("train.epoch_ms", (run.steps_ms + run.eval_ms) / config.epochs,
                "ms", "(mean, validation included)");
  result.Report("train.forecaster_epoch_ms", forecaster_ms / kCheckedEpochs,
                "ms", "(TrainForecaster, mean of its epochs)");
  result.Report("train.eval_ms", eval_ms, "ms", "(EvaluateForecaster, test split)");
  result.Report("train.test_kl", kl, "nat");

  if (spans == nullptr) {
    result.Report("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("setup_s", setup, "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("throughput_per_s", sps, "1/s");
    result.Set("quality_kl", kl, "nat");
    return 0;
  }

  // Traced: the same loop on a fresh world (cold stream cache, as in the
  // timed loop), call by call in spans.
  std::unique_ptr<World> fresh = SetUp(opt, kSetups);
  if (fresh == nullptr) return 1;
  odf::SetMetricsEnabled(true);
  std::map<std::string, double> layers;
  const LoopRun traced = TrainStepwise(config, *fresh, spans, &layers);
  odf::SetMetricsEnabled(false);
  result.Check(SameLosses(traced.losses, run.losses, config.epochs) &&
                   SameLosses(traced.losses, forecaster, kCheckedEpochs),
               "train: traced step loop losses differ from the untraced "
               "loop's or TrainForecaster's");
  layers["bench.trace_overhead"] = traced.steps_ms / run.steps_ms - 1.0;
  layers["bench.gen_lag_p99_us"] = 0.0;  // no open loop in this workload
  const double closure = layers["bench.step_closure"];
  result.Report("bench.step_closure", closure, "ratio",
                closure >= 0.95 ? "(>= 0.95: ok)" : "(< 0.95: FAILED)");
  result.Check(closure >= 0.95, "train: step spans cover < 95% of the loop");
  result.Report("bench.trace_overhead", layers["bench.trace_overhead"], "ratio");
  SetLayerMetrics(result, layers);
  return 0;
}

}  // namespace odb
