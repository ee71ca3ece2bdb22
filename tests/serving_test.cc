// Tests for the tape-free compiled inference path and the micro-batching
// serving front-end (docs/serving.md).
//
// The central contract: ForwardPlan::Run reproduces the tape-based
// Predict bit-for-bit — same kernels, same order, same operands — on a
// really trained, checkpoint-round-tripped model, at any thread count,
// for the paper AF, every ablation variant, and BF with and without
// attention. On top of that: the fused recovery kernel matches the
// composed reference, independently built models share memoized graph
// operators, the interval cache invalidates exactly on rollover, and the
// service survives concurrent hammering (run under TSan in CI).

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "graph/laplacian.h"
#include "metrics/divergence.h"
#include "nn/serialize.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

struct PoolGuard {
  int64_t saved = ThreadPool::Global().threads();
  ~PoolGuard() { ThreadPool::Global().Resize(static_cast<int>(saved)); }
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Small deterministic world shared by the serving tests.
struct TestWorld {
  DatasetSpec spec;
  OdTensorSeries series;
  ForecastDataset dataset;
  ForecastDataset::Split split;

  static TestWorld Make(int64_t history = 3, int64_t horizon = 2) {
    DatasetSpec spec = MakeNycLike(3, 3, /*num_days=*/4,
                                   /*interval_minutes=*/60);
    spec.config.mean_trips_per_interval = 120;
    TripGenerator gen(spec.graph, spec.config);
    OdTensorSeries series = BuildOdTensorSeries(
        gen.Generate(),
        TimePartition(spec.config.interval_minutes, spec.config.num_days),
        spec.graph.size(), spec.graph.size(), SpeedHistogramSpec::Paper());
    return TestWorld(std::move(spec), std::move(series), history, horizon);
  }

  TestWorld(DatasetSpec s, OdTensorSeries ser, int64_t history,
            int64_t horizon)
      : spec(std::move(s)),
        series(std::move(ser)),
        dataset(&series, history, horizon),
        split(dataset.ChronologicalSplit(0.7, 0.1)) {}
};

// Runs `model`'s tape forward and the compiled plan on the same batch and
// asserts bit-identical predictions at every horizon step.
template <typename Model>
void ExpectPlanMatchesTape(Model& model, serve::ForwardPlan& plan,
                           const Batch& batch) {
  const std::vector<Tensor> tape = model.Predict(batch);
  plan.Run(batch.inputs);
  ASSERT_EQ(static_cast<int64_t>(tape.size()), plan.horizon());
  for (size_t j = 0; j < tape.size(); ++j) {
    EXPECT_TRUE(BitIdentical(tape[j], plan.output(static_cast<int64_t>(j))))
        << "horizon step " << j << " diverged from the tape";
  }
}

// Asserts every per-cell KL/JS/EMD between the fp64 reference `ref` and the
// fp32 output `low` sits below the serving accuracy gate (serve/service.h).
void ExpectWithinPrecisionGate(const Tensor& ref, const Tensor& low) {
  ASSERT_EQ(ref.shape(), low.shape());
  const int64_t k = ref.shape().dim(-1);
  const float* pa = ref.data();
  const float* pb = low.data();
  for (int64_t c = 0; c < ref.numel() / k; ++c, pa += k, pb += k) {
    ASSERT_LT(std::fabs(KlDivergence(pa, pb, k)),
              serve::kPrecisionKlTolerance)
        << "cell " << c;
    ASSERT_LT(std::fabs(JsDivergence(pa, pb, k)),
              serve::kPrecisionJsTolerance)
        << "cell " << c;
    ASSERT_LT(EarthMoversDistance(pa, pb, k), serve::kPrecisionEmdTolerance)
        << "cell " << c;
  }
}

// ---------------------------------------------------------------------
// Fused recovery kernel (satellite: one batched softmax_K(R⊗C) kernel).
// ---------------------------------------------------------------------

TEST(FusedRecoverTest, MatchesComposedReference) {
  Rng rng(7);
  const Tensor r = Tensor::RandomNormal(Shape({2, 3, 2, 5}), rng, 0.0f, 0.7f);
  const Tensor c = Tensor::RandomNormal(Shape({2, 2, 4, 5}), rng, 0.0f, 0.7f);
  for (float tau : {1.0f, 0.5f, 1.7f}) {
    const ag::Var temperature = ag::Var::Constant(Tensor::Scalar(tau));
    const Tensor fused =
        ag::FusedRecover(ag::Var::Constant(r), ag::Var::Constant(c),
                         temperature)
            .value();
    const Tensor composed =
        ag::SoftmaxLastDim(
            ag::Mul(FactorProduct(ag::Var::Constant(r), ag::Var::Constant(c)),
                    temperature))
            .value();
    ASSERT_EQ(fused.shape(), composed.shape());
    for (int64_t i = 0; i < fused.numel(); ++i) {
      ASSERT_NEAR(fused[i], composed[i], 1e-6f)
          << "tau=" << tau << " element " << i;
    }
  }
}

TEST(FusedRecoverTest, GradCheckIncludingTemperature) {
  Rng rng(13);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::Scalar(1.3f), true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Square(ag::FusedRecover(in[0], in[1], in[2])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

// ---------------------------------------------------------------------
// Plan vs tape bit-identity.
// ---------------------------------------------------------------------

TEST(ForwardPlanTest, MatchesTrainedCheckpointedAfAtEveryThreadCount) {
  PoolGuard guard;
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7,
                          /*horizon=*/2, config);

  TrainConfig train;
  train.epochs = 2;
  train.batch_size = 8;
  train.learning_rate = 5e-3f;
  TrainForecaster(model, world.dataset, world.split, train);

  const std::string path =
      ::testing::TempDir() + "/serving_af_checkpoint.bin";
  ASSERT_TRUE(nn::SaveParameters(model, path));

  // Serve from a freshly constructed model that loaded the checkpoint —
  // the production flow the plan is built for.
  AdvancedFramework served(world.spec.graph, world.spec.graph, 7, 2, config);
  ASSERT_TRUE(nn::LoadParametersChecked(served, path).ok());

  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(served, world.dataset.history());
  EXPECT_GT(plan.num_instructions(), 0);

  for (int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    Batch batch = world.dataset.MakeBatch({0, 3, 5});
    ExpectPlanMatchesTape(served, plan, batch);
    // A second run through the (batch-stable) arena must stay identical.
    ExpectPlanMatchesTape(served, plan, batch);
    // And a different batch size forces an arena reallocation.
    Batch single = world.dataset.MakeBatch({4});
    ExpectPlanMatchesTape(served, plan, single);
  }
}

TEST(ForwardPlanTest, MatchesTapeOnEveryAblationVariant) {
  PoolGuard guard;
  TestWorld world = TestWorld::Make();
  struct Variant {
    const char* name;
    AdvancedFrameworkConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"paper_af", {}});
  {
    AdvancedFrameworkConfig c;
    c.use_graph_factorization = false;
    variants.push_back({"fc_factorization", c});
  }
  {
    AdvancedFrameworkConfig c;
    c.use_gcgru = false;
    variants.push_back({"gru_forecasting", c});
  }
  {
    AdvancedFrameworkConfig c;
    c.pool_kind = nn::PoolKind::kMax;
    variants.push_back({"max_pooling", c});
  }
  {
    AdvancedFrameworkConfig c;
    c.use_cluster_pooling = false;
    variants.push_back({"id_ordered_pooling", c});
  }
  {
    AdvancedFrameworkConfig c;
    c.use_graph_factorization = false;
    c.use_gcgru = false;
    variants.push_back({"bf_style_af", c});
  }
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2,
                            variant.config);
    serve::ForwardPlan plan =
        serve::PlanCompiler::Compile(model, world.dataset.history());
    Batch batch = world.dataset.MakeBatch({1, 6});
    ExpectPlanMatchesTape(model, plan, batch);

    // The same schedule at fp64 runs the double instantiation of every
    // core this variant uses (max / id-ordered pooling, the GRU and FC
    // stages): thread-count invariant, and within the accuracy gate of
    // the fp32 plan.
    serve::ForwardPlan plan64 = serve::PlanCompiler::Compile(
        model, world.dataset.history(), serve::Precision::kFp64);
    std::vector<std::vector<Tensor>> outs64;
    for (int threads : {1, 4}) {
      ThreadPool::Global().Resize(threads);
      plan64.Run(batch.inputs);
      std::vector<Tensor> outs;
      for (int64_t j = 0; j < plan64.horizon(); ++j) {
        outs.push_back(plan64.output(j));
      }
      outs64.push_back(std::move(outs));
    }
    ASSERT_EQ(plan64.horizon(), plan.horizon());
    for (int64_t j = 0; j < plan.horizon(); ++j) {
      const size_t ju = static_cast<size_t>(j);
      EXPECT_TRUE(BitIdentical(outs64[0][ju], outs64[1][ju]))
          << "fp64 plan diverged across pool sizes at step " << j;
      ExpectWithinPrecisionGate(outs64[0][ju], plan.output(j));
    }
  }
}

TEST(ForwardPlanTest, MatchesTapeOnBfWithAndWithoutAttention) {
  TestWorld world = TestWorld::Make();
  for (bool attention : {false, true}) {
    SCOPED_TRACE(attention ? "attention" : "plain");
    BasicFrameworkConfig config;
    config.rank = 3;
    config.use_attention = attention;
    BasicFramework model(9, 9, 7, /*horizon=*/2, config);
    serve::ForwardPlan plan =
        serve::PlanCompiler::Compile(model, world.dataset.history());
    Batch batch = world.dataset.MakeBatch({0, 2, 7});
    ExpectPlanMatchesTape(model, plan, batch);
  }
}

// ---------------------------------------------------------------------
// Memoized graph operators (satellite: λ_max / L̂ caching).
// ---------------------------------------------------------------------

TEST(ForwardPlanTest, IndependentlyBuiltModelsShareGraphOperators) {
  TestWorld world = TestWorld::Make();
  ClearScaledLaplacianOperatorCache();
  AdvancedFrameworkConfig config;
  AdvancedFramework first(world.spec.graph, world.spec.graph, 7, 2, config);
  const uint64_t misses_after_first = ScaledLaplacianOperatorCacheMisses();
  const uint64_t hits_before = ScaledLaplacianOperatorCacheHits();
  // The checkpoint-reload flow: same graphs, fresh model object.
  AdvancedFramework second(world.spec.graph, world.spec.graph, 7, 2, config);
  EXPECT_EQ(ScaledLaplacianOperatorCacheMisses(), misses_after_first)
      << "rebuilding the model must not re-run the power iteration";
  EXPECT_GT(ScaledLaplacianOperatorCacheHits(), hits_before);

  serve::ForwardPlan plan_first =
      serve::PlanCompiler::Compile(first, world.dataset.history());
  serve::ForwardPlan plan_second =
      serve::PlanCompiler::Compile(second, world.dataset.history());
  ASSERT_FALSE(plan_first.graph_operators().empty());
  ASSERT_EQ(plan_first.graph_operators().size(),
            plan_second.graph_operators().size());
  for (size_t i = 0; i < plan_first.graph_operators().size(); ++i) {
    EXPECT_EQ(plan_first.graph_operators()[i].get(),
              plan_second.graph_operators()[i].get())
        << "operator " << i << " was duplicated instead of shared";
  }
  // Within one model, all cells on one graph share a single operator:
  // r-side and c-side each contribute exactly one.
  EXPECT_LE(plan_first.graph_operators().size(), 2u);
}

// ---------------------------------------------------------------------
// Serving front-end.
// ---------------------------------------------------------------------

std::unique_ptr<serve::ForecastService> MakeService(
    const TestWorld& world, const AdvancedFramework& model,
    serve::ServeConfig config) {
  return std::make_unique<serve::ForecastService>(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()), config);
}

TEST(ForecastServiceTest, SingleQueryMatchesTapePredict) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  auto service = MakeService(world, model, serve_config);
  for (int64_t sample : {int64_t{0}, int64_t{4}}) {
    const serve::ForecastResult result = service->Forecast(sample);
    Batch batch = world.dataset.MakeBatch({sample});
    const std::vector<Tensor> tape = model.Predict(batch);
    ASSERT_EQ(result->size(), tape.size());
    for (size_t j = 0; j < tape.size(); ++j) {
      // The service slices row 0 out of a B=1 forward: identical bits,
      // one leading axis shorter.
      ASSERT_EQ((*result)[j].numel(), tape[j].numel());
      EXPECT_EQ(std::memcmp((*result)[j].data(), tape[j].data(),
                            static_cast<size_t>(tape[j].numel()) *
                                sizeof(float)),
                0)
          << "sample " << sample << " horizon " << j;
    }
  }
}

TEST(ForecastServiceTest, IntervalCacheHitsUntilRollover) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  auto service = MakeService(world, model, serve_config);

  Counter& hits = MetricsRegistry::Global().GetCounter("serve.cache_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  const uint64_t hits0 = hits.value();
  const uint64_t misses0 = misses.value();

  service->SetCurrentInterval(2);
  const serve::ForecastResult first = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 1);
  const serve::ForecastResult again = service->ForecastCurrent();
  EXPECT_EQ(hits.value(), hits0 + 1);
  // A cache hit returns the identical snapshot, not a recompute.
  EXPECT_EQ(first.get(), again.get());

  // Setting the same interval again must NOT invalidate.
  service->SetCurrentInterval(2);
  EXPECT_EQ(service->ForecastCurrent().get(), first.get());

  // Rollover invalidates: next query recomputes for the new interval.
  service->SetCurrentInterval(3);
  const serve::ForecastResult rolled = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 2);
  EXPECT_NE(rolled.get(), first.get());
  const serve::ForecastResult direct = service->Forecast(3);
  ASSERT_EQ(rolled->size(), direct->size());
  for (size_t j = 0; j < rolled->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*rolled)[j], (*direct)[j]));
  }
}

TEST(ForecastServiceTest, RolloverBeforeGetNeverPublishesStaleInterval) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 500;  // the rollover lands inside it
  auto service = MakeService(world, model, serve_config);
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");

  service->SetCurrentInterval(2);
  std::future<serve::ForecastResult> stale = service->ForecastCurrentAsync();
  service->SetCurrentInterval(3);
  const serve::ForecastResult old = stale.get();
  const serve::ForecastResult direct_old = service->Forecast(2);
  for (size_t j = 0; j < old->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*old)[j], (*direct_old)[j]));
  }

  // The batch for interval 2 finished after the rollover to 3: it must not
  // have filled the cache, so the next read recomputes interval 3.
  const uint64_t misses0 = misses.value();
  const serve::ForecastResult current = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 1);
  // The worker filled the cache from that miss's batch.
  EXPECT_EQ(service->ForecastCurrent().get(), current.get());
  const serve::ForecastResult direct = service->Forecast(3);
  ASSERT_EQ(current->size(), direct->size());
  for (size_t j = 0; j < current->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*current)[j], (*direct)[j]));
  }
}

TEST(ForecastServiceTest, WorkerRunsPlansWithoutPoolDispatch) {
  PoolGuard guard;
  ThreadPool::Global().Resize(4);
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);

  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  auto service = MakeService(world, model, serve_config);
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(model, world.dataset.history());
  Counter& fors = MetricsRegistry::Global().GetCounter("pool.parallel_fors");

  const int64_t sample = 4;
  const uint64_t before_served = fors.value();
  const serve::ForecastResult served = service->Forecast(sample);
  const uint64_t after_served = fors.value();

  const Batch batch = world.dataset.MakeBatch({sample});
  const uint64_t before_direct = fors.value();
  plan.Run(batch.inputs);
  const uint64_t after_direct = fors.value();
  SetMetricsEnabled(metrics_were_on);

  // The service worker runs its plan serially; the same plan run on the
  // caller still dispatches through the pool.
  EXPECT_EQ(after_served, before_served);
  EXPECT_GT(after_direct, before_direct);
  ASSERT_EQ(static_cast<int64_t>(served->size()), plan.horizon());
  for (int64_t j = 0; j < plan.horizon(); ++j) {
    const Tensor& out = plan.output(j);
    ASSERT_EQ((*served)[static_cast<size_t>(j)].numel(), out.numel());
    EXPECT_EQ(std::memcmp((*served)[static_cast<size_t>(j)].data(), out.data(),
                          static_cast<size_t>(out.numel()) * sizeof(float)),
              0)
        << "horizon " << j;
  }
}

TEST(ForecastServiceTest, ConcurrentClientsHammerOneWorker) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.batch_window_us = 500;  // force real coalescing
  auto service = MakeService(world, model, serve_config);

  const int64_t num_samples = world.dataset.NumSamples();
  // Reference forecasts computed on the tape, one sample at a time.
  std::vector<std::vector<Tensor>> expected;
  for (int64_t i = 0; i < num_samples; ++i) {
    expected.push_back(model.Predict(world.dataset.MakeBatch({i})));
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kRequestsPerThread; ++q) {
        const int64_t sample = (t * 7 + q * 3) % num_samples;
        const serve::ForecastResult result = service->Forecast(sample);
        const std::vector<Tensor>& want = expected[static_cast<size_t>(sample)];
        if (result->size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < want.size(); ++j) {
          const Tensor& got = (*result)[j];
          if (got.numel() != want[j].numel() ||
              std::memcmp(got.data(), want[j].data(),
                          static_cast<size_t>(got.numel()) * sizeof(float)) !=
                  0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Interleave cache traffic with the hammer to exercise both locks.
  std::thread roller([&] {
    for (int i = 0; i < 20; ++i) {
      service->SetCurrentInterval(i % num_samples);
      service->ForecastCurrent();
    }
  });
  for (std::thread& client : clients) client.join();
  roller.join();
  EXPECT_EQ(mismatches.load(), 0);

  Counter& batches = MetricsRegistry::Global().GetCounter("serve.batches");
  EXPECT_GT(batches.value(), 0u);
}

// ---------------------------------------------------------------------
// Serving under stress (docs/scenarios.md): the service keeps answering
// when a sensor-dropout scenario darkens whole regions of its input feed.
// ---------------------------------------------------------------------

TEST(ForecastServiceTest, ServesFiniteForecastsUnderSensorDropout) {
  TestWorld world = TestWorld::Make();

  // Darken two regions for the whole series — every query below reads at
  // least one fully masked observation window.
  Scenario scenario("serving_dropout", 5);
  SensorDropoutConfig dropout;
  dropout.regions = {0, 4};
  dropout.window = {0, world.series.NumIntervals()};
  scenario.AddSensorDropout(dropout);
  const TimePartition time_partition(world.spec.config.interval_minutes,
                                     world.spec.config.num_days);
  OdTensorSeries observed =
      scenario.MaskObservations(world.series, time_partition);
  ForecastDataset degraded(&observed, world.dataset.history(),
                           world.dataset.horizon());
  ASSERT_EQ(degraded.NumSamples(), world.dataset.NumSamples());

  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  serve::ForecastService service(
      &degraded, serve::PlanCompiler::Compile(model, degraded.history()),
      serve_config);

  auto expect_finite_histograms = [](const serve::ForecastResult& result) {
    ASSERT_NE(result, nullptr);
    for (const Tensor& step : *result) {
      const int64_t buckets = step.shape().dim(-1);
      const int64_t rows = step.numel() / buckets;
      for (int64_t row = 0; row < rows; ++row) {
        double sum = 0.0;
        for (int64_t k = 0; k < buckets; ++k) {
          const float v = step[row * buckets + k];
          ASSERT_TRUE(std::isfinite(v));
          ASSERT_GE(v, 0.0f);
          sum += v;
        }
        ASSERT_NEAR(sum, 1.0, 1e-4) << "row " << row << " denormalized";
      }
    }
  };

  // Direct queries across the series answer without NaNs or aborts.
  for (int64_t sample : {int64_t{0}, int64_t{7},
                         degraded.NumSamples() - 1}) {
    expect_finite_histograms(service.Forecast(sample));
  }

  // Cache rollover still invalidates mid-scenario.
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  const uint64_t misses0 = misses.value();
  service.SetCurrentInterval(5);
  const serve::ForecastResult before = service.ForecastCurrent();
  expect_finite_histograms(before);
  EXPECT_EQ(service.ForecastCurrent().get(), before.get());  // cache hit
  service.SetCurrentInterval(6);
  const serve::ForecastResult after = service.ForecastCurrent();
  expect_finite_histograms(after);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(misses.value(), misses0 + 2);

  // The darkened feed really changed what gets served: same sample, same
  // plan, different bits than the clean-feed service.
  serve::ForecastService clean(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()),
      serve_config);
  const serve::ForecastResult masked_result = service.Forecast(7);
  const serve::ForecastResult clean_result = clean.Forecast(7);
  bool diverged = false;
  for (size_t j = 0; j < masked_result->size(); ++j) {
    if (!BitIdentical((*masked_result)[j], (*clean_result)[j])) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged)
      << "sensor dropout did not reach the serving inputs";
}

}  // namespace
}  // namespace odf
