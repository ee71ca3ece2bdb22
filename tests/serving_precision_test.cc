// Tests for the precision-lowered serving path (docs/serving.md
// "Precision").
//
// The contract under test: the default fp32 plan (bit-identical to the
// tape, covered by serving_test) and the widened fp64 reference plan
// produce histograms whose per-query KL/JS/EMD deltas sit below the
// kPrecision*Tolerance gate on really trained, checkpoint-round-tripped
// models; the fp64 plan is thread-count invariant like the fp32 one; the
// width-parameterized fused recover kernel matches a naive reference at
// both widths on adversarial inputs; and the serving front-end's interval
// cache and accuracy gate respect the (interval, precision) key.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/trainer.h"
#include "metrics/divergence.h"
#include "nn/serialize.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "sim/trip_generator.h"
#include "tensor/tensor_ops.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

struct PoolGuard {
  int64_t saved = ThreadPool::Global().threads();
  ~PoolGuard() { ThreadPool::Global().Resize(static_cast<int>(saved)); }
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Same deterministic world as serving_test.
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

// Asserts every K-bucket histogram row of `t` is finite, non-negative and
// normalized.
void ExpectFiniteNormalized(const Tensor& t) {
  const int64_t k = t.shape().dim(-1);
  const int64_t rows = t.numel() / k;
  for (int64_t row = 0; row < rows; ++row) {
    double sum = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const float v = t[row * k + j];
      ASSERT_TRUE(std::isfinite(v)) << "row " << row << " bucket " << j;
      ASSERT_GE(v, 0.0f);
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-4) << "row " << row << " denormalized";
  }
}

// Asserts the per-cell max KL/JS/EMD between two histogram tensors sits
// below the serving accuracy gate (serve/service.h).
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
// Accuracy gate on trained checkpoints (the acceptance criterion).
// ---------------------------------------------------------------------

TEST(PrecisionGateTest, TrainedCheckpointedAfWithinToleranceOfFp64) {
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
      ::testing::TempDir() + "/precision_af_checkpoint.bin";
  ASSERT_TRUE(nn::SaveParameters(model, path));
  AdvancedFramework served(world.spec.graph, world.spec.graph, 7, 2, config);
  ASSERT_TRUE(nn::LoadParametersChecked(served, path).ok());

  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(served, world.dataset.history());
  serve::ForwardPlan plan64 = serve::PlanCompiler::Compile(
      served, world.dataset.history(), serve::Precision::kFp64);
  ASSERT_EQ(plan.precision(), serve::Precision::kFp32);
  ASSERT_EQ(plan64.precision(), serve::Precision::kFp64);

  Batch batch = world.dataset.MakeBatch({0, 3, 5});
  plan.Run(batch.inputs);
  plan64.Run(batch.inputs);
  ASSERT_EQ(plan.horizon(), plan64.horizon());
  for (int64_t j = 0; j < plan.horizon(); ++j) {
    ExpectFiniteNormalized(plan.output(j));
    ExpectFiniteNormalized(plan64.output(j));
    ExpectWithinPrecisionGate(plan64.output(j), plan.output(j));
  }

  // The widened plan really computes something different from the fp32 one
  // — a gate over two aliases of the same arithmetic would be vacuous.
  bool diverged = false;
  for (int64_t j = 0; j < plan.horizon(); ++j) {
    if (!BitIdentical(plan.output(j), plan64.output(j))) diverged = true;
  }
  EXPECT_TRUE(diverged)
      << "fp64 plan returned bit-identical floats; widening is a no-op?";

  // Thread-count invariance holds at both widths: same batch, same bits.
  std::vector<std::vector<Tensor>> outs32, outs64;
  for (int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    plan.Run(batch.inputs);
    plan64.Run(batch.inputs);
    std::vector<Tensor> o32, o64;
    for (int64_t j = 0; j < plan.horizon(); ++j) {
      o32.push_back(plan.output(j));
      o64.push_back(plan64.output(j));
    }
    outs32.push_back(std::move(o32));
    outs64.push_back(std::move(o64));
  }
  for (int64_t j = 0; j < plan.horizon(); ++j) {
    EXPECT_TRUE(BitIdentical(outs32[0][static_cast<size_t>(j)],
                             outs32[1][static_cast<size_t>(j)]))
        << "fp32 plan diverged across thread counts at step " << j;
    EXPECT_TRUE(BitIdentical(outs64[0][static_cast<size_t>(j)],
                             outs64[1][static_cast<size_t>(j)]))
        << "fp64 plan diverged across thread counts at step " << j;
  }
}

TEST(PrecisionGateTest, BfWithAndWithoutAttentionWithinTolerance) {
  TestWorld world = TestWorld::Make();
  for (bool attention : {false, true}) {
    SCOPED_TRACE(attention ? "attention" : "plain");
    BasicFrameworkConfig config;
    config.rank = 3;
    config.use_attention = attention;
    BasicFramework model(9, 9, 7, /*horizon=*/2, config);
    serve::ForwardPlan plan =
        serve::PlanCompiler::Compile(model, world.dataset.history());
    serve::ForwardPlan plan64 = serve::PlanCompiler::Compile(
        model, world.dataset.history(), serve::Precision::kFp64);
    Batch batch = world.dataset.MakeBatch({0, 2, 7});
    plan.Run(batch.inputs);
    plan64.Run(batch.inputs);
    for (int64_t j = 0; j < plan.horizon(); ++j) {
      ExpectFiniteNormalized(plan.output(j));
      ExpectFiniteNormalized(plan64.output(j));
      ExpectWithinPrecisionGate(plan64.output(j), plan.output(j));
    }
  }
}

// ---------------------------------------------------------------------
// Width-parameterized fused recover kernel on adversarial inputs.
// ---------------------------------------------------------------------

// Naive per-cell reference of the recover stage at width T:
//   out[b,o,d,:] = softmax_k(tau * sum_beta r[b,o,beta,:] * c[b,beta,d,:]).
template <typename T>
void NaiveRecover(const std::vector<T>& r, const std::vector<T>& c, T tau,
                  int64_t b, int64_t n, int64_t m, int64_t beta, int64_t k,
                  std::vector<T>* out) {
  out->assign(static_cast<size_t>(b * n * m * k), T(0));
  std::vector<double> logits(static_cast<size_t>(k));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t d = 0; d < m; ++d) {
        for (int64_t j = 0; j < k; ++j) {
          double acc = 0.0;
          for (int64_t be = 0; be < beta; ++be) {
            acc += static_cast<double>(
                       r[static_cast<size_t>(((bi * n + o) * beta + be) * k +
                                             j)]) *
                   static_cast<double>(
                       c[static_cast<size_t>(((bi * beta + be) * m + d) * k +
                                             j)]);
          }
          logits[static_cast<size_t>(j)] = static_cast<double>(tau) * acc;
        }
        double mx = logits[0];
        for (int64_t j = 1; j < k; ++j) mx = std::max(mx, logits[j]);
        double total = 0.0;
        for (int64_t j = 0; j < k; ++j) {
          logits[static_cast<size_t>(j)] =
              std::exp(logits[static_cast<size_t>(j)] - mx);
          total += logits[static_cast<size_t>(j)];
        }
        for (int64_t j = 0; j < k; ++j) {
          (*out)[static_cast<size_t>(((bi * n + o) * m + d) * k + j)] =
              static_cast<T>(logits[static_cast<size_t>(j)] / total);
        }
      }
    }
  }
}

template <typename T>
void ExpectRecoverMatchesNaive(const std::vector<T>& r,
                               const std::vector<T>& c, T tau, int64_t b,
                               int64_t n, int64_t m, int64_t beta, int64_t k,
                               double tol) {
  std::vector<T> fused(static_cast<size_t>(b * n * m * k));
  FusedRecoverRaw(r.data(), c.data(), tau, fused.data(), b, n, m, beta, k);
  std::vector<T> naive;
  NaiveRecover(r, c, tau, b, n, m, beta, k, &naive);
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_TRUE(std::isfinite(static_cast<double>(fused[i]))) << "elt " << i;
    ASSERT_NEAR(static_cast<double>(fused[i]),
                static_cast<double>(naive[i]), tol)
        << "elt " << i;
  }
  // Rows stay normalized even on the adversarial inputs.
  for (size_t row = 0; row < fused.size() / static_cast<size_t>(k); ++row) {
    double sum = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      sum += static_cast<double>(fused[row * static_cast<size_t>(k) +
                                       static_cast<size_t>(j)]);
    }
    ASSERT_NEAR(sum, 1.0, 1e-5) << "row " << row;
  }
}

template <typename T>
void FillPseudo(std::vector<T>* v, T scale, int shift) {
  for (size_t i = 0; i < v->size(); ++i) {
    v->at(i) = scale * static_cast<T>(static_cast<int>((i * 13 + shift) % 23) -
                                      11);
  }
}

TEST(FusedRecoverPrecisionTest, MatchesNaiveAtBothWidthsOnGeneralShapes) {
  const int64_t b = 2, n = 3, m = 4, beta = 2, k = 5;
  std::vector<float> rf(static_cast<size_t>(b * n * beta * k));
  std::vector<float> cf(static_cast<size_t>(b * beta * m * k));
  FillPseudo(&rf, 0.11f, 3);
  FillPseudo(&cf, 0.07f, 9);
  ExpectRecoverMatchesNaive(rf, cf, 1.3f, b, n, m, beta, k, 2e-6);

  std::vector<double> rd(rf.begin(), rf.end());
  std::vector<double> cd(cf.begin(), cf.end());
  ExpectRecoverMatchesNaive(rd, cd, 1.3, b, n, m, beta, k, 1e-5);
}

TEST(FusedRecoverPrecisionTest, ZeroMassRowsGiveUniformHistograms) {
  // All-zero factors -> all-zero logits -> exactly uniform softmax. Exercises
  // the zero-mass edge at both widths.
  const int64_t b = 1, n = 2, m = 3, beta = 2, k = 7;
  std::vector<float> rf(static_cast<size_t>(b * n * beta * k), 0.0f);
  std::vector<float> cf(static_cast<size_t>(b * beta * m * k), 0.0f);
  std::vector<float> outf(static_cast<size_t>(b * n * m * k));
  FusedRecoverRaw(rf.data(), cf.data(), 1.0f, outf.data(), b, n, m, beta, k);
  for (float v : outf) ASSERT_NEAR(v, 1.0f / static_cast<float>(k), 1e-6f);

  std::vector<double> rd(rf.size(), 0.0);
  std::vector<double> cd(cf.size(), 0.0);
  std::vector<double> outd(outf.size());
  FusedRecoverRaw(rd.data(), cd.data(), 1.0, outd.data(), b, n, m, beta, k);
  for (double v : outd) ASSERT_NEAR(v, 1.0 / static_cast<double>(k), 1e-12);
}

TEST(FusedRecoverPrecisionTest, SingleBucketIsExactlyOne) {
  // K=1: softmax over one bucket must return exactly 1 at both widths, for
  // any logit magnitude.
  const int64_t b = 1, n = 2, m = 2, beta = 3, k = 1;
  std::vector<float> rf(static_cast<size_t>(b * n * beta * k));
  std::vector<float> cf(static_cast<size_t>(b * beta * m * k));
  FillPseudo(&rf, 5.0f, 1);
  FillPseudo(&cf, 5.0f, 4);
  std::vector<float> outf(static_cast<size_t>(b * n * m * k));
  FusedRecoverRaw(rf.data(), cf.data(), 2.0f, outf.data(), b, n, m, beta, k);
  for (float v : outf) ASSERT_EQ(v, 1.0f);

  std::vector<double> rd(rf.begin(), rf.end());
  std::vector<double> cd(cf.begin(), cf.end());
  std::vector<double> outd(outf.size());
  FusedRecoverRaw(rd.data(), cd.data(), 2.0, outd.data(), b, n, m, beta, k);
  for (double v : outd) ASSERT_EQ(v, 1.0);
}

TEST(FusedRecoverPrecisionTest, LargeMagnitudeLogitsStayFinite) {
  // Logits far beyond exp's single-width range: max-subtraction must keep
  // everything finite and normalized at both widths.
  const int64_t b = 1, n = 2, m = 2, beta = 1, k = 4;
  std::vector<float> rf(static_cast<size_t>(b * n * beta * k));
  std::vector<float> cf(static_cast<size_t>(b * beta * m * k));
  FillPseudo(&rf, 9.0f, 2);
  FillPseudo(&cf, 9.0f, 5);
  // |logit| up to tau * 9*11 * 9*11 ~ 2e4: raw exp overflows both widths.
  ExpectRecoverMatchesNaive(rf, cf, 2.0f, b, n, m, beta, k, 2e-6);

  std::vector<double> rd(rf.begin(), rf.end());
  std::vector<double> cd(cf.begin(), cf.end());
  ExpectRecoverMatchesNaive(rd, cd, 2.0, b, n, m, beta, k, 1e-9);
}

TEST(FusedRecoverPrecisionTest, FloatRawIsBitIdenticalToTensorEntryPoint) {
  // The fp32 serving plan calls FusedRecoverRaw directly; the tape calls
  // FusedRecover. Plan-vs-tape bit-identity rests on these agreeing
  // exactly, including on the edge shapes above.
  struct Case {
    int64_t b, n, m, beta, k;
  };
  for (const Case& s : {Case{2, 3, 4, 2, 5}, Case{1, 2, 2, 3, 1},
                        Case{1, 16, 16, 4, 7}}) {
    std::vector<float> r(static_cast<size_t>(s.b * s.n * s.beta * s.k));
    std::vector<float> c(static_cast<size_t>(s.b * s.beta * s.m * s.k));
    FillPseudo(&r, 0.4f, 7);
    FillPseudo(&c, 0.3f, 2);
    Tensor rt(Shape({s.b, s.n, s.beta, s.k}));
    Tensor ct(Shape({s.b, s.beta, s.m, s.k}));
    std::memcpy(rt.data(), r.data(), r.size() * sizeof(float));
    std::memcpy(ct.data(), c.data(), c.size() * sizeof(float));
    const Tensor want = FusedRecover(rt, ct, 1.1f);
    std::vector<float> got(static_cast<size_t>(want.numel()));
    FusedRecoverRaw(r.data(), c.data(), 1.1f, got.data(), s.b, s.n, s.m,
                    s.beta, s.k);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << "shape b" << s.b << " n" << s.n << " m" << s.m << " beta"
        << s.beta << " k" << s.k;
  }
}

// ---------------------------------------------------------------------
// Serving front-end: (interval, precision) cache key and the gate.
// ---------------------------------------------------------------------

TEST(ForecastServicePrecisionTest, IntervalCacheKeyedOnPrecision) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  serve::ForecastService service(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()),
      serve_config);
  service.AddPlan(serve::PlanCompiler::Compile(
      model, world.dataset.history(), serve::Precision::kFp64));
  ASSERT_EQ(service.precision(), serve::Precision::kFp32);

  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  const uint64_t misses0 = misses.value();

  service.SetCurrentInterval(2);
  const serve::ForecastResult fp32_snap = service.ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 1);
  EXPECT_EQ(service.ForecastCurrent().get(), fp32_snap.get());  // warm

  // Flipping the width must invalidate: a stale fp32 snapshot served as
  // "fp64" would defeat the whole point of the reference plan.
  service.SetPrecision(serve::Precision::kFp64);
  const serve::ForecastResult fp64_snap = service.ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 2);
  EXPECT_NE(fp64_snap.get(), fp32_snap.get());
  EXPECT_EQ(service.ForecastCurrent().get(), fp64_snap.get());  // warm again

  // The two snapshots agree within the accuracy gate.
  ASSERT_EQ(fp32_snap->size(), fp64_snap->size());
  for (size_t j = 0; j < fp32_snap->size(); ++j) {
    ExpectWithinPrecisionGate((*fp64_snap)[j], (*fp32_snap)[j]);
  }

  // Flipping back recomputes instead of resurrecting the fp64 snapshot.
  service.SetPrecision(serve::Precision::kFp32);
  const serve::ForecastResult fp32_again = service.ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 3);
  EXPECT_NE(fp32_again.get(), fp64_snap.get());
  ASSERT_EQ(fp32_again->size(), fp32_snap->size());
  for (size_t j = 0; j < fp32_again->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*fp32_again)[j], (*fp32_snap)[j]))
        << "fp32 recompute changed bits at step " << j;
  }
}

TEST(ForecastServicePrecisionTest, AccuracyGatePassesOnRealModel) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  serve_config.batch_window_us = 0;
  serve_config.precision_check = true;
  serve::ForecastService service(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()),
      serve_config);
  service.AddPlan(serve::PlanCompiler::Compile(
      model, world.dataset.history(), serve::Precision::kFp64));

  Counter& checks =
      MetricsRegistry::Global().GetCounter("serve.precision_checks");
  Counter& rejects =
      MetricsRegistry::Global().GetCounter("serve.precision_gate_rejects");
  const uint64_t checks0 = checks.value();
  const uint64_t rejects0 = rejects.value();

  for (int64_t sample : {int64_t{0}, int64_t{4}, int64_t{7}}) {
    const serve::ForecastResult result = service.Forecast(sample);
    ASSERT_NE(result, nullptr);
    for (const Tensor& step : *result) ExpectFiniteNormalized(step);
  }
  EXPECT_GE(checks.value(), checks0 + 3)
      << "precision_check did not run the dual-plan comparison";
  EXPECT_EQ(rejects.value(), rejects0)
      << "the fp32 plan tripped the accuracy gate on a real model";

  // The delta gauges show the last checked batch: nonzero (the widths
  // really differ) and inside the gate.
  const struct {
    const char* name;
    double tolerance;
  } gauges[] = {{"serve.precision_kl", serve::kPrecisionKlTolerance},
                {"serve.precision_js", serve::kPrecisionJsTolerance},
                {"serve.precision_emd", serve::kPrecisionEmdTolerance}};
  for (const auto& gauge : gauges) {
    const double value =
        MetricsRegistry::Global().GetGauge(gauge.name).value();
    EXPECT_GT(value, 0.0) << gauge.name;
    EXPECT_LE(value, gauge.tolerance) << gauge.name;
  }
}

}  // namespace
}  // namespace odf
