// Serving-path benchmark (ISSUE: tape-free compiled inference; precision-
// lowered serving).
//
// Measures four regimes on a trained, checkpoint-round-tripped AF:
//   cold      tape-based Predict vs compiled ForwardPlan::Run, single query
//   precision fp32 plan vs the fp64 reference plan: single-query p50/p99/QPS
//             side by side, plus the max per-cell KL/JS/EMD delta between
//             the two plans' histograms over a sample sweep, checked against
//             the serve/service.h gate tolerances
//   batched   end-to-end ForecastService latency/QPS at several concurrency
//             levels (micro-batching worker); c1 is measured in blocks
//             that alternate the pool between one thread
//             (`batched_c1_threads1`) and its default size, so the thread
//             gate below compares both pool sizes in one process
//   cached    ForecastCurrent hits on the interval cache
//
// Ratio claims (plan >= 3x tape, cached p50 >= 100x below cold) are
// computed from exact sorted per-iteration samples — the registry
// histograms are log2-bucketed (<= 2x resolution), so they are exported
// as a snapshot for observability, not used for the ratios.
//
// Writes BENCH_serving.json to the working directory, stamped with the
// host's hardware_concurrency and ODF_THREADS. `--smoke` runs a fast subset
// and exits non-zero if the cached p50 exceeds a generous ceiling, any
// precision delta exceeds its gate tolerance, or batched c1 p50 at the
// default pool size exceeds the one-thread p50 by more than
// kThreadGateMargin (CI smoke).
// `--precision` runs only the cold + precision regimes (quick iteration on
// the precision sweep; no JSON is written).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "metrics/divergence.h"
#include "nn/serialize.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odf::bench {
namespace {

uint64_t Percentile(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(pos + 0.5)];
}

struct Regime {
  std::string name;
  std::vector<uint64_t> nanos;
  double qps = 0.0;
  double wall_s = 0.0;  // batched regimes: client wall time behind qps
  int64_t concurrency = 1;

  uint64_t p50() const { return Percentile(nanos, 0.50); }
  uint64_t p99() const { return Percentile(nanos, 0.99); }
};

void AppendRegimeJson(std::string* out, const Regime& regime, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"concurrency\": %lld, "
                "\"samples\": %zu, \"p50_ns\": %llu, \"p99_ns\": %llu, "
                "\"qps\": %.1f}%s\n",
                regime.name.c_str(),
                static_cast<long long>(regime.concurrency),
                regime.nanos.size(),
                static_cast<unsigned long long>(regime.p50()),
                static_cast<unsigned long long>(regime.p99()), regime.qps,
                last ? "" : ",");
  *out += buf;
}

/// Max per-cell |KL|/|JS|/EMD between the two plans' normalized histograms
/// over every horizon step of the last Run (outputs assumed [B, N, N', K]).
struct MaxDeltas {
  double kl = 0.0;
  double js = 0.0;
  double emd = 0.0;
};

void AccumulateDeltas(const serve::ForwardPlan& ref,
                      const serve::ForwardPlan& low, MaxDeltas* deltas) {
  for (int64_t j = 0; j < ref.horizon(); ++j) {
    const Tensor& a = ref.output(j);
    const Tensor& b = low.output(j);
    const int64_t k = a.dim(3);
    const float* pa = a.data();
    const float* pb = b.data();
    for (int64_t c = 0; c < a.numel() / k; ++c, pa += k, pb += k) {
      deltas->kl = std::max(deltas->kl, std::fabs(KlDivergence(pa, pb, k)));
      deltas->js = std::max(deltas->js, std::fabs(JsDivergence(pa, pb, k)));
      deltas->emd = std::max(deltas->emd, EarthMoversDistance(pa, pb, k));
    }
  }
}

int Run(bool smoke, bool precision_only) {
  SetMetricsEnabled(true);
  Scale scale = Scale::FromEnv();
  if (smoke) scale.epochs = std::min(scale.epochs, 2);

  // Small trained world: the serving path targets deployment, where the
  // model is trained offline and loaded from a checkpoint.
  World world = BuildNyc(scale);
  ForecastDataset dataset(&world.series, /*history=*/4, /*horizon=*/2);
  const ForecastDataset::Split split = dataset.ChronologicalSplit(0.7, 0.1);

  AdvancedFrameworkConfig config;
  AdvancedFramework trained(world.spec.graph, world.spec.graph,
                            world.buckets, dataset.horizon(), config);
  TrainForecaster(trained, dataset, split, scale.Train());
  const std::string checkpoint = "bench_serving_checkpoint.bin";
  if (!nn::SaveParameters(trained, checkpoint)) {
    std::fprintf(stderr, "failed to write %s\n", checkpoint.c_str());
    return 1;
  }
  AdvancedFramework model(world.spec.graph, world.spec.graph, world.buckets,
                          dataset.horizon(), config);
  if (!nn::LoadParametersChecked(model, checkpoint).ok()) {
    std::fprintf(stderr, "failed to reload %s\n", checkpoint.c_str());
    return 1;
  }
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(model, dataset.history());

  const int cold_iters = smoke ? 20 : 100;
  const int cached_iters = smoke ? 2000 : 20000;
  std::vector<Regime> regimes;

  // Let the core return to steady-state clocks before timing anything: the
  // training phase above runs the CPU flat out for tens of seconds, and on
  // frequency-scaled hosts the first timing loops otherwise measure the
  // thermal tail of training rather than the kernels. fp64 is the more
  // bandwidth-bound plan, so a throttled clock skews the fp32/fp64 ratio,
  // not just the absolute numbers.
  if (!smoke) std::this_thread::sleep_for(std::chrono::seconds(20));

  // --- cold single-query: tape vs plan -------------------------------
  Batch single = dataset.MakeBatch({0});
  Regime tape;
  tape.name = "cold_tape";
  for (int i = 0; i < cold_iters + 3; ++i) {
    const uint64_t start = MonotonicNanos();
    std::vector<Tensor> predictions = model.Predict(single);
    const uint64_t elapsed = MonotonicNanos() - start;
    if (i >= 3) tape.nanos.push_back(elapsed);  // skip warmup
  }
  // --- precision sweep: fp32 plan vs fp64 reference plan --------------
  // Timed in alternating blocks: back-to-back whole loops would sample
  // different frequency-scaling states (the ratio then measures the clock,
  // not the plans), while alternating every query makes the two plans
  // evict each other's working set on every iteration — a cache pattern no
  // deployment has, since production serves from one plan at a time. A
  // block is long enough that only its first queries pay the refill, and
  // blocks are short enough that clock drift lands on both plans evenly.
  serve::ForwardPlan plan64 = serve::PlanCompiler::Compile(
      model, dataset.history(), serve::Precision::kFp64);
  Regime compiled;
  compiled.name = "cold_plan";
  Regime compiled64;
  compiled64.name = "cold_plan_fp64";
  const int block_iters = smoke ? 10 : 25;
  const int warm_iters = 3;
  for (int block = 0; block * block_iters < cold_iters; ++block) {
    for (int i = 0; i < block_iters + warm_iters; ++i) {
      const uint64_t start32 = MonotonicNanos();
      plan.Run(single.inputs);
      const uint64_t elapsed32 = MonotonicNanos() - start32;
      if (i >= warm_iters) compiled.nanos.push_back(elapsed32);
    }
    for (int i = 0; i < block_iters + warm_iters; ++i) {
      const uint64_t start64 = MonotonicNanos();
      plan64.Run(single.inputs);
      const uint64_t elapsed64 = MonotonicNanos() - start64;
      if (i >= warm_iters) compiled64.nanos.push_back(elapsed64);
    }
  }
  regimes.push_back(tape);
  regimes.push_back(compiled);
  regimes.push_back(compiled64);
  const int64_t num_samples = dataset.NumSamples();
  MaxDeltas deltas;
  const int64_t delta_queries = smoke ? 4 : 16;
  for (int64_t q = 0; q < delta_queries; ++q) {
    Batch query = dataset.MakeBatch({(q * 7) % num_samples});
    plan.Run(query.inputs);
    plan64.Run(query.inputs);
    AccumulateDeltas(plan64, plan, &deltas);
  }
  const double fp32_speedup =
      static_cast<double>(compiled64.p50()) /
      static_cast<double>(std::max<uint64_t>(compiled.p50(), 1));
  const bool gate_pass = deltas.kl <= serve::kPrecisionKlTolerance &&
                         deltas.js <= serve::kPrecisionJsTolerance &&
                         deltas.emd <= serve::kPrecisionEmdTolerance;
  if (precision_only) {
    std::printf("%-16s %10s %10s\n", "plan", "p50_us", "p99_us");
    std::printf("%-16s %10.1f %10.1f\n", "fp32",
                static_cast<double>(compiled.p50()) * 1e-3,
                static_cast<double>(compiled.p99()) * 1e-3);
    std::printf("%-16s %10.1f %10.1f\n", "fp64",
                static_cast<double>(compiled64.p50()) * 1e-3,
                static_cast<double>(compiled64.p99()) * 1e-3);
    std::printf("fp32_speedup_vs_fp64_p50: %.2fx\n", fp32_speedup);
    std::printf("max_kl %.3g  max_js %.3g  max_emd %.3g  gate %s\n",
                deltas.kl, deltas.js, deltas.emd,
                gate_pass ? "pass" : "REJECT");
    std::remove(checkpoint.c_str());
    return gate_pass ? 0 : 1;
  }

  // --- batched serving at several concurrency levels -----------------
  serve::ServeConfig serve_config = serve::ServeConfig::FromEnv();
  serve::ForecastService service(
      &dataset, serve::PlanCompiler::Compile(model, dataset.history()),
      serve_config);
  // Runs `level` closed-loop clients of `queries` queries in total and
  // appends their latencies and wall time to `regime`.
  const auto run_clients = [&](Regime* regime, int64_t level, int queries) {
    regime->concurrency = level;
    const int per_thread = queries / static_cast<int>(level);
    std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(level));
    const uint64_t wall_start = MonotonicNanos();
    std::vector<std::thread> clients;
    for (int64_t t = 0; t < level; ++t) {
      clients.emplace_back([&, t] {
        for (int q = 0; q < per_thread; ++q) {
          const int64_t sample = (t * 13 + q * 5) % num_samples;
          const uint64_t start = MonotonicNanos();
          serve::ForecastResult result = service.Forecast(sample);
          lat[static_cast<size_t>(t)].push_back(MonotonicNanos() - start);
          if (result == nullptr) std::abort();
        }
      });
    }
    for (std::thread& client : clients) client.join();
    regime->wall_s +=
        static_cast<double>(MonotonicNanos() - wall_start) * 1e-9;
    for (const std::vector<uint64_t>& thread_lat : lat) {
      regime->nanos.insert(regime->nanos.end(), thread_lat.begin(),
                           thread_lat.end());
    }
    regime->qps = static_cast<double>(regime->nanos.size()) / regime->wall_s;
  };
  const int level_queries = smoke ? 40 : 200;
  for (int q = 0; q < 5; ++q) service.Forecast(q % num_samples);  // warm-up
  // Thread gate: the same c1 load with the pool at one thread and at its
  // default size, in alternating blocks so clock drift lands on both.
  // Service workers run plans serially, so the pool size must not slow a
  // served query down.
  const int pool_threads = ThreadPool::Global().threads();
  Regime c1_serial;
  c1_serial.name = "batched_c1_threads1";
  Regime c1_pool;
  c1_pool.name = "batched_c1";
  for (int block = 0; block < 4; ++block) {
    ThreadPool::Global().Resize(1);
    run_clients(&c1_serial, 1, level_queries);
    ThreadPool::Global().Resize(pool_threads);
    run_clients(&c1_pool, 1, level_queries);
  }
  regimes.push_back(c1_serial);
  regimes.push_back(c1_pool);
  for (int64_t level : {2, 4, 8}) {
    Regime regime;
    regime.name = "batched_c" + std::to_string(level);
    run_clients(&regime, level, level_queries);
    regimes.push_back(regime);
  }
  // On a 4-vCPU AVX-512 host (Release) the ratio reads 0.99–1.09× with
  // serial service workers and 1.27–1.31× when the worker dispatches its
  // plan's kernels through the pool; the margin sits between the two.
  constexpr double kThreadGateMargin = 1.2;
  const double thread_ratio =
      static_cast<double>(c1_pool.p50()) /
      static_cast<double>(std::max<uint64_t>(c1_serial.p50(), 1));
  const bool thread_gate_pass = thread_ratio <= kThreadGateMargin;

  // --- cached current-interval hits ----------------------------------
  service.SetCurrentInterval(1);
  service.ForecastCurrent();  // warm the cache
  Regime cached;
  cached.name = "cached";
  for (int i = 0; i < cached_iters; ++i) {
    const uint64_t start = MonotonicNanos();
    serve::ForecastResult result = service.ForecastCurrent();
    cached.nanos.push_back(MonotonicNanos() - start);
    if (result == nullptr) std::abort();
  }
  regimes.push_back(cached);

  // --- report ---------------------------------------------------------
  const double speedup = static_cast<double>(tape.p50()) /
                         static_cast<double>(std::max<uint64_t>(
                             compiled.p50(), 1));
  const double cache_ratio = static_cast<double>(compiled.p50()) /
                             static_cast<double>(std::max<uint64_t>(
                                 cached.p50(), 1));
  std::printf("%-12s %10s %10s %10s %8s\n", "regime", "p50_us", "p99_us",
              "qps", "conc");
  for (const Regime& regime : regimes) {
    std::printf("%-12s %10.1f %10.1f %10.1f %8lld\n", regime.name.c_str(),
                static_cast<double>(regime.p50()) * 1e-3,
                static_cast<double>(regime.p99()) * 1e-3, regime.qps,
                static_cast<long long>(regime.concurrency));
  }
  std::printf("plan_speedup_vs_tape_p50: %.2fx\n", speedup);
  std::printf("cold_over_cached_p50:     %.0fx\n", cache_ratio);
  std::printf("fp32_speedup_vs_fp64_p50: %.2fx\n", fp32_speedup);
  std::printf("precision deltas: max_kl %.3g  max_js %.3g  max_emd %.3g  "
              "gate %s\n",
              deltas.kl, deltas.js, deltas.emd,
              gate_pass ? "pass" : "REJECT");
  std::printf("batched_c1 p50 at %d threads over 1 thread: %.2fx "
              "(margin %.2fx) gate %s\n",
              pool_threads, thread_ratio, kThreadGateMargin,
              thread_gate_pass ? "pass" : "FAIL");

  const char* odf_threads = std::getenv("ODF_THREADS");

  std::string json = "{\n";
  json += "  \"bench\": \"serving\",\n";
  char host[256];
  std::snprintf(host, sizeof host,
                "  \"host\": {\"hardware_concurrency\": %u, "
                "\"odf_threads\": \"%s\", \"pool_threads\": %d},\n",
                std::thread::hardware_concurrency(),
                odf_threads != nullptr ? odf_threads : "", pool_threads);
  json += host;
  json += "  \"regimes\": [\n";
  for (size_t i = 0; i < regimes.size(); ++i) {
    AppendRegimeJson(&json, regimes[i], i + 1 == regimes.size());
  }
  json += "  ],\n";
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "  \"plan_speedup_vs_tape_p50\": %.2f,\n"
                "  \"cold_over_cached_p50\": %.1f,\n",
                speedup, cache_ratio);
  json += buf;
  // Single-query QPS: serial replay rate at p50 latency.
  std::snprintf(
      buf, sizeof buf,
      "  \"precision\": {\n"
      "    \"fp32\": {\"p50_ns\": %llu, \"p99_ns\": %llu, \"qps\": %.1f},\n"
      "    \"fp64\": {\"p50_ns\": %llu, \"p99_ns\": %llu, \"qps\": %.1f},\n"
      "    \"fp32_speedup_vs_fp64_p50\": %.2f,\n"
      "    \"max_kl\": %.6g, \"max_js\": %.6g, \"max_emd\": %.6g,\n"
      "    \"tolerance_kl\": %.3g, \"tolerance_js\": %.3g, "
      "\"tolerance_emd\": %.3g,\n"
      "    \"gate\": \"%s\"\n"
      "  },\n",
      static_cast<unsigned long long>(compiled.p50()),
      static_cast<unsigned long long>(compiled.p99()),
      1e9 / static_cast<double>(std::max<uint64_t>(compiled.p50(), 1)),
      static_cast<unsigned long long>(compiled64.p50()),
      static_cast<unsigned long long>(compiled64.p99()),
      1e9 / static_cast<double>(std::max<uint64_t>(compiled64.p50(), 1)),
      fp32_speedup, deltas.kl, deltas.js, deltas.emd,
      serve::kPrecisionKlTolerance, serve::kPrecisionJsTolerance,
      serve::kPrecisionEmdTolerance, gate_pass ? "pass" : "reject");
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"thread_gate\": {\"threads\": %d, "
                "\"c1_p50_ns_threads1\": %llu, \"c1_p50_ns_threadsN\": %llu, "
                "\"ratio\": %.2f, \"margin\": %.2f, \"gate\": \"%s\"},\n",
                pool_threads,
                static_cast<unsigned long long>(c1_serial.p50()),
                static_cast<unsigned long long>(c1_pool.p50()), thread_ratio,
                kThreadGateMargin, thread_gate_pass ? "pass" : "fail");
  json += buf;
  json += "  \"metrics\": ";
  json += MetricsRegistry::Global().ToJson();
  json += "\n}\n";
  std::ofstream out("BENCH_serving.json");
  out << json;
  out.close();
  std::remove(checkpoint.c_str());

  if (smoke) {
    // Generous ceiling: a cache hit is a mutex + shared_ptr copy and sits
    // in the hundreds of nanoseconds; 50 us still passes on a loaded CI
    // box while catching a broken (recomputing) cache by 2+ orders.
    constexpr uint64_t kCachedP50CeilingNs = 50'000;
    if (cached.p50() > kCachedP50CeilingNs) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cached p50 %llu ns exceeds ceiling %llu ns\n",
                   static_cast<unsigned long long>(cached.p50()),
                   static_cast<unsigned long long>(kCachedP50CeilingNs));
      return 1;
    }
    if (speedup < 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: compiled plan slower than the tape "
                   "(speedup %.2fx)\n",
                   speedup);
      return 1;
    }
    if (!thread_gate_pass) {
      std::fprintf(stderr,
                   "SMOKE FAIL: batched c1 p50 at %d threads is %.2fx the "
                   "1-thread p50 (margin %.2fx)\n",
                   pool_threads, thread_ratio, kThreadGateMargin);
      return 1;
    }
    if (!gate_pass) {
      std::fprintf(stderr,
                   "SMOKE FAIL: precision delta over tolerance "
                   "(kl %.3g/%.3g  js %.3g/%.3g  emd %.3g/%.3g)\n",
                   deltas.kl, serve::kPrecisionKlTolerance, deltas.js,
                   serve::kPrecisionJsTolerance, deltas.emd,
                   serve::kPrecisionEmdTolerance);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace odf::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool precision_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--precision") == 0) precision_only = true;
  }
  return odf::bench::Run(smoke, precision_only);
}
