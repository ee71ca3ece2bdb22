// Workload `serve`: independent clients asking a ForecastService for cold
// forecasts of distinct windows, in an open loop.
//
// Set-up: a NYC-like 4×4 city, 4 days at 30 min, streamed through ODTL →
// TripOdSource → ForecastDataset; a paper-default AF trained for one epoch,
// round-tripped through SaveParameters/LoadParametersChecked, compiled, and
// served by a default-config ForecastService. Timed: Poisson arrivals of
// ForecastAsync on seeded uniform sample indices at 200/s (`low`) and
// 500/s (`high`), then a rate search for the highest rate whose p90 stays
// within 25 ms with no growing backlog (`max_qps`; see README.md for why
// the gate is p90 and not p99), then bursts that ask for every window at
// once (the saturation throughput).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "core/advanced_framework.h"
#include "core/trainer.h"
#include "metrics/evaluation.h"
#include "nn/serialize.h"
#include "od/stream_source.h"
#include "od/trip_log.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "sim/trip_generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odb {
namespace {

constexpr int kSetups = 5;
// The served model is the same for every --seed; the seed drives the load.
constexpr uint64_t kTrainSeed = 7;
constexpr double kLowRate = 200.0;
constexpr double kHighRate = 500.0;
constexpr double kTailLimitMs = 25.0;
constexpr double kTailQ = 0.90;
constexpr int kKeepEvery = 16;  // responses kept for the byte-equality check

struct World {
  explicit World(odf::DatasetSpec s) : spec(std::move(s)) {}
  odf::DatasetSpec spec;
  std::unique_ptr<odf::TripLogReader> reader;
  std::unique_ptr<odf::TripOdSource> source;
  std::unique_ptr<odf::ForecastDataset> dataset;
  odf::ForecastDataset::Split split;
  std::unique_ptr<odf::AdvancedFramework> model;  // loaded from checkpoint
  std::unique_ptr<odf::serve::ForwardPlan> direct;
  std::unique_ptr<odf::serve::ForecastService> service;
};

std::unique_ptr<World> SetUp(const Options& opt, int index) {
  auto w = std::make_unique<World>(
      odf::MakeNycLike(4, 4, /*num_days=*/4, /*interval_minutes=*/30));
  const odf::TimePartition tp(w->spec.config.interval_minutes,
                              w->spec.config.num_days);
  const int64_t n = w->spec.graph.size();
  const int64_t k = odf::SpeedHistogramSpec::Paper().num_buckets();
  const std::string stem = opt.work_dir + "/serve-" + std::to_string(index);
  {
    odf::TripGenerator generator(w->spec.graph, w->spec.config);
    if (!odf::WriteTripLog(generator.Generate(), tp, n, stem + ".odtl")) {
      return nullptr;
    }
  }
  w->reader = std::make_unique<odf::TripLogReader>();
  if (w->reader->Open(stem + ".odtl") != odf::TripLogStatus::kOk) return nullptr;
  w->source = std::make_unique<odf::TripOdSource>(
      w->reader.get(), odf::SpeedHistogramSpec::Paper(), n, n);
  w->dataset = std::make_unique<odf::ForecastDataset>(w->source.get(), 6, 1);
  w->split = w->dataset->ChronologicalSplit(0.7, 0.1);
  {
    odf::AdvancedFramework trained(w->spec.graph, w->spec.graph, k, 1,
                                   odf::AdvancedFrameworkConfig{});
    odf::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 16;
    config.patience = 1'000'000;
    config.seed = kTrainSeed;
    odf::TrainForecaster(trained, *w->dataset, w->split, config);
    if (!odf::nn::SaveParameters(trained, stem + ".params")) return nullptr;
  }
  w->model = std::make_unique<odf::AdvancedFramework>(
      w->spec.graph, w->spec.graph, k, 1, odf::AdvancedFrameworkConfig{});
  if (!odf::nn::LoadParametersChecked(*w->model, stem + ".params").ok()) {
    return nullptr;
  }
  w->direct = std::make_unique<odf::serve::ForwardPlan>(
      odf::serve::PlanCompiler::Compile(*w->model, w->dataset->history()));
  w->service = std::make_unique<odf::serve::ForecastService>(
      w->dataset.get(),
      odf::serve::PlanCompiler::Compile(*w->model, w->dataset->history()));
  return w;
}

/// One open-loop phase: what was asked, when, and what came back.
struct Phase {
  std::vector<Request> reqs;
  std::vector<int64_t> samples;
  std::vector<std::pair<int64_t, odf::serve::ForecastResult>> kept;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The thread that waits on the futures of every phase, in send order, and
/// stamps completions. There is one for the whole run: a new thread per
/// phase would take a different malloc arena each time and make peak RSS
/// wander from run to run.
class Collector {
 public:
  using Done = std::function<void(const odf::serve::ForecastResult&, uint64_t)>;

  Collector() : thread_([this] { Loop(); }) {}
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  void Push(std::future<odf::serve::ForecastResult> future, Done done) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back(std::move(future), std::move(done));
      ++pushed_;
    }
    cv_.notify_one();
  }

  /// Blocks until every pushed future has completed and been handled.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return handled_ == pushed_; });
  }

 private:
  void Loop() {
    for (;;) {
      std::pair<std::future<odf::serve::ForecastResult>, Done> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      item.first.wait();
      const uint64_t done_ns = odf::MonotonicNanos();
      item.second(item.first.get(), done_ns);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++handled_;
      }
      drained_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  std::deque<std::pair<std::future<odf::serve::ForecastResult>, Done>> queue_;
  uint64_t pushed_ = 0;
  uint64_t handled_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// Sends ForecastAsync for `samples` at `offsets` (ns from the start) from
/// this thread; the collector stamps completions and checks every response
/// as it arrives.
Phase Send(World& w, Collector& collector, const std::vector<uint64_t>& offsets,
           std::vector<int64_t> samples, Result& result, SpanLog* spans) {
  Phase ph;
  ph.samples = std::move(samples);
  ph.reqs.resize(offsets.size());

  const int64_t n = w.dataset->num_origins();
  const int64_t k = w.dataset->num_buckets();
  std::vector<std::string> bad;  // written by the collector only
  ph.start_ns = odf::MonotonicNanos() + 1'000'000;
  for (size_t i = 0; i < offsets.size(); ++i) {
    Request& r = ph.reqs[i];
    r.due_ns = ph.start_ns + offsets[i];
    r.sent_ns = WaitUntil(r.due_ns);
    std::future<odf::serve::ForecastResult> f;
    {
      ScopedSpan s(spans, "serve.ForecastAsync", static_cast<int64_t>(i));
      f = w.service->ForecastAsync(ph.samples[i]);
    }
    collector.Push(std::move(f), [&, i](const odf::serve::ForecastResult& res,
                                        uint64_t done_ns) {
      Request& done = ph.reqs[i];
      done.done_ns = done_ns;
      if (spans != nullptr) {
        spans->Add("serve.request", done.sent_ns, done_ns,
                   static_cast<int64_t>(i));
      }
      const bool ok = res != nullptr && res->size() == 1 &&
                      (*res)[0].shape() == odf::Shape({n, n, k}) &&
                      FiniteUnitRows((*res)[0].data(), (*res)[0].numel(), k);
      if (!ok) {
        bad.push_back("serve: bad response for sample " +
                      std::to_string(ph.samples[i]));
      } else if (i % kKeepEvery == 0) {
        ph.kept.push_back({ph.samples[i], res});
      }
    });
  }
  collector.Drain();
  ph.end_ns = odf::MonotonicNanos();
  result.attempted += static_cast<int64_t>(ph.reqs.size()) -
                      static_cast<int64_t>(bad.size());
  for (const std::string& why : bad) result.Check(false, why);
  return ph;
}

/// Poisson arrivals at `rate` for `seconds`, each asking for a seeded
/// uniform window. The arrival trace of a phase is fixed; --seed picks the
/// windows asked for. Queueing near saturation swings with the arrival
/// pattern, so a fixed trace leaves run-to-run differences to the program
/// and the host.
Phase OpenLoop(World& w, Collector& collector, double rate, double seconds,
               uint64_t phase, const Options& opt, Result& result,
               SpanLog* spans) {
  const std::vector<uint64_t> offsets = PoissonSchedule(rate, seconds, phase);
  std::mt19937_64 pick(opt.seed * 1000003ull + phase);
  std::uniform_int_distribution<int64_t> window(0, w.dataset->NumSamples() - 1);
  std::vector<int64_t> samples(offsets.size());
  for (auto& s : samples) s = window(pick);
  return Send(w, collector, offsets, std::move(samples), result, spans);
}

/// Kept responses must be byte-equal to a direct ForwardPlan::Run of the
/// same sample (run outside the timed window).
void CheckAgainstPlan(World& w, const Phase& ph, Result& result) {
  for (const auto& [sample, res] : ph.kept) {
    w.direct->Run(w.dataset->MakeBatch({sample}).inputs);
    const odf::Tensor& want = w.direct->output(0);
    const odf::Tensor& got = (*res)[0];
    result.Check(want.numel() == got.numel() &&
                     std::memcmp(want.data(), got.data(),
                                 static_cast<size_t>(got.numel()) *
                                     sizeof(float)) == 0,
                 "serve: response differs from ForwardPlan::Run for sample " +
                     std::to_string(sample));
  }
}

Quantile Pct(const Phase& ph, double q) {
  return PercentileWithBeyond(DueLatenciesMs(ph.reqs), q);
}

Probe MakeProbe(const Phase& ph, double rate) {
  Probe p;
  p.rate = rate;
  p.want_q = kTailQ;
  // The gate reads the median of three slices' p90, so one noisy stretch
  // of a short probe does not decide it.
  p.tail = Pct(ph, kTailQ);
  p.tail.value = SliceMedian(ph.reqs, kTailQ, 3);
  for (const Request& r : ph.reqs) p.incomplete |= r.done_ns == 0;
  p.backlog = BacklogGrowing(DueLatenciesMs(ph.reqs));
  return p;
}

/// Windows per second while a backlog keeps the service busy. Each burst
/// asks for every window once, in a seeded order, all at once, so no two
/// queued requests share a window and the service cannot merge them into
/// one batch row. Each drain is cut into stretches of kStretch completions
/// (two full batches), timed from completion to completion, and the rate
/// is taken at the median of the fastest stretches (see MedianOfFastest).
constexpr size_t kStretch = 16;

double SaturationQps(World& w, Collector& collector, const Options& opt,
                     Result& result, int bursts, size_t* stretches) {
  const int64_t windows = w.dataset->NumSamples();
  const std::vector<uint64_t> at_once(static_cast<size_t>(windows), 0);
  std::mt19937_64 order(opt.seed * 1000003ull + 3);
  std::vector<double> seconds;
  for (int burst = 0; burst < bursts; ++burst) {
    std::vector<int64_t> samples(static_cast<size_t>(windows));
    for (int64_t i = 0; i < windows; ++i) samples[static_cast<size_t>(i)] = i;
    std::shuffle(samples.begin(), samples.end(), order);
    const Phase ph = Send(w, collector, at_once, std::move(samples), result,
                          nullptr);
    std::vector<uint64_t> done;
    for (const Request& r : ph.reqs) {
      if (r.done_ns != 0) done.push_back(r.done_ns);
    }
    std::sort(done.begin(), done.end());
    for (size_t i = 0; i + kStretch < done.size(); i += kStretch) {
      if (done[i + kStretch] <= done[i]) continue;
      seconds.push_back(static_cast<double>(done[i + kStretch] - done[i]) * 1e-9);
    }
  }
  *stretches = seconds.size();
  const double fastest = MedianOfFastest(seconds, kFastestRepeats);
  return fastest > 0.0 ? static_cast<double>(kStretch) / fastest : 0.0;
}

/// Mean KL of the service's forecasts of every test window.
double ServedKl(World& w, Result& result) {
  odf::MetricAccumulator acc;
  for (int64_t sample : w.split.test) {
    const odf::serve::ForecastResult res = w.service->Forecast(sample);
    const bool ok = res != nullptr && res->size() == 1 &&
                    FiniteUnitRows((*res)[0].data(), (*res)[0].numel(),
                                   w.dataset->num_buckets());
    result.Check(ok, "serve: bad test-split response");
    if (!ok) continue;
    const auto truth =
        w.source->Interval(w.dataset->AnchorInterval(sample) + 1);
    odf::AccumulateForecast((*res)[0], *truth, acc);
  }
  return acc.Mean(odf::Metric::kKl);
}

}  // namespace

int RunServe(const Options& opt, Result& result, SpanLog* spans) {
  Collector collector;
  std::vector<double> setup_s;  // the fastest of kSetups is reported
  const std::unique_ptr<World> w = SetUpRepeatedly(
      kSetups, [&opt](int i) { return SetUp(opt, i); }, &setup_s);
  if (w == nullptr) return 1;
  const double s = opt.seconds;
  // Long enough that each phase's p99 keeps 10 samples beyond it.
  const double low_s = std::max(6.0, 0.3 * s);
  const double high_s = std::max(7.0, 0.35 * s);
  std::printf("serve: %lld windows, low %.1fs at %g/s, high %.1fs at %g/s\n",
              static_cast<long long>(w->dataset->NumSamples()), low_s, kLowRate,
              high_s, kHighRate);

  // Warm-up, not counted: first touches of the plan arenas and the pool.
  OpenLoop(*w, collector, kLowRate, 0.5, /*phase=*/0, opt, result, nullptr);

  const Phase low = OpenLoop(*w, collector, kLowRate, low_s, /*phase=*/1, opt, result, nullptr);
  const Quantile low_p50 = Pct(low, 0.50);
  if (spans == nullptr) {
    const Phase high =
        OpenLoop(*w, collector, kHighRate, high_s, /*phase=*/2, opt, result, nullptr);
    std::vector<Probe> probes;
    uint64_t probe_phase = 100;
    const double max_qps = MaxRateSearch(
        [&](double rate) {
          if (rate == kHighRate) return MakeProbe(high, rate);
          const double secs = std::max(1.5, 300.0 / rate);
          const Phase ph = OpenLoop(*w, collector, rate, secs, probe_phase++, opt, result, nullptr);
          CheckAgainstPlan(*w, ph, result);
          return MakeProbe(ph, rate);
        },
        kHighRate, 4000.0, 1.3, 0.05, kTailLimitMs, &probes);
    const int bursts = std::max(5, opt.seconds / 2);
    size_t stretches = 0;
    const double saturation =
        SaturationQps(*w, collector, opt, result, bursts, &stretches);
    CheckAgainstPlan(*w, low, result);
    CheckAgainstPlan(*w, high, result);
    const double kl = ServedKl(*w, result);

    char setups[64];
    std::snprintf(setups, sizeof setups, "(fastest of %d set-ups)", kSetups);
    result.Report("setup_s", Min(setup_s), "s", setups);
    result.ReportQuantile("serve.low.", low_p50, "ms");
    result.ReportQuantile("serve.low.", Pct(low, 0.99), "ms");
    result.ReportQuantile("serve.high.", Pct(high, 0.50), "ms");
    result.ReportQuantile("serve.high.", Pct(high, 0.99), "ms");
    for (const Probe& p : probes) {
      std::printf("  probe %7.1f/s: %s %.3f ms (n=%lld)%s%s\n", p.rate,
                  p.tail.Name().c_str(), p.tail.value,
                  static_cast<long long>(p.tail.n), p.backlog ? " backlog" : "",
                  p.Passes(kTailLimitMs) ? " pass" : " FAIL");
    }
    char detail[96];
    std::snprintf(detail, sizeof detail, "(%zu probes, p90 <= %g ms)",
                  probes.size(), kTailLimitMs);
    result.Report("serve.max_qps", max_qps, "1/s", detail);
    char fastest[96];
    std::snprintf(fastest, sizeof fastest,
                  "(median of the fastest %zu of %zu stretches of %zu)",
                  kFastestRepeats, stretches, kStretch);
    result.Report("serve.saturation_qps", saturation, "1/s", fastest);
    result.Report("serve.test_kl", kl, "nat", "(served test windows)");
    result.Report("bench.gen_lag_p99_us",
                  PercentileWithBeyond(SendLagsUs(low.reqs), 0.99).value, "us");
    result.Report("peak_rss_mb", PeakRssMb(), "MB");

    result.Set("setup_s", Min(setup_s), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("throughput_per_s", saturation, "1/s");
    result.Set("quality_kl", kl, "nat");
    return 0;
  }

  // Traced: the same two phases with metrics on and request spans, then
  // B=1 plan runs outside the service.
  std::map<std::string, double> layers;
  odf::SetMetricsEnabled(true);
  const RegistrySnapshot before = RegistrySnapshot::Take();
  Phase tlow, thigh;
  {
    ScopedSpan sp(spans, "serve.low");
    tlow = OpenLoop(*w, collector, kLowRate, low_s, /*phase=*/1, opt, result, spans);
  }
  {
    ScopedSpan sp(spans, "serve.high");
    thigh = OpenLoop(*w, collector, kHighRate, high_s, /*phase=*/2, opt, result, spans);
  }
  const RegistrySnapshot after = RegistrySnapshot::Take();
  CheckAgainstPlan(*w, tlow, result);
  CheckAgainstPlan(*w, thigh, result);

  const double queries = static_cast<double>(tlow.reqs.size() + thigh.reqs.size());
  const double wall_ms = static_cast<double>((tlow.end_ns - tlow.start_ns) +
                                             (thigh.end_ns - thigh.start_ns)) *
                         1e-6;
  for (const auto& [layer, hist] :
       {std::pair<const char*, const char*>{"tensor.gemm_ms", "gemm.seconds"},
        {"tensor.batch_gemm_ms", "batch_gemm.seconds"},
        {"tensor.cheb_basis_ms", "cheb_basis.seconds"},
        {"tensor.spmm_ms", "spmm.seconds"},
        {"tensor.fused_recover_ms", "fused_recover.seconds"},
        {"od.stream_build_ms", "stream.build_ns"}}) {
    layers[layer] = after.SumMs(before, hist) / queries;
  }
  layers["tensor.gemm.calls"] = after.Counter(before, "gemm.calls") / queries;
  layers["tensor.batch_gemm.calls"] =
      after.Counter(before, "batch_gemm.calls") / queries;
  layers["tensor.cheb_basis.calls"] =
      after.Count(before, "cheb_basis.seconds") / queries;
  layers["tensor.spmm.calls"] = after.Counter(before, "spmm.calls") / queries;
  layers["tensor.fused_recover.calls"] =
      after.Counter(before, "fused_recover.calls") / queries;
  layers["util.pool.fors_per_query"] =
      after.Counter(before, "pool.parallel_fors") / queries;
  layers["util.pool.busy_frac"] = after.SumMs(before, "pool.chunk_seconds") /
                                  (wall_ms * odf::ThreadPool::Global().threads());
  const double hits = after.Counter(before, "stream.cache_hits");
  const double misses = after.Counter(before, "stream.cache_misses");
  layers["od.stream_hits"] = hits;
  layers["od.stream_misses"] = misses;
  layers["od.stream_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  const double batches = after.Count(before, "serve.batch_size");
  layers["serve.batch_size_mean"] =
      batches > 0 ? after.SumMs(before, "serve.batch_size") * 1e6 / batches : 0;
  const double forward_ms =
      batches > 0 ? after.SumMs(before, "serve.batch_forward_seconds") / batches
                  : 0;
  layers["serve.batch_forward_ms"] = forward_ms;
  double sent_to_done_ms = 0.0;
  for (const Phase* ph : {&tlow, &thigh}) {
    for (const Request& r : ph->reqs) {
      sent_to_done_ms += static_cast<double>(r.done_ns - r.sent_ns) * 1e-6;
    }
  }
  layers["serve.queue_wait_ms"] = sent_to_done_ms / queries - forward_ms;
  std::vector<Request> all_reqs = tlow.reqs;
  all_reqs.insert(all_reqs.end(), thigh.reqs.begin(), thigh.reqs.end());
  layers["bench.gen_lag_p99_us"] =
      PercentileWithBeyond(SendLagsUs(all_reqs), 0.99).value;
  layers["bench.trace_overhead"] = Pct(tlow, 0.50).value / low_p50.value - 1.0;

  // B=1 plan runs outside the service, seeded uniform windows.
  constexpr int kPlanRuns = 300;
  std::mt19937_64 pick(opt.seed + 7);
  std::uniform_int_distribution<int64_t> window(0, w->dataset->NumSamples() - 1);
  const RegistrySnapshot plan_before = RegistrySnapshot::Take();
  for (int i = 0; i < kPlanRuns; ++i) {
    odf::Batch batch;
    {
      ScopedSpan sp(spans, "od.MakeBatch", i);
      batch = w->dataset->MakeBatch({window(pick)});
    }
    ScopedSpan sp(spans, "serve.plan.Run", i);
    w->direct->Run(batch.inputs);
  }
  const RegistrySnapshot plan_after = RegistrySnapshot::Take();
  odf::SetMetricsEnabled(false);
  const std::vector<Span> all = spans->Snapshot();
  layers["od.make_batch_ms"] = SumSpans(all, "od.MakeBatch").total_ms / kPlanRuns;
  layers["serve.plan_run_ms"] = SumSpans(all, "serve.plan.Run").total_ms / kPlanRuns;
  double phase_sum = 0.0;
  for (const char* phase : {"factorize", "encode", "decode", "recover"}) {
    const double ms = plan_after.SumMs(plan_before, std::string("serve.plan.") +
                                                        phase + "_seconds");
    phase_sum += ms;
    layers[std::string("serve.plan.") + phase + "_ms"] = ms / kPlanRuns;
  }
  const double run_sum = plan_after.SumMs(plan_before, "serve.plan.run_seconds");
  const double closure = run_sum > 0 ? phase_sum / run_sum : 0.0;
  layers["bench.plan_closure"] = closure;

  const bool closed = std::fabs(closure - 1.0) <= 0.05;
  result.Report("bench.plan_closure", closure, "ratio",
                closed ? "(phases within 5% of run: ok)" : "(FAILED)");
  result.Check(closed, "serve: plan phases do not sum to the plan run");
  result.Report("bench.trace_overhead", layers["bench.trace_overhead"], "ratio");
  SetLayerMetrics(result, layers);
  return 0;
}

}  // namespace odb
