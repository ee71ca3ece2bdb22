// Workload `replay`: the live city. A reader asks a ShardedService for OD
// pairs in an open loop while a writer rolls the current interval over on a
// fixed cadence, invalidating every unit's interval cache at once.
//
// Set-up: a 16×16 grid (n=256) with 4·n mean trips per interval over 2 days
// at 30 min goes to ODTL, then to a ShardedModel with 16 shards plus the
// boundary unit, trained for one epoch, then to a ShardedService. Timed:
// ForecastOd at a fixed 2000/s beside a rollover (SetCurrentInterval(next)
// then MergedForecast(0)) every 250 ms. Each read asks for the OD pair of a
// trip in the log, drawn from the interval being forecast, so the reads
// carry the city's own skew and intra/cross-shard mix.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "core/trainer.h"
#include "metrics/evaluation.h"
#include "od/stream_source.h"
#include "od/trip_log.h"
#include "shard/sharded_model.h"
#include "shard/sharded_service.h"
#include "sim/trip_generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odb {
namespace {

constexpr int kSetups = 3;
// The served model is the same for every --seed; the seed drives the load.
constexpr uint64_t kTrainSeed = 7;
constexpr double kReadRate = 2000.0;
constexpr uint64_t kRolloverEveryNs = 250'000'000;
constexpr int kKeepEvery = 8;  // merged forecasts kept for checks

struct World {
  explicit World(odf::DatasetSpec s) : spec(std::move(s)) {}
  odf::DatasetSpec spec;
  std::unique_ptr<odf::TripLogReader> reader;
  std::unique_ptr<odf::shard::ShardedModel> model;
  std::unique_ptr<odf::shard::ShardedService> service;
};

std::unique_ptr<World> SetUp(const Options& opt, int index) {
  auto w = std::make_unique<World>(
      odf::MakeNycLike(16, 16, /*num_days=*/2, /*interval_minutes=*/30));
  const int64_t n = w->spec.graph.size();
  w->spec.config.mean_trips_per_interval = 4.0 * static_cast<double>(n);
  const odf::TimePartition tp(w->spec.config.interval_minutes,
                              w->spec.config.num_days);
  const std::string log =
      opt.work_dir + "/replay-" + std::to_string(index) + ".odtl";
  {
    odf::TripGenerator generator(w->spec.graph, w->spec.config);
    if (!odf::WriteTripLog(generator.Generate(), tp, n, log)) return nullptr;
  }
  w->reader = std::make_unique<odf::TripLogReader>();
  if (w->reader->Open(log) != odf::TripLogStatus::kOk) return nullptr;
  odf::shard::ShardedModelConfig config;
  config.num_shards = 16;
  w->model = std::make_unique<odf::shard::ShardedModel>(w->spec.graph,
                                                        w->reader.get(), config);
  odf::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 16;
  train.patience = 1'000'000;
  train.seed = kTrainSeed;
  w->model->Train(train);
  w->service = std::make_unique<odf::shard::ShardedService>(w->model.get());
  w->service->SetCurrentInterval(0);
  w->service->MergedForecast(0);
  return w;
}

/// The OD pairs the reader asks for. Read i goes out while sample
/// `cursor + i·spacing / cadence` is current; it asks for the pair of a trip
/// drawn by `seed` from that sample's forecast interval in the log. Which
/// pairs are popular, and how many cross shards, is the city's own. Empty
/// when the log cannot be read.
std::vector<std::pair<int32_t, int32_t>> ReadPairs(const World& w,
                                                   int64_t cursor, size_t count,
                                                   uint64_t spacing_ns,
                                                   uint64_t seed) {
  const odf::ForecastDataset& dataset = w.model->shard_dataset(0);
  const int64_t samples = w.model->NumSamples();
  const int64_t intervals = w.reader->num_intervals();
  std::map<int64_t, std::vector<odf::Trip>> trips;  // by interval
  std::mt19937_64 gen(seed);
  std::vector<std::pair<int32_t, int32_t>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto step = static_cast<int64_t>(i * spacing_ns / kRolloverEveryNs);
    int64_t t = dataset.AnchorInterval((cursor + step) % samples) + 1;
    // A quiet interval with no trips asks for the next one's pairs.
    for (int64_t tries = 0;; ++tries, t = (t + 1) % intervals) {
      if (tries == intervals) return {};
      auto [it, fresh] = trips.try_emplace(t);
      if (fresh && w.reader->ReadInterval(t, &it->second) !=
                       odf::TripLogStatus::kOk) {
        return {};
      }
      if (it->second.empty()) continue;
      std::uniform_int_distribution<size_t> pick(0, it->second.size() - 1);
      const odf::Trip& trip = it->second[pick(gen)];
      out.push_back({trip.origin, trip.destination});
      break;
    }
  }
  return out;
}

/// Share of `pairs` whose origin and destination are in the same shard.
double IntraShare(const odf::shard::ShardPartition& part,
                  const std::vector<std::pair<int32_t, int32_t>>& pairs) {
  double intra = 0.0;
  for (const auto& [o, d] : pairs) {
    intra += part.shard_of[static_cast<size_t>(o)] ==
             part.shard_of[static_cast<size_t>(d)];
  }
  return pairs.empty() ? 0.0 : intra / static_cast<double>(pairs.size());
}

struct Window {
  std::vector<Request> reads;
  std::vector<Request> rollovers;
  std::vector<std::pair<int64_t, odf::Tensor>> kept;  // (sample, merged)
  std::vector<double> unit_refresh_ms;      // traced: every unit refresh
  std::vector<double> unit_refresh_max_ms;  // traced: slowest unit per rollover
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t cursor = 0;  // current sample at the end
  double intra_share = 0.0;  // of the reads' OD pairs
};

/// One measured window: the writer thread rolls over on its cadence while
/// this thread reads at a fixed rate. Traced, the writer refreshes every
/// unit one by one (in spans) before the now-warm merge.
Window RunWindow(World& w, double seconds, int64_t cursor, uint64_t seed,
                 Result& result, SpanLog* spans) {
  Window win;
  const auto num_reads = static_cast<size_t>(kReadRate * seconds);
  const uint64_t spacing = static_cast<uint64_t>(1e9 / kReadRate);
  const auto pairs = ReadPairs(w, cursor, num_reads, spacing, seed);
  if (pairs.size() != num_reads) {
    result.Fail("replay: trip log unreadable; no read pairs");
    win.cursor = cursor;
    return win;
  }
  win.intra_share = IntraShare(w.model->partition(), pairs);
  const int64_t k = w.model->config().spec.num_buckets();
  const int64_t samples = w.model->NumSamples();
  const auto num_rollovers =
      static_cast<size_t>(seconds * 1e9 / static_cast<double>(kRolloverEveryNs));
  win.reads.resize(num_reads);
  win.rollovers.resize(num_rollovers);
  win.start_ns = odf::MonotonicNanos() + 2'000'000;

  std::thread writer([&] {
    int64_t cur = cursor;
    for (size_t i = 0; i < num_rollovers; ++i) {
      Request& r = win.rollovers[i];
      r.due_ns = win.start_ns + (i + 1) * kRolloverEveryNs;
      r.sent_ns = WaitUntil(r.due_ns);
      cur = (cur + 1) % samples;
      odf::Tensor merged;
      {
        ScopedSpan roll(spans, "replay.rollover", static_cast<int64_t>(i));
        w.service->SetCurrentInterval(cur);
        if (spans != nullptr) {
          double slowest = 0.0;
          for (int64_t p = 0; p <= w.model->num_shards(); ++p) {
            const bool boundary = p == w.model->num_shards();
            if (boundary && w.service->boundary_service() == nullptr) break;
            const uint64_t t0 = odf::MonotonicNanos();
            {
              ScopedSpan s(spans, boundary ? "shard.boundary.ForecastCurrent"
                                           : "shard.unit.ForecastCurrent",
                           p);
              if (boundary) {
                w.service->boundary_service()->ForecastCurrent();
              } else {
                w.service->shard_service(p).ForecastCurrent();
              }
            }
            const double ms = static_cast<double>(odf::MonotonicNanos() - t0) * 1e-6;
            win.unit_refresh_ms.push_back(ms);
            slowest = std::max(slowest, ms);
          }
          win.unit_refresh_max_ms.push_back(slowest);
        }
        ScopedSpan s(spans, "shard.MergedForecast", static_cast<int64_t>(i));
        merged = w.service->MergedForecast(0);
      }
      r.done_ns = odf::MonotonicNanos();
      if (i % kKeepEvery == 0) win.kept.push_back({cur, std::move(merged)});
    }
    win.cursor = cur;
  });

  int64_t bad = 0;
  for (size_t i = 0; i < num_reads; ++i) {
    Request& r = win.reads[i];
    r.due_ns = win.start_ns + i * spacing;
    r.sent_ns = WaitUntil(r.due_ns);
    const std::vector<float> h =
        w.service->ForecastOd(pairs[i].first, pairs[i].second, 0);
    r.done_ns = odf::MonotonicNanos();
    if (static_cast<int64_t>(h.size()) != k || !FiniteUnitRows(h.data(), k, k)) {
      ++bad;
    }
  }
  writer.join();
  win.end_ns = odf::MonotonicNanos();
  result.attempted += static_cast<int64_t>(num_reads);
  if (bad > 0) {
    result.Fail("replay: read not finite or not unit mass");
    result.failed += bad - 1;
  }
  return win;
}

/// Kept merges must be byte-equal to ShardedModel::Predict; returns their
/// mean KL against the city's observed histograms.
double CheckMerges(World& w, const Window& win, Result& result) {
  const int64_t n = w.spec.graph.size();
  odf::TripOdSource truth(w.reader.get(), w.model->config().spec, n, n);
  const odf::ForecastDataset& any = w.model->shard_dataset(0);
  odf::MetricAccumulator acc;
  for (const auto& [sample, merged] : win.kept) {
    const std::vector<odf::Tensor> want = w.model->Predict(sample);
    const bool same = !want.empty() && want[0].numel() == merged.numel() &&
                      std::memcmp(want[0].data(), merged.data(),
                                  static_cast<size_t>(merged.numel()) *
                                      sizeof(float)) == 0;
    result.Check(same && FiniteUnitRows(merged.data(), merged.numel(),
                                        w.model->config().spec.num_buckets()),
                 "replay: merged forecast differs from Predict for sample " +
                     std::to_string(sample));
    odf::AccumulateForecast(merged, *truth.Interval(any.AnchorInterval(sample) + 1),
                            acc);
  }
  return acc.Mean(odf::Metric::kKl);
}

std::vector<double> RolloverMs(const Window& win) {
  return DueLatenciesMs(win.rollovers);
}

}  // namespace

int RunReplay(const Options& opt, Result& result, SpanLog* spans) {
  std::vector<double> setup_s;  // the fastest of kSetups is reported
  const std::unique_ptr<World> w = SetUpRepeatedly(
      kSetups, [&opt](int i) { return SetUp(opt, i); }, &setup_s);
  if (w == nullptr) return 1;
  const double seconds = opt.seconds;
  std::printf("replay: n=%lld, %lld shards + boundary, %lld windows, %.0f reads/s,"
              " rollover every %.0f ms, %.1f s\n",
              static_cast<long long>(w->spec.graph.size()),
              static_cast<long long>(w->model->num_shards()),
              static_cast<long long>(w->model->NumSamples()), kReadRate,
              static_cast<double>(kRolloverEveryNs) * 1e-6, seconds);

  // Warm-up, not counted: the first rollovers after set-up touch pages and
  // caches that later ones find ready.
  const Window warm = RunWindow(*w, 1.0, 0, opt.seed + 2, result, nullptr);
  const Window win =
      RunWindow(*w, seconds, warm.cursor, opt.seed + 1, result, nullptr);
  const double roll_p50 = PercentileWithBeyond(RolloverMs(win), 0.5).value;
  if (spans == nullptr) {
    const double kl = CheckMerges(*w, win, result);
    const std::vector<double> reads_us = [&] {
      std::vector<double> v = DueLatenciesMs(win.reads);
      for (double& x : v) x *= 1e3;
      return v;
    }();
    const Quantile read_p50 = PercentileWithBeyond(reads_us, 0.50);
    const Quantile read_p99 = PercentileWithBeyond(reads_us, 0.99);
    const Quantile roll = PercentileWithBeyond(RolloverMs(win), 0.50);
    // Unit forecasts per second at the median of the fastest rollovers
    // (see MedianOfFastest): every rollover refreshes all units (16 shards
    // + boundary).
    const double best_roll = MedianOfFastest(RolloverMs(win), kFastestRepeats);
    const double unit_rate =
        static_cast<double>(w->model->num_units()) * 1e3 / best_roll;

    char setups[64];
    std::snprintf(setups, sizeof setups, "(fastest of %d set-ups)", kSetups);
    result.Report("setup_s", Min(setup_s), "s", setups);
    result.Report("replay.intra_shard_share", win.intra_share, "ratio",
                  "(of reads; pairs drawn from logged trips)");
    result.ReportQuantile("replay.read_", read_p50, "us");
    result.ReportQuantile("replay.read_", read_p99, "us");
    result.ReportQuantile("replay.rollover_", roll, "ms");
    char fastest[96];
    std::snprintf(fastest, sizeof fastest,
                  "(units / median of the fastest %zu of %zu rollovers)",
                  kFastestRepeats, win.rollovers.size());
    result.Report("replay.unit_forecasts_per_s", unit_rate, "1/s", fastest);
    result.Report("replay.merged_kl", kl, "nat", "(kept merged forecasts)");
    result.Report("bench.gen_lag_p99_us",
                  PercentileWithBeyond(SendLagsUs(win.reads), 0.99).value, "us");
    result.Report("peak_rss_mb", PeakRssMb(), "MB");

    result.Set("setup_s", Min(setup_s), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("throughput_per_s", unit_rate, "1/s");
    result.Set("quality_kl", kl, "nat");
    return 0;
  }

  // Traced window: metrics on, per-unit refresh spans.
  std::map<std::string, double> layers;
  odf::SetMetricsEnabled(true);
  const RegistrySnapshot before = RegistrySnapshot::Take();
  Window traced;
  {
    ScopedSpan sp(spans, "replay.window");
    traced = RunWindow(*w, seconds, win.cursor, opt.seed + 1, result, spans);
  }
  const RegistrySnapshot after = RegistrySnapshot::Take();
  odf::SetMetricsEnabled(false);
  CheckMerges(*w, traced, result);

  const double rolls = static_cast<double>(traced.rollovers.size());
  const double wall_ms = static_cast<double>(traced.end_ns - traced.start_ns) * 1e-6;
  for (const auto& [layer, hist] :
       {std::pair<const char*, const char*>{"tensor.gemm_ms", "gemm.seconds"},
        {"tensor.batch_gemm_ms", "batch_gemm.seconds"},
        {"tensor.cheb_basis_ms", "cheb_basis.seconds"},
        {"tensor.spmm_ms", "spmm.seconds"},
        {"tensor.fused_recover_ms", "fused_recover.seconds"},
        {"od.stream_build_ms", "stream.build_ns"}}) {
    layers[layer] = after.SumMs(before, hist) / rolls;
  }
  layers["tensor.gemm.calls"] = after.Counter(before, "gemm.calls") / rolls;
  layers["tensor.batch_gemm.calls"] = after.Counter(before, "batch_gemm.calls") / rolls;
  layers["tensor.cheb_basis.calls"] = after.Count(before, "cheb_basis.seconds") / rolls;
  layers["tensor.spmm.calls"] = after.Counter(before, "spmm.calls") / rolls;
  layers["tensor.fused_recover.calls"] =
      after.Counter(before, "fused_recover.calls") / rolls;
  layers["util.pool.fors_per_rollover"] =
      after.Counter(before, "pool.parallel_fors") / rolls;
  layers["util.pool.busy_frac"] = after.SumMs(before, "pool.chunk_seconds") /
                                  (wall_ms * odf::ThreadPool::Global().threads());
  const double hits = after.Counter(before, "stream.cache_hits");
  const double misses = after.Counter(before, "stream.cache_misses");
  layers["od.stream_hits"] = hits;
  layers["od.stream_misses"] = misses;
  layers["od.stream_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  const double chits = after.Counter(before, "serve.cache_hits");
  const double cmisses = after.Counter(before, "serve.cache_misses");
  layers["serve.cache_hit_ratio"] = chits + cmisses > 0 ? chits / (chits + cmisses) : 0;
  layers["shard.unit_refresh_ms"] = Mean(traced.unit_refresh_ms);
  layers["shard.unit_refresh_max_ms"] = Mean(traced.unit_refresh_max_ms);
  const std::vector<Span> all = spans->Snapshot();
  layers["shard.merge_ms"] = SumSpans(all, "shard.MergedForecast").total_ms / rolls;
  // The rollover span's self time is what its refresh and merge children
  // leave: SetCurrentInterval on every unit.
  const std::vector<uint64_t> self = SelfTimes(all);
  double set_interval_ns = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == "replay.rollover") set_interval_ns += static_cast<double>(self[i]);
  }
  layers["shard.set_interval_ms"] = set_interval_ns * 1e-6 / rolls;
  layers["bench.gen_lag_p99_us"] =
      PercentileWithBeyond(SendLagsUs(traced.reads), 0.99).value;
  layers["bench.trace_overhead"] =
      PercentileWithBeyond(RolloverMs(traced), 0.5).value / roll_p50 - 1.0;
  result.Report("bench.trace_overhead", layers["bench.trace_overhead"], "ratio");
  SetLayerMetrics(result, layers);
  return 0;
}

}  // namespace odb
