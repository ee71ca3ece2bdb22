#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

#include "bench.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

extern char** environ;

namespace odb {

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::Report(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%-34s %14.6g %-6s %s", name.c_str(), value,
                unit.c_str(), detail.c_str());
  report.emplace_back(buf);
  std::printf("%s\n", buf);
  std::fflush(stdout);
}

void Result::ReportQuantile(const std::string& prefix, const Quantile& q,
                            const std::string& unit) {
  char detail[128];
  std::snprintf(detail, sizeof detail, "(n=%lld, %lld beyond)",
                static_cast<long long>(q.n), static_cast<long long>(q.beyond));
  Report(prefix + q.Name() + "_" + unit, q.value, unit, detail);
}

void Result::Fail(const std::string& why) {
  ++failed;
  correct = false;
  if (failures.size() < 8) {
    failures.push_back(why);
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
}

namespace {

const char* SimdLevel() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string HostStampJson(bool* comparable) {
  std::string odf_env;
  bool any = false;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ODF_", 4) != 0) continue;
    odf_env += std::string(any ? "," : "") + "\"" + JsonEscape(*e) + "\"";
    any = true;
  }
  *comparable = !any;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cores\":%u,\"simd\":\"%s\",\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"pool_threads\":%d,"
                "\"odf_env\":[%s],\"comparable\":%s}",
                std::thread::hardware_concurrency(), SimdLevel(), ODB_COMPILER,
                ODB_BUILD_TYPE, odf::ThreadPool::Global().threads(),
                odf_env.c_str(), any ? "false" : "true");
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void ReleaseFreedMemory() { ::malloc_trim(0); }

uint64_t WaitUntil(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 100'000;
  for (;;) {
    const uint64_t now = odf::MonotonicNanos();
    if (now >= due_ns) return now;
    const uint64_t left = due_ns - now;
    if (left > kSpinNs + 20'000) {
      const uint64_t nap = left - kSpinNs;
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(nap / 1'000'000'000ull);
      ts.tv_nsec = static_cast<long>(nap % 1'000'000'000ull);
      ::nanosleep(&ts, nullptr);
    }
  }
}

std::vector<uint64_t> PoissonSchedule(double rate, double seconds,
                                      uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<uint64_t> out;
  double t = 0.0;
  for (;;) {
    t += gap(gen);
    if (t >= seconds) break;
    out.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return out;
}

RegistrySnapshot RegistrySnapshot::Take() {
  static const char* kHists[] = {
      "gemm.seconds",          "batch_gemm.seconds",
      "cheb_basis.seconds",    "cheb_basis_grad.seconds",
      "spmm.seconds",          "fused_recover.seconds",
      "pool.chunk_seconds",    "stream.build_ns",
      "serve.plan.run_seconds", "serve.plan.factorize_seconds",
      "serve.plan.encode_seconds", "serve.plan.decode_seconds",
      "serve.plan.recover_seconds", "serve.batch_forward_seconds",
      "serve.batch_size",
  };
  static const char* kCounters[] = {
      "gemm.calls",        "batch_gemm.calls",   "spmm.calls",
      "fused_recover.calls", "pool.parallel_fors", "stream.cache_hits",
      "stream.cache_misses", "autograd.tape_nodes", "serve.cache_hits",
      "serve.cache_misses",
  };
  auto& registry = odf::MetricsRegistry::Global();
  RegistrySnapshot snap;
  for (const char* h : kHists) {
    const odf::Histogram& hist = registry.GetHistogram(h);
    snap.hists_[h] = {hist.count(), hist.sum_nanos()};
  }
  for (const char* c : kCounters) {
    snap.counters_[c] = registry.GetCounter(c).value();
  }
  return snap;
}

double RegistrySnapshot::SumMs(const RegistrySnapshot& before,
                               const std::string& hist) const {
  return static_cast<double>(hists_.at(hist).second -
                             before.hists_.at(hist).second) *
         1e-6;
}

double RegistrySnapshot::Count(const RegistrySnapshot& before,
                               const std::string& hist) const {
  return static_cast<double>(hists_.at(hist).first -
                             before.hists_.at(hist).first);
}

double RegistrySnapshot::Counter(const RegistrySnapshot& before,
                                 const std::string& counter) const {
  return static_cast<double>(counters_.at(counter) -
                             before.counters_.at(counter));
}

bool FiniteUnitRows(const float* data, int64_t numel, int64_t k, double tol) {
  if (k <= 0 || numel % k != 0) return false;
  for (int64_t row = 0; row < numel; row += k) {
    double mass = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const float v = data[row + j];
      if (!std::isfinite(v) || v < 0.0f) return false;
      mass += v;
    }
    if (std::fabs(mass - 1.0) > tol) return false;
  }
  return true;
}

void SetLayerMetrics(Result& result, const std::map<std::string, double>& got) {
  // (name, unit) of every per-layer metric, in BENCHMARK.json order.
  static const std::pair<const char*, const char*> kLayers[] = {
      {"od.make_batch_ms", "ms"},
      {"od.stream_hit_ratio", "ratio"},
      {"od.stream_hits", "count"},
      {"od.stream_misses", "count"},
      {"od.stream_build_ms", "ms"},
      {"core.loss_fwd_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"autograd.tape_nodes_per_step", "count"},
      {"nn.optim_step_ms", "ms"},
      {"core.eval_ms", "ms"},
      {"tensor.gemm_ms", "ms"},
      {"tensor.gemm.calls", "count"},
      {"tensor.batch_gemm_ms", "ms"},
      {"tensor.batch_gemm.calls", "count"},
      {"tensor.cheb_basis_ms", "ms"},
      {"tensor.cheb_basis.calls", "count"},
      {"tensor.spmm_ms", "ms"},
      {"tensor.spmm.calls", "count"},
      {"tensor.fused_recover_ms", "ms"},
      {"tensor.fused_recover.calls", "count"},
      {"util.pool.fors_per_step", "count"},
      {"util.pool.fors_per_query", "count"},
      {"util.pool.fors_per_rollover", "count"},
      {"util.pool.busy_frac", "ratio"},
      {"serve.plan_run_ms", "ms"},
      {"serve.plan.factorize_ms", "ms"},
      {"serve.plan.encode_ms", "ms"},
      {"serve.plan.decode_ms", "ms"},
      {"serve.plan.recover_ms", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.batch_forward_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"shard.unit_refresh_ms", "ms"},
      {"shard.unit_refresh_max_ms", "ms"},
      {"shard.merge_ms", "ms"},
      {"shard.set_interval_ms", "ms"},
      {"bench.gen_lag_p99_us", "us"},
      {"bench.trace_overhead", "ratio"},
      {"bench.step_closure", "ratio"},
      {"bench.plan_closure", "ratio"},
  };
  for (const auto& [name, unit] : kLayers) {
    const auto it = got.find(name);
    result.Set(name, it == got.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : got) {
    bool known = false;
    for (const auto& layer : kLayers) known |= name == layer.first;
    if (!known) result.Fail("unlisted layer metric " + name);
  }
}

}  // namespace odb
