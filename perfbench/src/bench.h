// Shared plumbing of the OD benchmark workloads: options, the result
// (gated metrics, named report lines, attempted/failed operation counts),
// the host stamp, open-loop pacing and registry deltas.
#ifndef ODB_BENCH_H_
#define ODB_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "util/metrics.h"

namespace odb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string work_dir;  // scratch files of this run (removed at exit)
  std::string out_dir;   // kept outputs: result JSON, Chrome trace
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Metrics of the result line, in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable named figures (the per-workload metric names).
  std::vector<std::string> report;
  std::vector<std::string> failures;  // first few reasons

  void Set(const std::string& name, double value, const std::string& unit);
  /// Prints and keeps "name = value unit (detail)".
  void Report(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// Reports a percentile under the name of the percentile it really is.
  void ReportQuantile(const std::string& prefix, const Quantile& q,
                      const std::string& unit);
  void Fail(const std::string& why);
  /// Counts one checked operation; a false `ok` fails it with `why`.
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) Fail(why);
  }
};

/// Host facts every result carries; `comparable` is false when any ODF_*
/// variable is set (the run is then not at the program's defaults).
std::string HostStampJson(bool* comparable);

double PeakRssMb();

/// Hands memory the program has freed back to the OS (glibc keeps it
/// resident in per-thread arenas until asked).
void ReleaseFreedMemory();

/// Sets a workload up `times` times and keeps the last world; `seconds`
/// receives each set-up's wall time. Before each set-up the previous world
/// is destroyed and its memory released, so repeating set-up does not push
/// peak RSS above what one set-up costs. Null if a set-up fails.
template <typename SetUpFn>
auto SetUpRepeatedly(int times, SetUpFn set_up, std::vector<double>* seconds)
    -> decltype(set_up(0)) {
  decltype(set_up(0)) world;
  for (int i = 0; i < times; ++i) {
    world.reset();
    ReleaseFreedMemory();
    const uint64_t start = odf::MonotonicNanos();
    world = set_up(i);
    if (world == nullptr) return nullptr;
    seconds->push_back(static_cast<double>(odf::MonotonicNanos() - start) * 1e-9);
  }
  return world;
}

/// Sleeps until shortly before `due_ns`, then spins the last stretch
/// (at most ~100 µs, so no core is burned). Returns the time it woke.
uint64_t WaitUntil(uint64_t due_ns);

/// Offsets (ns from the start) of Poisson arrivals at `rate` per second
/// over `seconds`, from `seed`.
std::vector<uint64_t> PoissonSchedule(double rate, double seconds,
                                      uint64_t seed);

/// Count and sum of registry histograms and values of counters, taken
/// before and after a phase so each phase reads only its own deltas.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  /// Delta of a histogram's sum (ms) or count, or a counter's value.
  double SumMs(const RegistrySnapshot& before, const std::string& hist) const;
  double Count(const RegistrySnapshot& before, const std::string& hist) const;
  double Counter(const RegistrySnapshot& before,
                 const std::string& counter) const;

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists_;
  std::map<std::string, uint64_t> counters_;
};

/// True when every value is finite and each consecutive run of `k` sums
/// to 1 within `tol`.
bool FiniteUnitRows(const float* data, int64_t numel, int64_t k,
                    double tol = 1e-4);

/// Adds the per-layer metrics every workload reports to `result`, zero for
/// layers this workload does not exercise, so every traced run prints the
/// same names.
void SetLayerMetrics(Result& result, const std::map<std::string, double>& got);

int RunTrain(const Options& opt, Result& result, SpanLog* spans);
int RunServe(const Options& opt, Result& result, SpanLog* spans);
int RunReplay(const Options& opt, Result& result, SpanLog* spans);

}  // namespace odb

#endif  // ODB_BENCH_H_
