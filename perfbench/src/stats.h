// Statistics of the OD benchmark: percentiles that keep enough samples
// beyond them, due-time latency accounting for open loops, the max-QPS
// rate search, and self time of nested spans. Header-only and free of
// library dependencies so tests/stats_test.cc can drive it with
// synthetic latency lists.
#ifndef ODB_STATS_H_
#define ODB_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace odb {

/// A percentile must have at least this many samples beyond it.
inline constexpr int64_t kMinBeyond = 10;

/// One reported percentile: `q` is the percentile actually used (it is
/// lowered from the requested one when too few samples lie beyond it),
/// `beyond` the number of samples strictly above its rank.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  int64_t n = 0;
  int64_t beyond = 0;

  /// "p99", "p97.5", ... for the percentile actually reported.
  std::string Name() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", std::floor(q * 1000.0 + 0.5) / 10.0);
    return buf;
  }
};

/// Nearest-rank position of quantile `q` among `n` sorted samples.
inline int64_t RankOf(int64_t n, double q) {
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

/// Quantile `want` of `samples` (nearest rank). When fewer than
/// `kMinBeyond` samples would lie beyond it, the highest percentile (on a
/// 0.1% grid) that keeps `kMinBeyond` beyond is reported instead. Returns
/// n == 0 when there are not even that many samples.
inline Quantile PercentileWithBeyond(std::vector<double> samples, double want,
                                     int64_t min_beyond = kMinBeyond) {
  Quantile out;
  const auto n = static_cast<int64_t>(samples.size());
  if (n <= min_beyond) return out;
  double q = want;
  while (q > 0.0 && n - RankOf(n, q) < min_beyond) {
    q = std::floor(q * 1000.0 - 0.5) / 1000.0;
  }
  if (q <= 0.0) return out;
  std::sort(samples.begin(), samples.end());
  const int64_t rank = RankOf(n, q);
  out.q = q;
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.n = n;
  out.beyond = n - rank;
  return out;
}

/// Plain median (mean of the middle pair for even counts); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Smallest value; 0 when empty. Under CPU steal, which only ever slows
/// work down, the fastest of several repeats is the figure that holds from
/// run to run.
inline double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// How many of a run's repeats of one small unit of work (a training step,
/// a stretch of a drain, a rollover) set its figure.
inline constexpr size_t kFastestRepeats = 5;

/// Median of the `k` smallest of `times` (of all, when there are fewer);
/// 0 when empty. Steal and slow thread wake-ups on a shared host only ever
/// lengthen a repeat, and they come and go within a run, so the fastest
/// few repeats hold from run to run; their median keeps one mis-timed
/// repeat from setting the figure.
inline double MedianOfFastest(std::vector<double> times, size_t k) {
  std::sort(times.begin(), times.end());
  if (times.size() > k) times.resize(k);
  return Median(std::move(times));
}

/// One open-loop request: when it was due, when the load generator
/// actually sent it, and when its result was available (0 = never).
struct Request {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
};

/// Latency of each completed request in ms, measured from its *scheduled*
/// send time, so a late send (queueing in the generator) counts against the
/// system instead of vanishing (no coordinated omission).
inline std::vector<double> DueLatenciesMs(const std::vector<Request>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const Request& r : reqs) {
    if (r.done_ns == 0) continue;
    const uint64_t end = std::max(r.done_ns, r.due_ns);
    out.push_back(static_cast<double>(end - r.due_ns) * 1e-6);
  }
  return out;
}

/// How late each request was sent, in µs (the generator's own health).
inline std::vector<double> SendLagsUs(const std::vector<Request>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const Request& r : reqs) {
    out.push_back(r.sent_ns > r.due_ns
                      ? static_cast<double>(r.sent_ns - r.due_ns) * 1e-3
                      : 0.0);
  }
  return out;
}

/// True when latencies (in send order) grow over the run: the median of
/// the last third exceeds the first third's by more than half of it plus
/// 1 ms. A stable queue keeps them level however long the run lasts.
inline bool BacklogGrowing(const std::vector<double>& latencies_in_order) {
  const size_t n = latencies_in_order.size();
  if (n < 30) return false;
  const auto first = std::vector<double>(latencies_in_order.begin(),
                                         latencies_in_order.begin() + n / 3);
  const auto last = std::vector<double>(latencies_in_order.end() - n / 3,
                                        latencies_in_order.end());
  const double head = Median(first);
  return Median(last) > 1.5 * head + 1.0;
}

/// Outcome of one offered-rate probe: it passes when its tail percentile
/// (the one asked for, with 10 samples beyond) is within the limit, no
/// backlog built up, and every request completed.
struct Probe {
  double rate = 0.0;
  double want_q = 0.99;
  Quantile tail;
  bool backlog = false;
  bool incomplete = false;
  bool Passes(double limit_ms) const {
    return tail.n > 0 && tail.q >= want_q - 1e-9 && tail.value <= limit_ms &&
           !backlog && !incomplete;
  }
};

/// Highest offered rate that passes `probe`. From `start` it grows
/// geometrically (×growth, up to `ceiling`) while probes pass, or shrinks
/// (÷growth, at most 8 times) while they fail, then bisects (geometric
/// midpoints) until the passing and failing rates are within `rel_tol` of
/// each other. Returns 0 if no probed rate passes. `probes` receives every
/// probe in the order run.
inline double MaxRateSearch(const std::function<Probe(double rate)>& probe,
                            double start, double ceiling, double growth,
                            double rel_tol, double limit_ms,
                            std::vector<Probe>* probes) {
  auto run = [&](double rate) {
    Probe p = probe(rate);
    if (probes != nullptr) probes->push_back(p);
    return p.Passes(limit_ms);
  };
  double pass = 0.0;
  double fail = 0.0;
  if (run(start)) {
    pass = start;
    for (double rate = start * growth; rate <= ceiling; rate *= growth) {
      if (!run(rate)) {
        fail = rate;
        break;
      }
      pass = rate;
    }
  } else {
    fail = start;
    double rate = start;
    for (int i = 0; i < 8 && pass == 0.0; ++i) {
      rate /= growth;
      (run(rate) ? pass : fail) = rate;
    }
  }
  if (pass == 0.0 || fail == 0.0) return pass;
  while (fail / pass - 1.0 > rel_tol) {
    const double mid = std::sqrt(pass * fail);
    (run(mid) ? pass : fail) = mid;
  }
  return pass;
}

/// Quantile `q` of due-time latency (ms) of each of `parts` consecutive
/// equal slices of `reqs`. Slices too small for `q` are skipped.
inline std::vector<double> SliceQuantiles(const std::vector<Request>& reqs,
                                          double q, int parts) {
  std::vector<double> values;
  const size_t n = reqs.size();
  for (int i = 0; i < parts; ++i) {
    const std::vector<Request> slice(reqs.begin() + n * i / parts,
                                     reqs.begin() + n * (i + 1) / parts);
    const Quantile v = PercentileWithBeyond(DueLatenciesMs(slice), q);
    if (v.n > 0 && v.q >= q - 1e-9) values.push_back(v.value);
  }
  return values;
}

/// Median of the slices' quantiles: one noisy stretch moves one slice, not
/// the reported figure.
inline double SliceMedian(const std::vector<Request>& reqs, double q,
                          int parts) {
  return Median(SliceQuantiles(reqs, q, parts));
}

/// A recorded span: [start, end) in ns, with the index of its parent span
/// (-1 for a root) and the request it served (-1 for none).
struct Span {
  std::string name;
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t parent = -1;
  int64_t request = -1;
  int32_t tid = 0;
};

/// Self time of each span in ns: its duration minus its children's.
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<uint64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].end - spans[i].start;
    self[i] = dur > child[i] ? dur - child[i] : 0;
  }
  return self;
}

/// Share of the summed duration of spans named `parent_name` that their
/// direct children cover (the closure check).
inline double ChildCoverage(const std::vector<Span>& spans,
                            const std::string& parent_name) {
  std::vector<uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  uint64_t total = 0;
  uint64_t inner = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != parent_name) continue;
    total += spans[i].end - spans[i].start;
    inner += covered[i];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(inner) / static_cast<double>(total);
}

/// Total and count of spans named `name`, in ms.
struct SpanSum {
  double total_ms = 0.0;
  int64_t count = 0;
};
inline SpanSum SumSpans(const std::vector<Span>& spans,
                        const std::string& name) {
  SpanSum out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    out.total_ms += static_cast<double>(s.end - s.start) * 1e-6;
    ++out.count;
  }
  return out;
}

}  // namespace odb

#endif  // ODB_STATS_H_
