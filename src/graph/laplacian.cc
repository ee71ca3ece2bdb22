#include "graph/laplacian.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace odf {

namespace {

// Process-wide cache for MakeScaledLaplacianOperator, keyed by the exact
// contents of `w` (plus the explicit lambda_max). Loading a model snapshot
// for serving rebuilds the same region graphs the training process used,
// and without the cache every cell construction re-runs the 200-iteration
// power iteration; with it, all models built from one weight matrix share
// one GraphOperator instance. Bounded FIFO — graph matrices are few and
// small, 64 covers any realistic process; tests may hold more via
// ClearScaledLaplacianOperatorCache.
struct OperatorCacheEntry {
  Tensor key;  // the weight matrix w
  float lambda_max;
  std::shared_ptr<const GraphOperator> op;
};

constexpr size_t kOperatorCacheCapacity = 64;

std::mutex& OperatorCacheMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::deque<OperatorCacheEntry>& OperatorCache() {
  static std::deque<OperatorCacheEntry>* cache =
      new std::deque<OperatorCacheEntry>();
  return *cache;
}

std::atomic<uint64_t> g_operator_cache_hits{0};
std::atomic<uint64_t> g_operator_cache_misses{0};
std::atomic<uint64_t> g_degenerate_lambda_fallbacks{0};

bool SameContents(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

Tensor DegreeVector(const Tensor& w) {
  ODF_CHECK_EQ(w.rank(), 2);
  const int64_t n = w.dim(0);
  ODF_CHECK_EQ(n, w.dim(1));
  Tensor d(Shape({n}));
  for (int64_t i = 0; i < n; ++i) {
    double degree = 0;
    for (int64_t j = 0; j < n; ++j) degree += w.At2(i, j);
    d[i] = static_cast<float>(degree);
  }
  return d;
}

Tensor Laplacian(const Tensor& w) {
  const Tensor deg = DegreeVector(w);
  const int64_t n = w.dim(0);
  // L_ij = [i==j]·deg_i − W_ij, written directly instead of materialising
  // the dense diagonal degree matrix.
  Tensor l(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      l.At2(i, j) = (i == j ? deg[i] : 0.0f) - w.At2(i, j);
    }
  }
  return l;
}

Tensor NormalizedLaplacian(const Tensor& w) {
  const Tensor deg = DegreeVector(w);
  const int64_t n = w.dim(0);
  std::vector<double> inv_sqrt_deg(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const double degree = deg[i];
    if (degree > 0) {
      inv_sqrt_deg[static_cast<size_t>(i)] = 1.0 / std::sqrt(degree);
    }
  }
  Tensor l = Tensor::Identity(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (w.At2(i, j) == 0.0f) continue;
      l.At2(i, j) -= static_cast<float>(w.At2(i, j) *
                                        inv_sqrt_deg[static_cast<size_t>(i)] *
                                        inv_sqrt_deg[static_cast<size_t>(j)]);
    }
  }
  return l;
}

float LaplacianMaxEigenvalue(const Tensor& laplacian) {
  const float eig = PowerIterationMaxEigenvalue(laplacian, 200);
  // Laplacians are PSD; numerical noise can give a tiny negative value.
  return eig < 0.0f ? 0.0f : eig;
}

Tensor ScaledLaplacian(const Tensor& laplacian, float lambda_max) {
  ODF_CHECK_EQ(laplacian.rank(), 2);
  const int64_t n = laplacian.dim(0);
  ODF_CHECK_EQ(n, laplacian.dim(1));
  if (lambda_max <= 0.0f) lambda_max = LaplacianMaxEigenvalue(laplacian);
  // Degenerate graph (no edges, or a power iteration that collapsed to 0):
  // dividing by λ_max would be a division by zero. Fall back to λ_max = 2 —
  // L̂ = L − I, which is −I for the zero Laplacian, the formula's limit —
  // and say so: a silent fallback here once hid an all-isolated closure
  // scenario producing constant forecasts.
  if (lambda_max <= 1e-12f) {
    g_degenerate_lambda_fallbacks.fetch_add(1, std::memory_order_relaxed);
    ODF_LOG(Warning) << "ScaledLaplacian: degenerate lambda_max ("
                     << lambda_max << ") for " << n << "x" << n
                     << " Laplacian; falling back to lambda_max=2 (L_hat=L-I)";
    lambda_max = 2.0f;
  }
  Tensor scaled = MulScalar(laplacian, 2.0f / lambda_max);
  for (int64_t i = 0; i < n; ++i) scaled.At2(i, i) -= 1.0f;
  return scaled;
}

uint64_t ScaledLaplacianDegenerateFallbacks() {
  return g_degenerate_lambda_fallbacks.load(std::memory_order_relaxed);
}

Tensor RandomWalkTransition(const Tensor& w) {
  ODF_CHECK_EQ(w.rank(), 2);
  const int64_t n = w.dim(0);
  ODF_CHECK_EQ(n, w.dim(1));
  Tensor p(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    double degree = 0;
    for (int64_t j = 0; j < n; ++j) degree += w.At2(i, j);
    if (degree > 0) {
      const double inv = 1.0 / degree;
      for (int64_t j = 0; j < n; ++j) {
        p.At2(i, j) = static_cast<float>(w.At2(i, j) * inv);
      }
    } else {
      // Isolated region (e.g. fully blockaded by a closure scenario): no
      // diffusion in or out. A 1/degree here is the NaN this guard exists
      // to prevent.
      for (int64_t j = 0; j < n; ++j) p.At2(i, j) = 0.0f;
    }
  }
  return p;
}

std::pair<std::shared_ptr<const GraphOperator>,
          std::shared_ptr<const GraphOperator>>
MakeDiffusionOperators(const Tensor& w) {
  return {GraphOperator::Make(RandomWalkTransition(w)),
          GraphOperator::Make(RandomWalkTransition(Transpose2D(w)))};
}

Tensor DemandCorrelationGraph(const std::vector<Tensor>& interval_counts,
                              bool origin_side, double threshold) {
  ODF_CHECK(!interval_counts.empty());
  const Tensor& first = interval_counts.front();
  ODF_CHECK_EQ(first.rank(), 2);
  const int64_t n = origin_side ? first.dim(0) : first.dim(1);
  const int64_t t_count = static_cast<int64_t>(interval_counts.size());
  // Per-region demand profile across intervals: row sums (outbound) for the
  // origin-side graph, column sums (inbound) for the destination side.
  std::vector<double> profile(static_cast<size_t>(n * t_count), 0.0);
  for (int64_t t = 0; t < t_count; ++t) {
    const Tensor& counts = interval_counts[static_cast<size_t>(t)];
    ODF_CHECK_EQ(counts.rank(), 2);
    ODF_CHECK_EQ(counts.dim(0), first.dim(0));
    ODF_CHECK_EQ(counts.dim(1), first.dim(1));
    for (int64_t i = 0; i < counts.dim(0); ++i) {
      for (int64_t j = 0; j < counts.dim(1); ++j) {
        const int64_t region = origin_side ? i : j;
        profile[static_cast<size_t>(region * t_count + t)] +=
            counts.At2(i, j);
      }
    }
  }
  std::vector<double> mean(static_cast<size_t>(n), 0.0);
  std::vector<double> sd(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double sum = 0;
    for (int64_t t = 0; t < t_count; ++t) {
      sum += profile[static_cast<size_t>(i * t_count + t)];
    }
    mean[static_cast<size_t>(i)] = sum / static_cast<double>(t_count);
    double var = 0;
    for (int64_t t = 0; t < t_count; ++t) {
      const double d = profile[static_cast<size_t>(i * t_count + t)] -
                       mean[static_cast<size_t>(i)];
      var += d * d;
    }
    sd[static_cast<size_t>(i)] = std::sqrt(var);
  }
  Tensor corr(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) corr.At2(i, j) = 0.0f;
  }
  for (int64_t i = 0; i < n; ++i) {
    // Constant-demand regions (zero variance) have no correlation signal;
    // they stay zero rows — the isolated-node case the Laplacian guards
    // handle.
    if (sd[static_cast<size_t>(i)] == 0.0) continue;
    for (int64_t j = i + 1; j < n; ++j) {
      if (sd[static_cast<size_t>(j)] == 0.0) continue;
      double cov = 0;
      for (int64_t t = 0; t < t_count; ++t) {
        cov += (profile[static_cast<size_t>(i * t_count + t)] -
                mean[static_cast<size_t>(i)]) *
               (profile[static_cast<size_t>(j * t_count + t)] -
                mean[static_cast<size_t>(j)]);
      }
      const double r =
          cov / (sd[static_cast<size_t>(i)] * sd[static_cast<size_t>(j)]);
      if (r > threshold) {
        corr.At2(i, j) = static_cast<float>(r);
        corr.At2(j, i) = static_cast<float>(r);
      }
    }
  }
  return corr;
}

std::shared_ptr<const GraphOperator> MakeScaledLaplacianOperator(
    const Tensor& w, float lambda_max) {
  {
    std::lock_guard<std::mutex> lock(OperatorCacheMutex());
    for (const OperatorCacheEntry& e : OperatorCache()) {
      if (e.lambda_max == lambda_max && SameContents(e.key, w)) {
        g_operator_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return e.op;
      }
    }
  }
  g_operator_cache_misses.fetch_add(1, std::memory_order_relaxed);
  // Power iteration + operator build run outside the lock; a racing miss on
  // the same key costs one redundant build, never a wrong result.
  std::shared_ptr<const GraphOperator> op =
      GraphOperator::Make(ScaledLaplacian(Laplacian(w), lambda_max));
  {
    std::lock_guard<std::mutex> lock(OperatorCacheMutex());
    auto& cache = OperatorCache();
    cache.push_back(OperatorCacheEntry{w, lambda_max, op});
    while (cache.size() > kOperatorCacheCapacity) cache.pop_front();
  }
  return op;
}

uint64_t ScaledLaplacianOperatorCacheHits() {
  return g_operator_cache_hits.load(std::memory_order_relaxed);
}

uint64_t ScaledLaplacianOperatorCacheMisses() {
  return g_operator_cache_misses.load(std::memory_order_relaxed);
}

void ClearScaledLaplacianOperatorCache() {
  std::lock_guard<std::mutex> lock(OperatorCacheMutex());
  OperatorCache().clear();
}

}  // namespace odf
