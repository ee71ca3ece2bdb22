#include "nn/graph_pool.h"

#include <limits>

#include "util/check.h"
#include "util/trace.h"

namespace odf::nn {

namespace ag = odf::autograd;

namespace {

// Average pooling, four batch cells per step over the batch-divisible
// prefix; returns the first batch cell left for the one-cell loop. The
// accumulate chains through the destination row, and at the serving feature
// widths (single-digit) one row is a single vector, so a lone cell
// serializes on that store-load chain; four independent cells cover the add
// latency. A feature width of F > 0 is a compile-time constant (0 keeps it a
// runtime value): constant trip counts let the compiler emit straight-line
// vector code for the three per-cluster loops, whose setup otherwise
// dominates at single-digit widths.
template <int64_t F, typename T>
int64_t GraphPoolAvgQuad(const T* x, int64_t batch, int64_t n,
                         int64_t features,
                         const std::vector<std::vector<int64_t>>& clusters,
                         T* out) {
  const int64_t nf = F > 0 ? F : features;
  const int64_t nc = static_cast<int64_t>(clusters.size());
  int64_t b = 0;
  for (; b + 4 <= batch; b += 4) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      T* d0 = out + ((b + 0) * nc + c) * nf;
      T* d1 = out + ((b + 1) * nc + c) * nf;
      T* d2 = out + ((b + 2) * nc + c) * nf;
      T* d3 = out + ((b + 3) * nc + c) * nf;
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] = T(0);
        d1[f] = T(0);
        d2[f] = T(0);
        d3[f] = T(0);
      }
      for (int64_t i : cluster) {
        const T* s0 = x + ((b + 0) * n + i) * nf;
        const T* s1 = x + ((b + 1) * n + i) * nf;
        const T* s2 = x + ((b + 2) * n + i) * nf;
        const T* s3 = x + ((b + 3) * n + i) * nf;
        for (int64_t f = 0; f < nf; ++f) {
          d0[f] += s0[f];
          d1[f] += s1[f];
          d2[f] += s2[f];
          d3[f] += s3[f];
        }
      }
      const T inv = T(1) / static_cast<T>(cluster.size());
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] *= inv;
        d1[f] *= inv;
        d2[f] *= inv;
        d3[f] *= inv;
      }
    }
  }
  return b;
}

}  // namespace

template <typename T>
void GraphPoolRaw(const T* x, int64_t batch, int64_t n, int64_t features,
                  const std::vector<std::vector<int64_t>>& clusters,
                  PoolKind kind, T* out, int32_t* argmax) {
  const int64_t nc = static_cast<int64_t>(clusters.size());
  int64_t b = 0;
  if (kind == PoolKind::kAverage) {
    switch (features) {
      case 7:
        b = GraphPoolAvgQuad<7>(x, batch, n, features, clusters, out);
        break;
      case 8:
        b = GraphPoolAvgQuad<8>(x, batch, n, features, clusters, out);
        break;
      default:
        b = GraphPoolAvgQuad<0>(x, batch, n, features, clusters, out);
        break;
    }
  }
  for (; b < batch; ++b) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      T* dst = out + (b * nc + c) * features;
      if (kind == PoolKind::kAverage) {
        for (int64_t f = 0; f < features; ++f) dst[f] = T(0);
        for (int64_t i : cluster) {
          const T* src = x + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) dst[f] += src[f];
        }
        const T inv = T(1) / static_cast<T>(cluster.size());
        for (int64_t f = 0; f < features; ++f) dst[f] *= inv;
      } else {
        int32_t* arg =
            argmax != nullptr ? argmax + (b * nc + c) * features : nullptr;
        for (int64_t f = 0; f < features; ++f) {
          dst[f] = -std::numeric_limits<T>::infinity();
        }
        for (int64_t i : cluster) {
          const T* src = x + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) {
            if (src[f] > dst[f]) {
              dst[f] = src[f];
              if (arg != nullptr) arg[f] = static_cast<int32_t>(i);
            }
          }
        }
      }
    }
  }
}

template void GraphPoolRaw(const float*, int64_t, int64_t, int64_t,
                           const std::vector<std::vector<int64_t>>&, PoolKind,
                           float*, int32_t*);
template void GraphPoolRaw(const double*, int64_t, int64_t, int64_t,
                           const std::vector<std::vector<int64_t>>&, PoolKind,
                           double*, int32_t*);

ag::Var GraphPool(const ag::Var& x,
                  const std::vector<std::vector<int64_t>>& clusters,
                  PoolKind kind) {
  ODF_TRACE_SCOPE("fwd/", "GraphPool", "fwd");
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK(!clusters.empty());
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t features = x.dim(2);
  const int64_t nc = static_cast<int64_t>(clusters.size());
  for (const auto& cluster : clusters) {
    ODF_CHECK(!cluster.empty());
    for (int64_t i : cluster) {
      ODF_CHECK_GE(i, 0);
      ODF_CHECK_LT(i, n);
    }
  }

  Tensor out(Shape({batch, nc, features}));
  // For max pooling remember which source node won each output cell.
  const bool max_pool = kind == PoolKind::kMax;
  std::vector<int32_t> argmax(
      max_pool ? static_cast<size_t>(batch * nc * features) : 0, 0);
  GraphPoolRaw(x.value().data(), batch, n, features, clusters, kind,
               out.data(), max_pool ? argmax.data() : nullptr);

  return ag::internal::MakeOpVar(
      "GraphPool", std::move(out), {x},
      [clusters, kind, argmax, batch, n, nc,
       features](ag::internal::Node& node) {
        Tensor grad(Shape({batch, n, features}));
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t c = 0; c < nc; ++c) {
            const auto& cluster = clusters[static_cast<size_t>(c)];
            const float* g = node.grad.data() + (b * nc + c) * features;
            if (kind == PoolKind::kAverage) {
              const float inv = 1.0f / static_cast<float>(cluster.size());
              for (int64_t i : cluster) {
                float* dst = grad.data() + (b * n + i) * features;
                for (int64_t f = 0; f < features; ++f) {
                  dst[f] += g[f] * inv;
                }
              }
            } else {
              const int32_t* arg =
                  argmax.data() + (b * nc + c) * features;
              for (int64_t f = 0; f < features; ++f) {
                grad.data()[(b * n + arg[f]) * features + f] += g[f];
              }
            }
          }
        }
        node.parents[0]->AccumulateGrad(grad);
      });
}

}  // namespace odf::nn
