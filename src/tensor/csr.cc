#include "tensor/csr.h"

#include <algorithm>
#include <cstring>

#include "tensor/tensor_ops.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

// Feature-tile width of the SpMM kernel: the accumulator block lives in a
// stack array (vector registers once the loop is unrolled), so each x-row
// visit costs only loads and FMAs — no read-modify-write of the output.
constexpr int64_t kFTile = 32;

// Minimum multiply-adds per parallel chunk (same rationale as the dense
// substrate's kElemGrain: below this the dispatch overhead dominates).
constexpr int64_t kSpmmGrainFlops = 1 << 14;

}  // namespace

CsrMatrix CsrMatrix::FromDense(const Tensor& dense) {
  ODF_CHECK_EQ(dense.rank(), 2);
  CsrMatrix m;
  m.rows_ = dense.dim(0);
  m.cols_ = dense.dim(1);
  ODF_CHECK_LE(m.cols_, static_cast<int64_t>(INT32_MAX));
  m.row_ptr_.assign(static_cast<size_t>(m.rows_) + 1, 0);
  const float* p = dense.data();
  for (int64_t i = 0; i < m.rows_; ++i) {
    const float* row = p + i * m.cols_;
    for (int64_t j = 0; j < m.cols_; ++j) {
      if (row[j] != 0.0f) {
        m.col_idx_.push_back(static_cast<int32_t>(j));
        m.values_.push_back(row[j]);
      }
    }
    m.row_ptr_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(m.values_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(static_cast<size_t>(t.rows_) + 1, 0);
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  // Counting sort by column: a stable pass over the row-ordered input
  // leaves each transposed row in ascending column order.
  for (const int32_t j : col_idx_) ++t.row_ptr_[static_cast<size_t>(j) + 1];
  for (size_t i = 1; i < t.row_ptr_.size(); ++i) {
    t.row_ptr_[i] += t.row_ptr_[i - 1];
  }
  std::vector<int64_t> fill(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t idx = row_ptr_[static_cast<size_t>(i)];
         idx < row_ptr_[static_cast<size_t>(i) + 1]; ++idx) {
      const size_t j = static_cast<size_t>(col_idx_[static_cast<size_t>(idx)]);
      const int64_t dst = fill[j]++;
      t.col_idx_[static_cast<size_t>(dst)] = static_cast<int32_t>(i);
      t.values_[static_cast<size_t>(dst)] = values_[static_cast<size_t>(idx)];
    }
  }
  return t;
}

Tensor CsrMatrix::ToDense() const {
  Tensor dense(Shape({rows_, cols_}));
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t idx = row_ptr_[static_cast<size_t>(i)];
         idx < row_ptr_[static_cast<size_t>(i) + 1]; ++idx) {
      dense.At2(i, col_idx_[static_cast<size_t>(idx)]) =
          values_[static_cast<size_t>(idx)];
    }
  }
  return dense;
}

// How the row accumulator acc = Σ_j a[i,j]·x[b,j,:] lands in the output.
enum class SpmmEpilogue {
  kStore,        // out = acc
  kChebCombine,  // out = 2·acc − other     (forward recurrence step)
  kAddTwice,     // out += 2·acc            (reverse recurrence step)
  kAddOther,     // out = acc + other       (final gradient combine)
};

// Core CSR × dense kernel over strided row views, templated on the scalar
// type (the double instantiation backs the fp64 reference serving plan; the
// float one is the substrate path). `x`, `other` and `out` address row
// (b, i) at base + (b·n + i)·ld — so a feature-column slice of a larger
// tensor can be read or written in place (ld = the enclosing row width).
// `other` is only dereferenced by the epilogues that use it. Accumulation
// per output element is in ascending column order of `a`, independent of
// thread count.
template <SpmmEpilogue kEp, typename T>
void SpmmTiledRaw(const int64_t* rp, const int32_t* ci, const T* av,
                  int64_t rows, int64_t cols, int64_t nnz, int64_t batch,
                  int64_t f, const T* x, int64_t ldx, const T* other,
                  int64_t ldother, T* out, int64_t ldo) {
  if (f == 0 || batch == 0) return;
  const int64_t flops_per_row =
      std::max<int64_t>(1, 2 * nnz / std::max<int64_t>(1, rows) * f);
  const int64_t grain = std::max<int64_t>(1, kSpmmGrainFlops / flops_per_row);
  ParallelFor(batch * rows, grain, [&](int64_t t0, int64_t t1) {
    T acc[kFTile];
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t b = t / rows;
      const int64_t i = t % rows;
      const T* __restrict xb = x + b * cols * ldx;
      T* __restrict orow = out + (b * rows + i) * ldo;
      const T* __restrict vrow =
          other != nullptr ? other + (b * rows + i) * ldother : nullptr;
      const int64_t begin = rp[i];
      const int64_t end = rp[i + 1];
      for (int64_t f0 = 0; f0 < f; f0 += kFTile) {
        const int64_t fw = std::min(kFTile, f - f0);
        // `width` must be a compile-time constant on the full-tile path so
        // the accumulator block registerizes across the nonzero loop (a
        // runtime bound forces acc through the stack every iteration).
        auto accumulate = [&]<bool kFull>(int64_t width) {
          if constexpr (kFull) width = kFTile;
          for (int64_t c = 0; c < width; ++c) acc[c] = T(0);
          for (int64_t idx = begin; idx < end; ++idx) {
            const T v = av[idx];
            const T* __restrict xrow =
                xb + static_cast<int64_t>(ci[idx]) * ldx + f0;
            for (int64_t c = 0; c < width; ++c) {
              acc[c] = ODF_FMADD(v, xrow[c], acc[c]);
            }
          }
          for (int64_t c = 0; c < width; ++c) {
            if constexpr (kEp == SpmmEpilogue::kStore) {
              orow[f0 + c] = acc[c];
            } else if constexpr (kEp == SpmmEpilogue::kChebCombine) {
              orow[f0 + c] = T(2) * acc[c] - vrow[f0 + c];
            } else if constexpr (kEp == SpmmEpilogue::kAddTwice) {
              orow[f0 + c] += T(2) * acc[c];
            } else {
              orow[f0 + c] = acc[c] + vrow[f0 + c];
            }
          }
        };
        if (fw == kFTile) {
          accumulate.template operator()<true>(kFTile);
        } else {
          accumulate.template operator()<false>(fw);
        }
      }
    }
  });
}

// CsrMatrix-facade wrapper over the raw core (float substrate path).
template <SpmmEpilogue kEp>
void SpmmTiled(const CsrMatrix& a, int64_t batch, int64_t f,
               const float* x, int64_t ldx, const float* other,
               int64_t ldother, float* out, int64_t ldo) {
  SpmmTiledRaw<kEp>(a.row_ptr().data(), a.col_idx().data(),
                    a.values().data(), a.rows(), a.cols(), a.nnz(), batch, f,
                    x, ldx, other, ldother, out, ldo);
}

Tensor SpMM(const CsrMatrix& a, const Tensor& x) {
  ODF_TRACE_SCOPE("kernel/", "spmm", "kernel");
  static Histogram& spmm_hist =
      MetricsRegistry::Global().GetHistogram("spmm.seconds");
  ScopedTimer timer(spmm_hist);
  if (MetricsEnabled()) {
    static Counter& calls = MetricsRegistry::Global().GetCounter("spmm.calls");
    calls.Add(1);
  }
  const bool squeeze = x.rank() == 2;
  ODF_CHECK(x.rank() == 2 || x.rank() == 3);
  const int64_t batch = squeeze ? 1 : x.dim(0);
  const int64_t n = squeeze ? x.dim(0) : x.dim(1);
  const int64_t f = squeeze ? x.dim(1) : x.dim(2);
  ODF_CHECK_EQ(n, a.cols()) << "spmm " << a.rows() << "x" << a.cols()
                            << " x " << x.shape().ToString();
  Tensor out(squeeze ? Shape({a.rows(), f})
                     : Shape({batch, a.rows(), f}));
  if (a.nnz() == 0 || f == 0) return out;
  SpmmTiled<SpmmEpilogue::kStore>(a, batch, f, x.data(), f, nullptr, 0,
                                  out.data(), f);
  return out;
}

namespace {

// Row-wise strided copy: dst row (b·n + i)·ld_dst ⟵ src row (b·n + i)·ld_src,
// f floats each.
void CopyRows(int64_t rows, int64_t f, const float* src, int64_t ld_src,
              float* dst, int64_t ld_dst) {
  ParallelFor(rows, std::max<int64_t>(1, kSpmmGrainFlops / std::max<int64_t>(1, f)),
              [&](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                  std::memcpy(dst + t * ld_dst, src + t * ld_src,
                              static_cast<size_t>(f) * sizeof(float));
                }
              });
}

}  // namespace

template <typename T>
void ChebyshevBasisRaw(const T* dense, const int64_t* row_ptr,
                       const int32_t* col_idx, const T* values, int64_t nnz,
                       int64_t n, const T* x, int64_t batch, int64_t f,
                       int64_t order, T* out, T* w0, T* w1, T* w2) {
  const int64_t ld = order * f;
  const T* px = x;
  T* po = out;
  if (order == 1 || f == 0) {
    for (int64_t t = 0; t < batch * n; ++t) {
      std::memcpy(po + t * ld, px + t * f,
                  static_cast<size_t>(f) * sizeof(T));
    }
    return;
  }

  const int64_t wide = batch * f;
  T* bufs[3] = {w0, w1, w2};

  // With one batch element the wide node-major layout coincides with x's own
  // [n, f] layout, so the transpose-in would be a verbatim copy: tap 0 reads
  // x directly instead. (bufs[0] still serves as the s=3 cycle slot.)
  const bool direct_t0 = batch == 1;
  const auto tap0 = [&]() -> const T* { return direct_t0 ? px : bufs[0]; };

  // The per-row copies below move only a handful of elements each (f is a
  // feature count, typically 7–21), so a library memcpy call per row would
  // dominate the whole basis. Inline element loops keep them in-register.
  //
  // One pass over x does double duty: T_1 lands in its feature-column slice
  // of `out`, and the transpose-in fills bufs[0][i, b·f + c] = x[b, i, c] —
  // node-major, so every SpMM row visit streams `wide` contiguous elements.
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      const T* __restrict src = px + (b * n + i) * f;
      T* __restrict t1 = po + (b * n + i) * ld;
      if (direct_t0) {
        for (int64_t c = 0; c < f; ++c) t1[c] = src[c];
      } else {
        T* __restrict tr = bufs[0] + i * wide + b * f;
        for (int64_t c = 0; c < f; ++c) {
          t1[c] = src[c];
          tr[c] = src[c];
        }
      }
    }
  }
  // Scatter a wide tap back into feature-column slice `s` of `out`. Reads
  // stream through `tap` (i-major) while writes stride by `ld`.
  const auto scatter = [&](const T* tap, int64_t s) {
    for (int64_t i = 0; i < n; ++i) {
      const T* __restrict trow = tap + i * wide;
      for (int64_t b = 0; b < batch; ++b) {
        T* __restrict dst = po + (b * n + i) * ld + s * f;
        for (int64_t c = 0; c < f; ++c) dst[c] = trow[b * f + c];
      }
    }
  };

  // T_2 = L̂·T_1, then T_s = 2·L̂·T_{s-1} − T_{s-2}, all in wide layout.
  if (dense != nullptr) {
    // Dense graph: one blocked [n,n] x [n,wide] GEMM per tap keeps the full
    // register-tile accumulator block hot — far higher throughput than the
    // row-chained SpMM on a dense operator. Zero-skip transparency plus the
    // shared fused-accumulation policy (ODF_FMADD) makes the result bit-
    // identical to the CSR path. The 2·(L̂T) − T_{s-2} combine follows the
    // GEMM; 2·x is exact, so the subtraction rounds once and matches both
    // the SpMM's fused epilogue and a composed MulScalar(2) → Sub.
    for (int64_t s = 1; s < order; ++s) {
      T* cur = bufs[s % 3];
      std::fill(cur, cur + n * wide, T(0));
      GemmRawInto(dense, s == 1 ? tap0() : bufs[(s - 1) % 3], cur, n, n,
                  wide);
      if (s >= 2) {
        // Combine fused into the scatter: one pass computes 2·(L̂T) − T_{s-2}
        // (identical arithmetic and rounding to the separate pass) and
        // writes it both back into `cur` — the recurrence needs T_s — and
        // into the output slice.
        const T* __restrict p2 = s == 2 ? tap0() : bufs[(s - 2) % 3];
        for (int64_t i = 0; i < n; ++i) {
          T* __restrict crow = cur + i * wide;
          const T* __restrict prow = p2 + i * wide;
          for (int64_t b = 0; b < batch; ++b) {
            T* __restrict dst = po + (b * n + i) * ld + s * f;
            for (int64_t c = 0; c < f; ++c) {
              const T v = T(2) * crow[b * f + c] - prow[b * f + c];
              crow[b * f + c] = v;
              dst[c] = v;
            }
          }
        }
      } else {
        scatter(cur, s);
      }
    }
    return;
  }

  SpmmTiledRaw<SpmmEpilogue::kStore>(
      row_ptr, col_idx, values, n, n, nnz, 1, wide, tap0(), wide,
      static_cast<const T*>(nullptr), 0, bufs[1], wide);
  scatter(bufs[1], 1);
  for (int64_t s = 2; s < order; ++s) {
    SpmmTiledRaw<SpmmEpilogue::kChebCombine>(
        row_ptr, col_idx, values, n, n, nnz, 1, wide, bufs[(s - 1) % 3],
        wide, s == 2 ? tap0() : bufs[(s - 2) % 3], wide, bufs[s % 3], wide);
    scatter(bufs[s % 3], s);
  }
}

template void ChebyshevBasisRaw(const float*, const int64_t*, const int32_t*,
                                const float*, int64_t, int64_t, const float*,
                                int64_t, int64_t, int64_t, float*, float*,
                                float*, float*);
template void ChebyshevBasisRaw(const double*, const int64_t*, const int32_t*,
                                const double*, int64_t, int64_t,
                                const double*, int64_t, int64_t, int64_t,
                                double*, double*, double*, double*);

Tensor ChebyshevBasis(const GraphOperator& op, const Tensor& x,
                      int64_t order) {
  ODF_TRACE_SCOPE("kernel/", "cheb_basis", "kernel");
  static Histogram& cheb_hist =
      MetricsRegistry::Global().GetHistogram("cheb_basis.seconds");
  ScopedTimer timer(cheb_hist);
  ODF_CHECK_GT(order, 0);
  ODF_CHECK_EQ(x.rank(), 3);
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t f = x.dim(2);
  ODF_CHECK_EQ(n, op.nodes());
  Tensor out(Shape({batch, n, order * f}));
  const int64_t work = batch * n * f;
  auto scratch = std::make_unique_for_overwrite<float[]>(
      static_cast<size_t>(3 * work));
  const CsrMatrix& csr = op.csr();
  ChebyshevBasisRaw(op.use_sparse() ? nullptr : op.dense().data(),
                    csr.row_ptr().data(), csr.col_idx().data(),
                    csr.values().data(), csr.nnz(), n, x.data(), batch, f,
                    order, out.data(), scratch.get(), scratch.get() + work,
                    scratch.get() + 2 * work);
  return out;
}

Tensor ChebyshevBasisGrad(const GraphOperator& op, const Tensor& grad,
                          int64_t order) {
  ODF_TRACE_SCOPE("kernel/", "cheb_basis_grad", "kernel");
  static Histogram& cheb_grad_hist =
      MetricsRegistry::Global().GetHistogram("cheb_basis_grad.seconds");
  ScopedTimer timer(cheb_grad_hist);
  ODF_CHECK_GT(order, 0);
  ODF_CHECK_EQ(grad.rank(), 3);
  const int64_t batch = grad.dim(0);
  const int64_t n = grad.dim(1);
  ODF_CHECK_EQ(n, op.nodes());
  ODF_CHECK_EQ(grad.dim(2) % order, 0);
  const int64_t f = grad.dim(2) / order;
  if (order == 1) return grad;
  const int64_t ld = order * f;
  Tensor gx(Shape({batch, n, f}));
  if (f == 0) return gx;

  // Reverse recurrence over tap gradients G_s (slice s−1 of a working
  // copy):  G_{s-1} += 2·L̂ᵀ·G_s,  G_{s-2} −= G_s  for s = order..3, then
  // dX = G_1 + L̂ᵀ·G_2.
  Tensor g = grad;
  float* pg = g.data();

  if (op.use_sparse()) {
    const CsrMatrix& at = op.csr_transpose();
    for (int64_t s = order; s >= 3; --s) {
      SpmmTiled<SpmmEpilogue::kAddTwice>(at, batch, f, pg + (s - 1) * f, ld,
                                         nullptr, 0, pg + (s - 2) * f, ld);
      float* psub = pg + (s - 3) * f;
      const float* pgs = pg + (s - 1) * f;
      ParallelFor(batch * n, std::max<int64_t>(1, kSpmmGrainFlops / f),
                  [&](int64_t t0, int64_t t1) {
                    for (int64_t t = t0; t < t1; ++t) {
                      for (int64_t c = 0; c < f; ++c) {
                        psub[t * ld + c] -= pgs[t * ld + c];
                      }
                    }
                  });
    }
    SpmmTiled<SpmmEpilogue::kAddOther>(at, batch, f, pg + f, ld, pg, ld,
                                       gx.data(), f);
    return gx;
  }

  // Dense path: contiguous copies of the slices feed the blocked GEMM.
  auto slice_copy = [&](int64_t s) {
    Tensor t(Shape({batch, n, f}));
    CopyRows(batch * n, f, pg + s * f, ld, t.data(), f);
    return t;
  };
  for (int64_t s = order; s >= 3; --s) {
    const Tensor lt = BatchMatMul(op.dense_transpose(), slice_copy(s - 1));
    const float* plt = lt.data();
    float* padd = pg + (s - 2) * f;
    float* psub = pg + (s - 3) * f;
    const float* pgs = pg + (s - 1) * f;
    ParallelFor(batch * n, std::max<int64_t>(1, kSpmmGrainFlops / f),
                [&](int64_t t0, int64_t t1) {
                  for (int64_t t = t0; t < t1; ++t) {
                    for (int64_t c = 0; c < f; ++c) {
                      padd[t * ld + c] += 2.0f * plt[t * f + c];
                      psub[t * ld + c] -= pgs[t * ld + c];
                    }
                  }
                });
  }
  const Tensor lt = BatchMatMul(op.dense_transpose(), slice_copy(1));
  const Tensor g1 = slice_copy(0);
  const float* plt = lt.data();
  const float* pg1 = g1.data();
  float* pgx = gx.data();
  ParallelFor(batch * n * f, kSpmmGrainFlops, [&](int64_t e0, int64_t e1) {
    for (int64_t e = e0; e < e1; ++e) pgx[e] = pg1[e] + plt[e];
  });
  return gx;
}

template <typename T>
void GraphApplyRaw(const T* dense, const int64_t* row_ptr,
                   const int32_t* col_idx, const T* values, int64_t nnz,
                   int64_t n, const T* x, int64_t batch, int64_t f, T* out) {
  ODF_TRACE_SCOPE("kernel/", "graph_apply", "kernel");
  if (dense != nullptr) {
    BatchMatMulRaw(dense, 0, x, n * f, out, batch, n, n, f);
    return;
  }
  SpmmTiledRaw<SpmmEpilogue::kStore>(
      row_ptr, col_idx, values, n, n, nnz, batch, f, x, f,
      static_cast<const T*>(nullptr), 0, out, f);
}

template void GraphApplyRaw(const float*, const int64_t*, const int32_t*,
                            const float*, int64_t, int64_t, const float*,
                            int64_t, int64_t, float*);
template void GraphApplyRaw(const double*, const int64_t*, const int32_t*,
                            const double*, int64_t, int64_t, const double*,
                            int64_t, int64_t, double*);

std::shared_ptr<const GraphOperator> GraphOperator::Make(Tensor dense,
                                                         int force_sparse) {
  ODF_CHECK_EQ(dense.rank(), 2);
  ODF_CHECK_EQ(dense.dim(0), dense.dim(1));
  auto op = std::shared_ptr<GraphOperator>(new GraphOperator());
  op->dense_ = std::move(dense);
  op->csr_ = CsrMatrix::FromDense(op->dense_);
  op->csr_t_ = op->csr_.Transpose();
  op->dense_t_ = Transpose2D(op->dense_);
  op->use_sparse_ = force_sparse < 0
                       ? op->csr_.Density() <= kSparseDensityThreshold
                       : force_sparse >= 1;
  return op;
}

}  // namespace odf
