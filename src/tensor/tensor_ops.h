#ifndef ODF_TENSOR_TENSOR_OPS_H_
#define ODF_TENSOR_TENSOR_OPS_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

// Fused multiply-add pinned to the build's scalar contraction policy. On
// targets with hardware FMA, `-ffp-contract` fuses scalar `a*b + c` into one
// rounding — but GCC's vectorizer does not always carry that fusion into
// hand-tiled loops, silently splitting them into mul+add and breaking bit-
// equality against the scalar kernels. This macro forces the fused form
// where scalar code fuses and the split form where it cannot, so "identical
// per-element accumulation order" implies bit-identical results across
// every kernel in a build.
// The macro is width-generic: overload resolution picks the float or double
// fused form, so the scalar-templated kernels below pin the identical
// contraction policy at both precisions.
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
namespace odf::fp_detail {
inline float Fmadd(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);
}
inline double Fmadd(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}
}  // namespace odf::fp_detail
#define ODF_FMADD(a, b, c) (::odf::fp_detail::Fmadd((a), (b), (c)))
#else
#define ODF_FMADD(a, b, c) ((a) * (b) + (c))
#endif

namespace odf {

// Pure tensor kernels. These operate on values only; the autograd layer
// (src/autograd) builds differentiable graph nodes on top of them.

// -- Broadcasting -------------------------------------------------------

/// Returns the numpy-style broadcast shape of `a` and `b`; aborts if the
/// shapes are incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// True when `from` can be broadcast to `to`.
bool IsBroadcastableTo(const Shape& from, const Shape& to);

/// Sums `t` over its broadcast dimensions so the result has shape `target`
/// (the adjoint of broadcasting; used by autograd backward passes).
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// -- Elementwise binary (with broadcasting) ------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// -- Scalar ops ----------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// -- Elementwise unary ----------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be positive (use AddScalar for smoothing).
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
/// Clamps every element into [lo, hi].
Tensor Clamp(const Tensor& a, float lo, float hi);
/// Applies an arbitrary scalar function elementwise (test/utility use).
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

// -- Matrix products ------------------------------------------------------

/// 2-D matrix product: [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched matrix product with leading-batch broadcasting:
/// [B,m,k] x [B,k,n] -> [B,m,n]; either side may be rank-2 and is broadcast
/// across the batch.
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

// -- Layout ---------------------------------------------------------------

/// Transposes a rank-2 tensor.
Tensor Transpose2D(const Tensor& a);

/// Swaps the last two dimensions of a rank>=2 tensor.
Tensor TransposeLast2(const Tensor& a);

/// General permutation of axes; `perm` must be a permutation of 0..rank-1.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);

/// Concatenates tensors along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Extracts `len` indices starting at `start` along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len);

// -- Reductions -----------------------------------------------------------

/// Sum over all elements, returned as a shape-{1} tensor.
Tensor SumAll(const Tensor& a);
/// Mean over all elements, returned as a shape-{1} tensor.
Tensor MeanAll(const Tensor& a);
/// Sum along one axis; `keepdim` keeps the reduced axis with size 1.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdim);
/// Mean along one axis.
Tensor Mean(const Tensor& a, int64_t axis, bool keepdim);
/// Largest element (value only).
float MaxValue(const Tensor& a);
/// Smallest element (value only).
float MinValue(const Tensor& a);

// -- Neural-net helpers -----------------------------------------------------

/// Softmax along the last axis.
Tensor SoftmaxLastDim(const Tensor& a);

/// Squared Frobenius norm (sum of squares) as a float.
float SquaredNorm(const Tensor& a);

/// True when shapes match and elements differ by at most `atol`.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

// -- Prepacked GEMM (compiled-inference weights) --------------------------
//
// The blocked GEMM packs its right operand into j-tile-major panels on
// every call. For a static operand (a trained weight matrix on the serving
// path) that pack can be hoisted: `PackGemmWeight` performs it once and
// `MatMulPrepackedRaw` runs the identical blocked row pipeline against the
// stored panels — same micro-kernels, same k-ascending accumulation per
// output element, so results are bit-identical to MatMul on the same
// operands. Runs serially (the serving worker owns exactly one core-equiv
// of work; pool dispatch on these problem sizes costs more than it saves).

template <typename T>
struct PackedGemmBT {
  // Narrow weights (n <= 16): row-major, columns zero-padded to `pw`.
  // Wider weights (pw == 0): j-tile-major, kNR-strided (see tensor_ops.cc).
  std::vector<T> panels;
  int64_t k = 0;
  int64_t n = 0;
  int64_t pw = 0;  // padded row width of the small-n layout; 0 = blocked
};
using PackedGemmB = PackedGemmBT<float>;
using PackedGemmB64 = PackedGemmBT<double>;

/// Packs a rank-2 weight `b` ([k, n]) for MatMulPrepackedRaw.
PackedGemmB PackGemmWeight(const Tensor& b);

/// True when the blocked prepacked path handles an [rows, k] x [k, n]
/// product (enough rows for the register tile). Callers fall back to
/// MatMulRaw / BatchMatMulRaw otherwise.
bool PrepackedGemmViable(int64_t rows, int64_t k, int64_t n);

// -- Raw GEMM entry (layout kernels) --------------------------------------

/// out (m x n, already zero-filled) += a (m x k) · b (k x n), raw row-major
/// pointers. Runs the exact naive/blocked dispatch behind MatMul, so per-
/// element accumulation (k-ascending, one fused chain) is bit-identical to
/// the Tensor entry points. For layout-restructuring kernels (e.g. the wide
/// Chebyshev basis) that operate on scratch buffers rather than Tensors.
void GemmRawInto(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n);

/// Double overload for the fp64 reference serving plan: the identical
/// blocked/naive pipeline instantiated at double width (same micro-kernel
/// templates, same ODF_FMADD contraction pinning, register tiles sized for
/// the fp32 vector width).
void GemmRawInto(const double* a, const double* b, double* out, int64_t m,
                 int64_t k, int64_t n);

// -- Width-parameterized raw kernels (one core per op) ----------------------
//
// Every op that both the autograd tape and the compiled serving plan
// (serve/forward_plan.h) run has exactly one core here: a scalar-templated
// raw-pointer kernel. The float Tensor entry points above validate shapes,
// allocate the result and call it; the plan calls the same core over its
// own-width arena (fp32 or fp64) with no per-call conversions. So the fp32
// plan runs the tape's exact loops, and plan-vs-tape bit identity is
// structural. Each core picks its fast path from its input, never from an
// option. Header templates take any functor; the rest are instantiated for
// float and double in tensor_ops.cc.

/// Minimum elements per chunk for elementwise/layout kernels; below
/// `kElemGrain` total the dispatch overhead outweighs the loop (ParallelFor
/// then runs inline).
inline constexpr int64_t kElemGrain = 1 << 14;

/// out[i] = fn(a[i]) over `n` elements: the loop every elementwise unary and
/// scalar op runs. `out` may alias `a`.
template <typename T, typename Fn>
void UnaryRaw(const T* a, T* out, int64_t n, Fn fn) {
  ParallelFor(n, kElemGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = fn(a[i]);
  });
}

/// True when `b` broadcasts to `out` along leading axes only: `b`'s dims,
/// leading 1s dropped, are the trailing dims of `out` (a bias row).
bool BroadcastsAsRows(const Shape& b, const Shape& out);

/// `shape`'s row-major strides laid out against an `out_rank`-dim broadcast
/// result: right-aligned, 0 on broadcast (size-1 or missing) axes.
std::vector<int64_t> BroadcastStrides(const Shape& shape, int64_t out_rank);

/// out = fn(a, b) with NumPy-style broadcasting; `as`/`bs` are the operand
/// shapes and `os` = BroadcastShape(as, bs). Each element is one fn
/// application, so every path writes the same bits: equal shapes run one
/// flat loop, a `b` repeated over `a`'s leading axes runs a row loop, and
/// anything else walks a stride-0 odometer seeded per chunk. Equal-shape
/// calls may alias `out` with an input.
template <typename T, typename Fn>
void BroadcastBinaryRaw(const T* a, const Shape& as, const T* b,
                        const Shape& bs, T* out, const Shape& os, Fn fn) {
  if (as == bs) {
    ParallelFor(os.numel(), kElemGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) out[i] = fn(a[i], b[i]);
    });
    return;
  }
  if (as == os && BroadcastsAsRows(bs, os)) {
    const int64_t cols = bs.numel();
    const int64_t grain = std::max<int64_t>(1, kElemGrain / cols);
    ParallelFor(os.numel() / cols, grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const T* ar = a + r * cols;
        T* orow = out + r * cols;
        for (int64_t j = 0; j < cols; ++j) orow[j] = fn(ar[j], b[j]);
      }
    });
    return;
  }
  const int64_t rank = os.rank();
  const std::vector<int64_t>& dims = os.dims();
  const auto sa = BroadcastStrides(as, rank);
  const auto sb = BroadcastStrides(bs, rank);
  ParallelFor(os.numel(), kElemGrain, [&](int64_t begin, int64_t end) {
    // Seed the odometer (and the broadcast source offsets) from the chunk's
    // first flat index, then walk incrementally.
    std::vector<int64_t> index(static_cast<size_t>(rank), 0);
    int64_t ai = 0;
    int64_t bi = 0;
    int64_t rem = begin;
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      index[du] = rem % dims[du];
      rem /= dims[du];
      ai += index[du] * sa[du];
      bi += index[du] * sb[du];
    }
    for (int64_t flat = begin; flat < end; ++flat) {
      out[flat] = fn(a[ai], b[bi]);
      for (int64_t d = rank - 1; d >= 0; --d) {
        const size_t du = static_cast<size_t>(d);
        ++index[du];
        ai += sa[du];
        bi += sb[du];
        if (index[du] < dims[du]) break;
        ai -= sa[du] * dims[du];
        bi -= sb[du] * dims[du];
        index[du] = 0;
      }
    }
  });
}

/// Permutes `a` (row-major, dims `shape`) by `perm` into `out`, converting
/// each element from S to D (the fp64 plan widens its float inputs this
/// way). A permutation is a pure relabeling, so every path writes the same
/// bytes; the path follows from `perm`: the identity is one straight copy,
/// axes left in place at the tail are copied as contiguous chunks, a swap
/// of the last two axes runs cache-blocked 2-D transposes, and anything
/// else walks an odometer. Instantiated for <float, float>,
/// <double, double> and <float, double>.
template <typename S, typename D>
void PermuteRaw(const S* a, const Shape& shape,
                const std::vector<int64_t>& perm, D* out);

/// Copies `len` indices starting at `start` along `axis` of `a` (dims
/// `shape`) into `out`.
template <typename T>
void SliceRaw(const T* a, const Shape& shape, int64_t axis, int64_t start,
              int64_t len, T* out);

/// out[i] = σ(a[i]) / tanh(a[i]) / max(a[i], 0) over `n` elements
/// (FastSigmoid / FastTanh). The cores behind Sigmoid, Tanh and Relu; `out`
/// may alias `a`.
template <typename T>
void SigmoidRaw(const T* a, T* out, int64_t n);
template <typename T>
void TanhRaw(const T* a, T* out, int64_t n);
template <typename T>
void ReluRaw(const T* a, T* out, int64_t n);

/// out (m x n) = a (m x k) · b (k x n), overwriting `out`. The core behind
/// MatMul, gemm.* metrics included.
template <typename T>
void MatMulRaw(const T* a, const T* b, T* out, int64_t m, int64_t k,
               int64_t n);

/// out[i] = a[i] · b[i] for `batch` products of (m x k) · (k x n), where
/// operand i starts at a + i·a_step and b + i·b_step (a step of 0
/// broadcasts one matrix across the batch). The core behind
/// BatchMatMul, batch_gemm.* metrics included.
template <typename T>
void BatchMatMulRaw(const T* a, int64_t a_step, const T* b, int64_t b_step,
                    T* out, int64_t batch, int64_t m, int64_t k, int64_t n);

/// Sum of `a` (row-major, dims `shape`) over `axis` into `out`, which holds
/// shape's element count with that axis collapsed; accumulation over the
/// axis is ascending. The core behind Sum.
template <typename T>
void SumRaw(const T* a, const Shape& shape, int64_t axis, T* out);

/// Concatenation along `axis` of `count` parts, part p shaped like
/// `*shapes[p]` with its elements at `data(p)`. The core behind Concat;
/// the compiled plan passes float tensors as shape metadata and its
/// own-width arena payloads as data.
template <typename T, typename PartData>
void ConcatRaw(const Tensor* const* shapes, size_t count, int64_t axis,
               PartData data, T* out) {
  const Tensor& first = *shapes[0];
  if (axis < 0) axis += first.rank();
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= first.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < first.rank(); ++d) inner *= first.dim(d);
  int64_t out_row = 0;
  for (size_t p = 0; p < count; ++p) out_row += shapes[p]->dim(axis) * inner;
  int64_t dest_offset = 0;
  for (size_t p = 0; p < count; ++p) {
    const int64_t p_row = shapes[p]->dim(axis) * inner;
    const T* part = data(p);
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(part + o * p_row, part + (o + 1) * p_row,
                out + o * out_row + dest_offset);
    }
    dest_offset += p_row;
  }
}

/// Packs a row-major [k, n] weight for MatMulPrepackedRaw — same panel
/// layout decisions as PackGemmWeight at either width.
template <typename T>
PackedGemmBT<T> PackGemmWeightRaw(const T* b, int64_t k, int64_t n);

/// Prepacked GEMM over raw pointers: out (rows x b.n) = a (rows x b.k) · b.
/// Requires PrepackedGemmViable(rows, b.k, b.n). Serial.
template <typename T>
void MatMulPrepackedRaw(const T* a, int64_t rows, const PackedGemmBT<T>& b,
                        T* out);

/// Row-wise softmax: out[o, :] = softmax(in[o, :]) for `outer` rows of
/// `inner` elements (max-subtracted, FastExp). The core behind
/// SoftmaxLastDim.
template <typename T>
void SoftmaxRowsRaw(const T* in, T* out, int64_t outer, int64_t inner);

/// FusedRecover over raw pointers: r [B,N,beta,K] ⊗ c [B,beta,N',K] →
/// out [B,N,N',K] with softmax over K. The core behind FusedRecover.
template <typename T>
void FusedRecoverRaw(const T* r, const T* c, T temperature, T* out,
                     int64_t b, int64_t n, int64_t m, int64_t beta,
                     int64_t k);

// -- Fused OD recovery ----------------------------------------------------
//
// The paper's recover stage in one batched kernel:
//   out[b,o,d,:] = softmax_k( temperature * sum_beta r[b,o,beta,:] *
//                                                    c[b,beta,d,:] )
// with r: [B,N,beta,K], c: [B,beta,N',K] -> out: [B,N,N',K]. Replaces the
// permute + batched-GEMM + scalar-mul + softmax pipeline with a single pass
// per (b,o,d) cell; accumulation over beta is ascending and cells partition
// disjointly across threads, so results are thread-count invariant.

Tensor FusedRecover(const Tensor& r, const Tensor& c, float temperature);

/// Backward of FusedRecover. `y` is the forward output, `g` the upstream
/// gradient; writes dL/dr and dL/dc (same shapes as r and c, fully
/// overwritten) and returns dL/dtemperature.
float FusedRecoverGrad(const Tensor& r, const Tensor& c, float temperature,
                       const Tensor& y, const Tensor& g, Tensor* dr,
                       Tensor* dc);

}  // namespace odf

#endif  // ODF_TENSOR_TENSOR_OPS_H_
