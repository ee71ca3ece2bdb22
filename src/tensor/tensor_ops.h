#ifndef ODF_TENSOR_TENSOR_OPS_H_
#define ODF_TENSOR_TENSOR_OPS_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

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

// -- Preallocated-output variants ----------------------------------------
//
// Each `FooInto` writes Foo's result into `*out`, which must already hold
// the exact result shape; the kernel allocates no output storage (internal
// scratch such as GEMM packing buffers may still allocate). The allocating
// entry points above delegate to these, so the loop bodies — and therefore
// the floating-point results — are identical on both paths. Unary, scalar
// and same-shape binary kernels may alias `out` with an input (reads are
// element-aligned with the write); layout and matrix kernels must not.

void AddInto(const Tensor& a, const Tensor& b, Tensor* out);
void MulInto(const Tensor& a, const Tensor& b, Tensor* out);
void AddScalarInto(const Tensor& a, float s, Tensor* out);
void MulScalarInto(const Tensor& a, float s, Tensor* out);
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out);
void BatchMatMulInto(const Tensor& a, const Tensor& b, Tensor* out);
void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor* out);
/// Concatenates `count` tensors (given as a pointer array so callers on the
/// serving hot path need no temporary vector) along `axis`.
void ConcatInto(const Tensor* const* parts, size_t count, int64_t axis,
                Tensor* out);
void SliceInto(const Tensor& a, int64_t axis, int64_t start, int64_t len,
               Tensor* out);
void SumInto(const Tensor& a, int64_t axis, bool keepdim, Tensor* out);
void SoftmaxLastDimInto(const Tensor& a, Tensor* out);

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

// -- Width-parameterized raw kernels (precision-lowered serving) -----------
//
// The compiled serving path (serve/forward_plan.h) runs one interpreter at
// either precision. These raw entry points are the scalar-templated cores
// the fp32 Tensor kernels above are built from, so the fp32 plan runs the
// tape's exact loops and the fp64 plan replays them over double arenas with
// no per-call conversions. Instantiated for float and double in
// tensor_ops.cc (ConcatRaw, header-only, for any T).

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
/// MatMulInto, gemm.* metrics included.
template <typename T>
void MatMulRaw(const T* a, const T* b, T* out, int64_t m, int64_t k,
               int64_t n);

/// out[i] = a[i] · b[i] for `batch` products of (m x k) · (k x n), where
/// operand i starts at a + i·a_step and b + i·b_step (a step of 0
/// broadcasts one matrix across the batch). The core behind
/// BatchMatMulInto, batch_gemm.* metrics included.
template <typename T>
void BatchMatMulRaw(const T* a, int64_t a_step, const T* b, int64_t b_step,
                    T* out, int64_t batch, int64_t m, int64_t k, int64_t n);

/// Sum of `a` (row-major, dims `shape`) over `axis` into `out`, which holds
/// shape's element count with that axis collapsed; accumulation over the
/// axis is ascending. The core behind SumInto.
template <typename T>
void SumRaw(const T* a, const Shape& shape, int64_t axis, T* out);

/// Concatenation along `axis` of `count` parts, part p shaped like
/// `*shapes[p]` with its elements at `data(p)`. The core behind ConcatInto;
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
/// `inner` elements (max-subtracted, FastExp). The exact core behind
/// SoftmaxLastDimInto; float instantiation is bit-identical to it.
template <typename T>
void SoftmaxRowsRaw(const T* in, T* out, int64_t outer, int64_t inner);

/// FusedRecover over raw pointers: r [B,N,beta,K] ⊗ c [B,beta,N',K] →
/// out [B,N,N',K] with softmax over K. The exact core behind
/// FusedRecoverInto; float instantiation is bit-identical to it.
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
void FusedRecoverInto(const Tensor& r, const Tensor& c, float temperature,
                      Tensor* out);

/// Backward of FusedRecover. `y` is the forward output, `g` the upstream
/// gradient; writes dL/dr and dL/dc (same shapes as r and c, fully
/// overwritten) and returns dL/dtemperature.
float FusedRecoverGrad(const Tensor& r, const Tensor& c, float temperature,
                       const Tensor& y, const Tensor& g, Tensor* dr,
                       Tensor* dc);

}  // namespace odf

#endif  // ODF_TENSOR_TENSOR_OPS_H_
