#ifndef ODF_TENSOR_CSR_H_
#define ODF_TENSOR_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace odf {

/// Compressed-sparse-row form of a rank-2 float matrix.
///
/// The α-thresholded Gaussian proximity matrices of the paper (and the
/// Laplacians derived from them) are sparse by construction; this is the
/// storage the sparse graph compute path runs on. Rows are stored in
/// ascending column order, so every kernel that walks a row accumulates in
/// a fixed order regardless of thread count.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Extracts the exact non-zeros of a dense rank-2 tensor.
  static CsrMatrix FromDense(const Tensor& dense);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// nnz / (rows · cols); 0 for an empty matrix.
  double Density() const {
    const int64_t total = rows_ * cols_;
    return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
  }

  /// The transposed matrix (columns become rows, still column-ordered).
  CsrMatrix Transpose() const;

  /// Densifies (tests and debugging).
  Tensor ToDense() const;

  /// Row i occupies [row_ptr()[i], row_ptr()[i+1]) of col_idx()/values().
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;  // size rows + 1
  std::vector<int32_t> col_idx_;  // size nnz
  std::vector<float> values_;     // size nnz
};

/// Sparse × dense product over the node dimension:
///   out[b, i, f] = Σ_j a[i, j] · x[b, j, f]
/// for x of shape [B, n, F] (or [n, F], treated as batch 1 and returned
/// rank-2), with n == a.cols(). Parallel over batch × output rows; each
/// output element accumulates a's row in ascending column order, so results
/// are bit-identical for every thread count.
Tensor SpMM(const CsrMatrix& a, const Tensor& x);

class GraphOperator;

/// Fused Chebyshev basis of a graph operator: for x [B, n, F] computes all
/// `order` taps of the recurrence T_1 = x, T_2 = L̂x, T_s = 2·L̂·T_{s-1} −
/// T_{s-2} directly into one [B, n, order·F] tensor (tap s occupies feature
/// columns [s·F, (s+1)·F)), on the CSR or dense path chosen by `op`. The
/// tape's entry point: allocates the output and the scratch of
/// ChebyshevBasisRaw and calls it. Deterministic for every thread count.
Tensor ChebyshevBasis(const GraphOperator& op, const Tensor& x, int64_t order);

/// The one forward kernel of the Chebyshev recurrence, over raw arrays at
/// either scalar width: the tape's ChebyshevBasis and every Chebyshev-style
/// basis of the compiled serving plan (primary, demand-correlation tail,
/// adaptive adjacency) call it. Each L̂-product runs as ONE graph × [n, B·F]
/// product instead of B skinny [n, F] products: x is transposed so that
/// batch and features fuse into one wide row, the register-tiled SpMM or
/// blocked GEMM streams full tiles, and each tap is scattered back into
/// `out` [B, n, order·F]. Per output element the accumulation is the
/// graph's row in ascending column order under ODF_FMADD, and the combine
/// 2·acc − T_{s-2} rounds once (2·x is exact) — term for term the composed
/// SpMM / BatchMatMul → MulScalar(2) → Sub recurrence, so the result is
/// bit-identical to it at every thread count (asserted by
/// tests/sparse_graph_test.cc).
///
/// The graph operator arrives as a snapshot: a non-null `dense` ([n, n]
/// row-major) selects the blocked-GEMM path, otherwise the CSR triple
/// row_ptr/col_idx/values (`nnz` non-zeros, rows in ascending column order)
/// drives the tiled SpMM. Both dispatch over the thread pool by work size.
/// `x` is [batch, n, f] row-major, `out` [batch, n, order·f]; w0/w1/w2 are
/// caller-owned scratch of at least batch·n·f elements each (the serving
/// arena). Instantiated for float and double in csr.cc.
template <typename T>
void ChebyshevBasisRaw(const T* dense, const int64_t* row_ptr,
                       const int32_t* col_idx, const T* values, int64_t nnz,
                       int64_t n, const T* x, int64_t batch, int64_t f,
                       int64_t order, T* out, T* w0, T* w1, T* w2);

/// Adjoint of ChebyshevBasis: given dY [B, n, order·F], returns dX [B, n, F]
/// by running the recurrence in reverse with L̂ᵀ.
Tensor ChebyshevBasisGrad(const GraphOperator& op, const Tensor& grad,
                          int64_t order);

/// Single graph application out = op · x over raw arrays at either scalar
/// width — one polynomial tap of the compiled serving path (serve
/// kGraphApply, used by the diffusion basis). The operator arrives as in
/// ChebyshevBasisRaw: a non-null `dense` ([n, n] row-major) selects the
/// batched blocked GEMM, otherwise the CSR triple row_ptr/col_idx/values
/// drives the tiled SpMM. `x` and `out` are [batch, n, f] row-major. Runs
/// the same per-element accumulation as ag::SpMM's forward, so the float
/// instantiation is bit-identical to the tape at every thread count.
/// Instantiated for float and double.
template <typename T>
void GraphApplyRaw(const T* dense, const int64_t* row_ptr,
                   const int32_t* col_idx, const T* values, int64_t nnz,
                   int64_t n, const T* x, int64_t batch, int64_t f, T* out);

/// A constant square matrix operand — the scaled graph Laplacian L̂ — held
/// in both dense and CSR form (plus both transposes) behind one shared
/// instance, with the compute path chosen once at construction. Every
/// encoder/decoder cell and output head applying the same graph shares one
/// GraphOperator instead of carrying its own dense copy.
///
/// Path selection: `force_sparse` when given, else automatic (sparse iff
/// density ≤ kSparseDensityThreshold).
class GraphOperator {
 public:
  /// Above this density the dense blocked GEMM outruns the CSR kernel.
  static constexpr double kSparseDensityThreshold = 0.25;

  /// `force_sparse`: -1 = auto (by density), 0 = dense, 1 = sparse.
  static std::shared_ptr<const GraphOperator> Make(Tensor dense,
                                                   int force_sparse = -1);

  int64_t nodes() const { return dense_.dim(0); }
  double density() const { return csr_.Density(); }
  bool use_sparse() const { return use_sparse_; }

  const Tensor& dense() const { return dense_; }
  const Tensor& dense_transpose() const { return dense_t_; }
  const CsrMatrix& csr() const { return csr_; }
  const CsrMatrix& csr_transpose() const { return csr_t_; }

 private:
  GraphOperator() = default;

  Tensor dense_;    // n×n
  Tensor dense_t_;  // n×n, transpose
  CsrMatrix csr_;
  CsrMatrix csr_t_;
  bool use_sparse_ = false;
};

}  // namespace odf

#endif  // ODF_TENSOR_CSR_H_
