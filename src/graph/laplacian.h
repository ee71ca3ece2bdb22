#ifndef ODF_GRAPH_LAPLACIAN_H_
#define ODF_GRAPH_LAPLACIAN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/csr.h"
#include "tensor/tensor.h"

namespace odf {

// Spectral graph operators used by the Cheby-Net convolutions (paper
// Sec. V-A-2). All inputs are symmetric n×n weight matrices with zero
// diagonal.

/// Node degrees as a length-n vector: deg_i = Σ_j W_ij (accumulated in
/// double). The dense diagonal matrix this replaces was O(n²) zeros.
Tensor DegreeVector(const Tensor& w);

/// Combinatorial Laplacian L = D − W (D the diagonal degree matrix).
Tensor Laplacian(const Tensor& w);

/// Symmetric-normalized Laplacian L = I − D^{-1/2} W D^{-1/2}
/// (isolated nodes contribute identity rows).
Tensor NormalizedLaplacian(const Tensor& w);

/// Largest eigenvalue of a symmetric Laplacian (power iteration).
float LaplacianMaxEigenvalue(const Tensor& laplacian);

/// Chebyshev-scaled Laplacian L̂ = 2 L / λ_max − I (paper Eq. after (5)).
/// If `lambda_max` <= 0 it is computed internally. A degenerate λ_max (≤ 0
/// from an edgeless graph or a power iteration that collapsed to zero) falls
/// back to λ_max = 2 — the exact value for a normalized Laplacian's upper
/// bound and the L̂ = −I limit of the formula — and emits one typed warning
/// per call; ScaledLaplacianDegenerateFallbacks() counts them.
Tensor ScaledLaplacian(const Tensor& laplacian, float lambda_max = -1.0f);

/// Number of times ScaledLaplacian hit the degenerate-λ_max fallback since
/// process start. Tests pin the fallback behaviour through this counter.
uint64_t ScaledLaplacianDegenerateFallbacks();

/// Random-walk transition matrix P = D_out^{-1} W (rows sum to 1), the
/// single-step operator of DCRNN-style diffusion convolution. Zero-degree
/// rows — a region isolated by e.g. a road-closure scenario — become all-zero
/// rows (no diffusion in or out, never NaN). `w` need not be symmetric; pass
/// Wᵀ for the reverse direction D_in^{-1} Wᵀ.
Tensor RandomWalkTransition(const Tensor& w);

/// Forward and backward diffusion operators for weight matrix `w`:
/// {GraphOperator(D_out^{-1} W), GraphOperator(D_in^{-1} Wᵀ)}. Not memoized:
/// diffusion graphs are rebuilt per interval in dynamic-graph runs and the
/// build is two cheap row normalizations (no power iteration).
std::pair<std::shared_ptr<const GraphOperator>,
          std::shared_ptr<const GraphOperator>>
MakeDiffusionOperators(const Tensor& w);

/// Demand-correlation graph (tentpole input (c)): Pearson correlation of
/// per-region demand profiles across `interval_counts`, one [N, N'] dense
/// count matrix per training interval. With `origin_side` the profile of
/// region i is its outbound demand per interval (row sums); otherwise its
/// inbound demand (column sums over an [N', N]-transposed view — pass the
/// same matrices either way). Negative correlations and entries below
/// `threshold` are clamped to zero, the diagonal is zeroed, and regions with
/// constant demand (zero variance) get zero rows — the isolated-node case the
/// Laplacian guards above handle. Result is symmetric and non-negative, so it
/// plugs into MakeScaledLaplacianOperator like a proximity matrix.
Tensor DemandCorrelationGraph(const std::vector<Tensor>& interval_counts,
                              bool origin_side, double threshold = 0.0);

/// Builds the shared graph operator for a proximity weight matrix `w`:
/// L̂ = ScaledLaplacian(Laplacian(w)) held once in dense and CSR form, the
/// compute path auto-selected from density (see tensor/csr.h). Every layer
/// convolving the same graph should share the returned pointer.
///
/// Results are memoized process-wide on the contents of `w` (plus
/// `lambda_max`), so repeated construction — in particular rebuilding a
/// model to load a checkpoint for serving — skips the power iteration and
/// returns the *same* GraphOperator instance as the first call.
/// Thread-safe; bounded FIFO eviction.
///
/// Immutability contract (time-varying graphs): a GraphOperator is a frozen
/// snapshot — its dense form, CSR form, and the λ_max folded into L̂ are
/// fixed at construction and never re-derived. The memo key is a *copy* of
/// `w`'s contents taken here, so mutating a Tensor you previously passed in
/// cannot corrupt or stale the cache; a changed matrix simply misses and
/// builds a fresh operator. Per-interval graphs (Scenario::ProximityMatrixAt)
/// must therefore build a fresh operator for each interval's matrix — never
/// mutate one in place — and a scenario that revisits an earlier graph (a
/// closure that lifts) cache-hits the interval's original operator.
std::shared_ptr<const GraphOperator> MakeScaledLaplacianOperator(
    const Tensor& w, float lambda_max = -1.0f);

/// Cache observability for MakeScaledLaplacianOperator (tests and metrics).
uint64_t ScaledLaplacianOperatorCacheHits();
uint64_t ScaledLaplacianOperatorCacheMisses();
void ClearScaledLaplacianOperatorCache();

}  // namespace odf

#endif  // ODF_GRAPH_LAPLACIAN_H_
