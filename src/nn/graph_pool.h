#ifndef ODF_NN_GRAPH_POOL_H_
#define ODF_NN_GRAPH_POOL_H_

#include <cstdint>
#include <vector>

#include "autograd/var.h"

namespace odf::nn {

/// Pooling reduction over each node cluster.
enum class PoolKind { kAverage, kMax };

/// Cluster-ordered graph pooling (paper Eq. 6): reduces the node dimension
/// of [B, n, F] features to [B, n_c, F], where cluster `c` pools the finer
/// node indices `clusters[c]` (typically produced by graph/coarsen.h so
/// that pooled nodes are spatial neighbours).
///
/// Differentiable: average pooling spreads the gradient uniformly over a
/// cluster; max pooling routes it to the argmax element.
autograd::Var GraphPool(const autograd::Var& x,
                        const std::vector<std::vector<int64_t>>& clusters,
                        PoolKind kind);

/// Value-only cluster pooling of raw [batch, n, features] rows into
/// [batch, n_c, features] at either width: the one core behind the tape's
/// GraphPool and the compiled plan's kGraphPool. Each output cell pools its
/// cluster's rows in cluster order (sum then one inverse multiply, or a
/// compare-and-replace chain), so every caller pools bit-identically. When
/// `argmax` is non-null (max pooling), it holds batch·n_c·features entries,
/// zero-filled by the caller, and receives the winning source node per cell
/// for the max-pool backward. Instantiated for float and double.
template <typename T>
void GraphPoolRaw(const T* x, int64_t batch, int64_t n, int64_t features,
                  const std::vector<std::vector<int64_t>>& clusters,
                  PoolKind kind, T* out, int32_t* argmax);

}  // namespace odf::nn

#endif  // ODF_NN_GRAPH_POOL_H_
