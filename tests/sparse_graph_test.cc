// Tests for the sparse graph compute path: CsrMatrix storage, the SpMM
// kernel, the ag::SpMM autograd op, and sparse/dense parity of the
// Chebyshev graph layers on random α-thresholded graphs.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "graph/laplacian.h"
#include "nn/cheb_conv.h"
#include "nn/gcgru.h"
#include "tensor/csr.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

struct PoolGuard {
  int64_t saved = ThreadPool::Global().threads();
  ~PoolGuard() { ThreadPool::Global().Resize(static_cast<int>(saved)); }
};

// Symmetric zero-diagonal weights where each edge survives an α-threshold
// with probability `keep` (the paper's thresholded Gaussian proximity).
Tensor RandomThresholdedWeights(int64_t n, double keep, Rng& rng) {
  Tensor w(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(keep)) {
        const float v = 0.05f + static_cast<float>(rng.Uniform());
        w.At2(i, j) = v;
        w.At2(j, i) = v;
      }
    }
  }
  return w;
}

// Asserts |a - b| <= rel_tol · max(1, |a|, |b|) elementwise.
void ExpectRelClose(const Tensor& a, const Tensor& b, float rel_tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float scale =
        std::max(1.0f, std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_LE(std::fabs(a[i] - b[i]), rel_tol * scale)
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(CsrMatrixTest, RoundTripTransposeAndDensity) {
  Rng rng(11);
  Tensor w = RandomThresholdedWeights(17, 0.3, rng);
  CsrMatrix csr = CsrMatrix::FromDense(w);
  EXPECT_EQ(csr.rows(), 17);
  EXPECT_EQ(csr.cols(), 17);
  EXPECT_GT(csr.nnz(), 0);
  EXPECT_NEAR(csr.Density(),
              static_cast<double>(csr.nnz()) / (17.0 * 17.0), 1e-12);
  EXPECT_TRUE(BitIdentical(csr.ToDense(), w));
  EXPECT_TRUE(BitIdentical(csr.Transpose().ToDense(), Transpose2D(w)));
  // Rows must be in ascending column order (the determinism contract).
  for (int64_t i = 0; i < csr.rows(); ++i) {
    for (int64_t idx = csr.row_ptr()[static_cast<size_t>(i)] + 1;
         idx < csr.row_ptr()[static_cast<size_t>(i) + 1]; ++idx) {
      EXPECT_LT(csr.col_idx()[static_cast<size_t>(idx - 1)],
                csr.col_idx()[static_cast<size_t>(idx)]);
    }
  }
}

TEST(CsrMatrixTest, EmptyMatrixHasNoEdges) {
  Tensor zero(Shape({6, 6}));
  CsrMatrix csr = CsrMatrix::FromDense(zero);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.Density(), 0.0);
  Tensor x = Tensor::Ones(Shape({2, 6, 3}));
  Tensor y = SpMM(csr, x);
  EXPECT_EQ(y.shape(), Shape({2, 6, 3}));
  EXPECT_FLOAT_EQ(SquaredNorm(y), 0.0f);
}

TEST(SpMMKernelTest, MatchesDenseBatchMatMul) {
  Rng rng(12);
  // Feature widths straddle the kFTile=32 register tile: sub-tile, exact
  // tile, tile + ragged edge.
  for (const int64_t f : {1, 7, 31, 32, 33, 64, 70}) {
    for (const double keep : {0.0, 0.1, 0.5, 1.0}) {
      const int64_t n = 29;
      Tensor w = RandomThresholdedWeights(n, keep, rng);
      CsrMatrix csr = CsrMatrix::FromDense(w);
      Tensor x = Tensor::RandomNormal(Shape({3, n, f}), rng);
      ExpectRelClose(SpMM(csr, x), BatchMatMul(w, x), 1e-5f);
      // Rank-2 input: batch of one, returned rank-2.
      Tensor x2 = Tensor::RandomNormal(Shape({n, f}), rng);
      ExpectRelClose(SpMM(csr, x2), MatMul(w, x2), 1e-5f);
    }
  }
}

TEST(SpMMKernelTest, BitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(13);
  Tensor w = RandomThresholdedWeights(64, 0.2, rng);
  CsrMatrix csr = CsrMatrix::FromDense(w);
  Tensor x = Tensor::RandomNormal(Shape({2, 64, 40}), rng);
  ThreadPool::Global().Resize(1);
  Tensor serial = SpMM(csr, x);
  ThreadPool::Global().Resize(4);
  Tensor parallel = SpMM(csr, x);
  EXPECT_TRUE(BitIdentical(serial, parallel));
}

TEST(SpMMOpTest, GradCheckSparseAndDense) {
  Rng rng(14);
  Tensor lap = ScaledLaplacian(Laplacian(RandomThresholdedWeights(5, 0.4, rng)));
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    EXPECT_EQ(op->use_sparse(), force == 1);
    std::vector<ag::Var> inputs = {
        ag::Var(Tensor::RandomNormal(Shape({2, 5, 3}), rng),
                /*requires_grad=*/true)};
    auto fn = [&](const std::vector<ag::Var>& in) {
      return ag::SumAll(ag::Square(ag::SpMM(op, in[0])));
    };
    auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
    EXPECT_TRUE(result.ok) << "force_sparse=" << force << " element "
                           << result.worst_element << " err "
                           << result.max_abs_error;
  }
}

TEST(SpMMOpTest, SparseGradientMatchesDense) {
  Rng rng(15);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(23, 0.15, rng)));
  Tensor x0 = Tensor::RandomNormal(Shape({2, 23, 9}), rng);
  Tensor grads[2];
  Tensor values[2];
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    ag::Var x(x0, /*requires_grad=*/true);
    ag::Var loss = ag::SumAll(ag::Square(ag::SpMM(op, x)));
    loss.Backward();
    values[force] = loss.value();
    grads[force] = x.grad();
  }
  ExpectRelClose(values[0], values[1], 1e-5f);
  ExpectRelClose(grads[0], grads[1], 1e-5f);
}

// The fused basis must equal the tap-by-tap reference recurrence computed
// with dense matmuls.
TEST(ChebyshevBasisTest, MatchesUnfusedRecurrence) {
  Rng rng(22);
  const int64_t n = 15;
  const int64_t order = 5;
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(n, 0.3, rng)));
  Tensor x = Tensor::RandomNormal(Shape({2, n, 6}), rng);
  std::vector<Tensor> taps = {x, BatchMatMul(lap, x)};
  for (int64_t s = 2; s < order; ++s) {
    taps.push_back(Sub(MulScalar(BatchMatMul(lap, taps.back()), 2.0f),
                       taps[static_cast<size_t>(s - 2)]));
  }
  const Tensor want = Concat(taps, 2);
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    ExpectRelClose(ChebyshevBasis(*op, x, order), want, 1e-5f);
  }
}

TEST(ChebyshevBasisTest, GradCheckSparseAndDense) {
  Rng rng(23);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(5, 0.4, rng)));
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    std::vector<ag::Var> inputs = {
        ag::Var(Tensor::RandomNormal(Shape({2, 5, 2}), rng),
                /*requires_grad=*/true)};
    auto fn = [&](const std::vector<ag::Var>& in) {
      return ag::SumAll(ag::Square(ag::ChebyshevBasis(op, in[0], 4)));
    };
    auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
    EXPECT_TRUE(result.ok) << "force_sparse=" << force << " element "
                           << result.worst_element << " err "
                           << result.max_abs_error;
  }
}

// No-edge graph: L̂ = −I after scaling, but a literally all-zero operator
// must also follow the recurrence (T_3 = −T_1 when L̂ = 0, not 0).
TEST(ChebyshevBasisTest, ZeroOperatorFollowsRecurrence) {
  Tensor zero(Shape({4, 4}));
  Rng rng(24);
  Tensor x = Tensor::RandomNormal(Shape({1, 4, 3}), rng);
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(zero, force);
    Tensor basis = ChebyshevBasis(*op, x, 3);
    ExpectRelClose(Slice(basis, 2, 0, 3), x, 0.0f);
    EXPECT_FLOAT_EQ(SquaredNorm(Slice(basis, 2, 3, 3)), 0.0f);  // T_2 = 0
    ExpectRelClose(Slice(basis, 2, 6, 3), Neg(x), 0.0f);        // T_3 = −x
  }
}

// Forward and parameter/input gradients of a ChebConv must agree between the
// CSR and dense paths on random α-thresholded graphs — including the no-edge
// graph (L̂ = −I) and the fully connected one.
TEST(SparseDenseParityTest, ChebConvForwardAndBackward) {
  Rng graph_rng(16);
  for (const double keep : {0.0, 0.1, 0.5, 1.0}) {
    const int64_t n = 19;
    Tensor lap = ScaledLaplacian(
        Laplacian(RandomThresholdedWeights(n, keep, graph_rng)));
    Tensor x0 = Tensor::RandomNormal(Shape({2, n, 4}), graph_rng);

    Tensor out[2];
    Tensor x_grad[2];
    std::vector<Tensor> param_grads[2];
    for (const int force : {0, 1}) {
      Rng rng(99);  // identical parameter draws for both paths
      nn::ChebConv conv(GraphOperator::Make(lap, force), 4, 6, /*order=*/3,
                        rng);
      ag::Var x(x0, /*requires_grad=*/true);
      ag::Var y = conv.Forward(x);
      out[force] = y.value();
      ag::Var loss = ag::SumAll(ag::Square(y));
      loss.Backward();
      x_grad[force] = x.grad();
      for (const ag::Var& p : conv.Parameters()) {
        param_grads[force].push_back(p.grad());
      }
    }
    ExpectRelClose(out[0], out[1], 1e-5f);
    ExpectRelClose(x_grad[0], x_grad[1], 1e-5f);
    ASSERT_EQ(param_grads[0].size(), param_grads[1].size());
    for (size_t i = 0; i < param_grads[0].size(); ++i) {
      ExpectRelClose(param_grads[0][i], param_grads[1][i], 1e-5f);
    }
  }
}

TEST(SparseDenseParityTest, GcGruStepForwardAndBackward) {
  Rng graph_rng(17);
  for (const double keep : {0.0, 0.2, 1.0}) {
    const int64_t n = 11;
    Tensor lap = ScaledLaplacian(
        Laplacian(RandomThresholdedWeights(n, keep, graph_rng)));
    Tensor x0 = Tensor::RandomNormal(Shape({2, n, 3}), graph_rng);

    Tensor out[2];
    std::vector<Tensor> param_grads[2];
    for (const int force : {0, 1}) {
      Rng rng(77);
      nn::GcGruCell cell(GraphOperator::Make(lap, force), 3, 5, /*order=*/2,
                         rng);
      ag::Var x = ag::Var::Constant(x0);
      ag::Var h = cell.InitialState(2);
      h = cell.Step(x, h);
      h = cell.Step(x, h);
      out[force] = h.value();
      ag::Var loss = ag::SumAll(ag::Square(h));
      loss.Backward();
      for (const ag::Var& p : cell.Parameters()) {
        param_grads[force].push_back(p.grad());
      }
    }
    ExpectRelClose(out[0], out[1], 1e-5f);
    ASSERT_EQ(param_grads[0].size(), param_grads[1].size());
    for (size_t i = 0; i < param_grads[0].size(); ++i) {
      ExpectRelClose(param_grads[0][i], param_grads[1][i], 1e-5f);
    }
  }
}

TEST(SparseDenseParityTest, TrainingStepBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng graph_rng(18);
  Tensor lap = ScaledLaplacian(
      Laplacian(RandomThresholdedWeights(32, 0.15, graph_rng)));
  Tensor x0 = Tensor::RandomNormal(Shape({2, 32, 6}), graph_rng);

  Tensor out[2];
  Tensor grad[2];
  for (const int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    Rng rng(55);
    nn::GcGruCell cell(GraphOperator::Make(lap, /*force_sparse=*/1), 6, 8,
                       /*order=*/3, rng);
    ag::Var x = ag::Var::Constant(x0);
    ag::Var h = cell.Step(x, cell.InitialState(2));
    const int idx = threads == 1 ? 0 : 1;
    out[idx] = h.value();
    ag::Var loss = ag::SumAll(ag::Square(h));
    loss.Backward();
    grad[idx] = cell.Parameters()[0].grad();
  }
  EXPECT_TRUE(BitIdentical(out[0], out[1]));
  EXPECT_TRUE(BitIdentical(grad[0], grad[1]));
}

// The fused reset/update gate shares one Chebyshev basis: a Step must apply
// L̂ exactly 2·(order−1) times (gate basis + candidate basis), not the
// 3·(order−1) of three independent convolutions.
TEST(FusedGateTest, StepDoesOneChebyshevRecurrencePerGatePair) {
  Rng rng(19);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(7, 0.5, rng)));
  const int64_t order = 4;
  nn::GcGruCell cell(GraphOperator::Make(lap), 2, 3, order, rng);
  ag::Var x = ag::Var::Constant(Tensor::RandomNormal(Shape({1, 7, 2}), rng));
  ag::Var h = cell.InitialState(1);
  const int64_t before = nn::GraphApplyCount();
  h = cell.Step(x, h);
  const int64_t applies = nn::GraphApplyCount() - before;
  EXPECT_EQ(applies, 2 * (order - 1));
}

TEST(GraphOperatorTest, PathSelectionPolicy) {
  Rng rng(20);
  Tensor sparse_lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(40, 0.05, rng)));
  Tensor dense_lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(40, 0.9, rng)));

  // Automatic: density against kSparseDensityThreshold.
  EXPECT_TRUE(GraphOperator::Make(sparse_lap)->use_sparse());
  EXPECT_FALSE(GraphOperator::Make(dense_lap)->use_sparse());

  // Explicit force beats density.
  EXPECT_FALSE(GraphOperator::Make(sparse_lap, 0)->use_sparse());
  EXPECT_TRUE(GraphOperator::Make(dense_lap, 1)->use_sparse());
}

// -- Raw serving kernels under gradcheck -----------------------------------
//
// The precision-lowered serving plan replays training math through raw
// width-parameterized kernels (GemmRawInto, FusedRecoverRaw, and
// ChebyshevBasisRaw, whose sparse branch drives SpmmTiledRaw). Each
// gradcheck objective below recomputes the raw kernel at every finite-
// difference evaluation point and asserts it is bit-identical to the tape
// forward, so the raw paths are pinned to the differentiated ops across a
// whole neighborhood of inputs, not just one sample.

TEST(RawKernelGradCheckTest, GemmRawBitIdenticalToTapeMatMul) {
  Rng rng(31);
  const int64_t m = 4, k = 3, n = 5;
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({m, k}), rng), /*requires_grad=*/true),
      ag::Var(Tensor::RandomNormal(Shape({k, n}), rng),
              /*requires_grad=*/true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var y = ag::MatMul(in[0], in[1]);
    Tensor raw(Shape({m, n}));  // zero-filled, as GemmRawInto requires
    GemmRawInto(in[0].value().data(), in[1].value().data(), raw.data(), m, k,
                n);
    EXPECT_TRUE(BitIdentical(raw, y.value()));
    return ag::SumAll(ag::Square(y));
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
  EXPECT_TRUE(result.ok) << "element " << result.worst_element << " err "
                         << result.max_abs_error;
}

TEST(RawKernelGradCheckTest, FusedRecoverRawBitIdenticalToTapeFusedRecover) {
  Rng rng(32);
  const int64_t b = 2, n = 3, m = 4, beta = 2, k = 3;
  Tensor temp(Shape({1}));
  temp[0] = 0.7f;
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({b, n, beta, k}), rng),
              /*requires_grad=*/true),
      ag::Var(Tensor::RandomNormal(Shape({b, beta, m, k}), rng),
              /*requires_grad=*/true),
      ag::Var(temp, /*requires_grad=*/true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var y = ag::FusedRecover(in[0], in[1], in[2]);
    Tensor raw(Shape({b, n, m, k}));
    FusedRecoverRaw<float>(in[0].value().data(), in[1].value().data(),
                           in[2].value()[0], raw.data(), b, n, m, beta, k);
    EXPECT_TRUE(BitIdentical(raw, y.value()));
    return ag::SumAll(ag::Square(y));
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
  EXPECT_TRUE(result.ok) << "element " << result.worst_element << " err "
                         << result.max_abs_error;
}

// The Chebyshev recurrence composed from generic tape ops — T_2 = L̂x, then
// T_s = 2·L̂·T_{s-1} − T_{s-2} through ag::SpMM → MulScalar(2) → Sub — as
// the tape's demand-correlation tail runs it.
Tensor ComposedChebyshevBasis(const std::shared_ptr<const GraphOperator>& op,
                              const Tensor& x, int64_t order) {
  std::vector<ag::Var> parts{ag::Var::Constant(x)};
  parts.push_back(ag::SpMM(op, parts[0]));
  for (int64_t s = 3; s <= order; ++s) {
    ag::Var cur = ag::Sub(ag::MulScalar(ag::SpMM(op, parts.back()), 2.0f),
                          parts[parts.size() - 2]);
    parts.push_back(cur);
  }
  return ag::Concat(parts, 2).value();
}

// ChebyshevBasisRaw — the one forward core behind the tape's ChebyshevBasis
// and every kChebBasis of the compiled plan — is bit-identical to the
// composed recurrence, which is the contract that lets the plan replace the
// tape's composed correlation tail and adaptive basis with it. The dense
// branch runs the blocked GEMM over [n, B·F] where the composed side runs
// B products of [n, F] (different GEMM branches; n = 300 crosses a K
// block); the sparse branch (force_sparse=1) drives SpmmTiledRaw.
TEST(RawKernelGradCheckTest, ChebyshevBasisRawBitIdenticalToComposedRecurrence) {
  Rng rng(33);
  const int64_t order = 4;
  {
    const int64_t n = 5, f = 2, batch = 2;
    Tensor lap =
        ScaledLaplacian(Laplacian(RandomThresholdedWeights(n, 0.4, rng)));
    for (const int force : {0, 1}) {
      auto op = GraphOperator::Make(lap, force);
      std::vector<ag::Var> inputs = {
          ag::Var(Tensor::RandomNormal(Shape({batch, n, f}), rng),
                  /*requires_grad=*/true)};
      auto fn = [&](const std::vector<ag::Var>& in) {
        ag::Var y = ag::ChebyshevBasis(op, in[0], order);
        Tensor raw(Shape({batch, n, order * f}));
        Tensor w0(Shape({batch * n * f}));
        Tensor w1(Shape({batch * n * f}));
        Tensor w2(Shape({batch * n * f}));
        const CsrMatrix& csr = op->csr();
        ChebyshevBasisRaw<float>(
            op->use_sparse() ? nullptr : op->dense().data(),
            csr.row_ptr().data(), csr.col_idx().data(), csr.values().data(),
            csr.nnz(), n, in[0].value().data(), batch, f, order, raw.data(),
            w0.data(), w1.data(), w2.data());
        EXPECT_TRUE(BitIdentical(raw, y.value()));
        EXPECT_TRUE(BitIdentical(
            y.value(), ComposedChebyshevBasis(op, in[0].value(), order)));
        return ag::SumAll(ag::Square(y));
      };
      auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
      EXPECT_TRUE(result.ok) << "force_sparse=" << force << " element "
                             << result.worst_element << " err "
                             << result.max_abs_error;
    }
  }

  PoolGuard guard;
  for (const int64_t n : {9, 36, 70, 300}) {
    Tensor lap =
        ScaledLaplacian(Laplacian(RandomThresholdedWeights(n, 0.3, rng)));
    for (const int force : {0, 1}) {
      auto op = GraphOperator::Make(lap, force);
      for (const int64_t batch : {1, 3, 16}) {
        for (const int64_t f : {3, 21, 40}) {
          const Tensor x = Tensor::RandomNormal(Shape({batch, n, f}), rng);
          for (const int threads : {1, 4}) {
            ThreadPool::Global().Resize(threads);
            EXPECT_TRUE(BitIdentical(ChebyshevBasis(*op, x, order),
                                     ComposedChebyshevBasis(op, x, order)))
                << "n=" << n << " force_sparse=" << force
                << " batch=" << batch << " f=" << f
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(GraphOperatorTest, FactoryBuildsScaledLaplacian) {
  Rng rng(21);
  Tensor w = RandomThresholdedWeights(13, 0.3, rng);
  auto op = MakeScaledLaplacianOperator(w);
  EXPECT_EQ(op->nodes(), 13);
  EXPECT_TRUE(BitIdentical(op->dense(), ScaledLaplacian(Laplacian(w))));
  EXPECT_TRUE(BitIdentical(op->csr().ToDense(), op->dense()));
  EXPECT_TRUE(
      BitIdentical(op->csr_transpose().ToDense(), op->dense_transpose()));
}

}  // namespace
}  // namespace odf
