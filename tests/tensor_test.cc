#include "tensor/tensor.h"

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/fast_math.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace odf {
namespace {

TEST(ShapeTest, BasicProperties) {
  Shape s({3, 4, 7});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 84);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s.dim(-1), 7);
  EXPECT_EQ(s.ToString(), "[3, 4, 7]");
  const auto strides = s.Strides();
  EXPECT_EQ(strides[0], 28);
  EXPECT_EQ(strides[1], 7);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape({2, 3}));
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndIdentity) {
  Tensor f = Tensor::Full(Shape({2, 2}), 3.5f);
  EXPECT_EQ(f.At2(1, 1), 3.5f);
  Tensor id = Tensor::Identity(3);
  EXPECT_EQ(id.At2(0, 0), 1.0f);
  EXPECT_EQ(id.At2(0, 1), 0.0f);
  EXPECT_EQ(SumAll(id).Item(), 3.0f);
}

TEST(TensorTest, MultiIndexAccess) {
  Tensor t(Shape({2, 3, 4}));
  t.At({1, 2, 3}) = 42.0f;
  EXPECT_EQ(t.At3(1, 2, 3), 42.0f);
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42.0f);
}

TEST(TensorTest, ReshapeInferred) {
  Tensor t = Tensor::Arange(12);
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_EQ(r.At2(2, 3), 11.0f);
  EXPECT_EQ(r.Flatten().shape(), Shape({12}));
}

TEST(TensorTest, RandomReproducible) {
  Rng rng1(7);
  Rng rng2(7);
  Tensor a = Tensor::RandomNormal(Shape({32}), rng1);
  Tensor b = Tensor::RandomNormal(Shape({32}), rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f));
}

TEST(TensorTest, GlorotUniformWithinBounds) {
  Rng rng(3);
  Tensor w = Tensor::GlorotUniform(Shape({10, 20}), rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  EXPECT_LE(MaxValue(w), limit);
  EXPECT_GE(MinValue(w), -limit);
}

TEST(TensorOpsTest, AddSameShape) {
  Tensor a = Tensor::Arange(4);
  Tensor b = Tensor::Full(Shape({4}), 1.0f);
  Tensor c = Add(a, b);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[3], 4.0f);
}

TEST(TensorOpsTest, BroadcastAddBias) {
  // [2,3] + [3] row-bias broadcast.
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  Tensor bias(Shape({3}), {10.0f, 20.0f, 30.0f});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.At2(0, 0), 10.0f);
  EXPECT_EQ(c.At2(1, 2), 35.0f);
}

TEST(TensorOpsTest, BroadcastOuter) {
  // [2,1] * [1,3] -> [2,3].
  Tensor a(Shape({2, 1}), {2.0f, 3.0f});
  Tensor b(Shape({1, 3}), {1.0f, 10.0f, 100.0f});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.At2(0, 1), 20.0f);
  EXPECT_EQ(c.At2(1, 2), 300.0f);
}

TEST(TensorOpsTest, BroadcastShapeChecks) {
  EXPECT_EQ(BroadcastShape(Shape({2, 1, 4}), Shape({3, 1})),
            Shape({2, 3, 4}));
  EXPECT_TRUE(IsBroadcastableTo(Shape({1, 4}), Shape({5, 4})));
  EXPECT_FALSE(IsBroadcastableTo(Shape({2, 4}), Shape({5, 4})));
}

TEST(TensorOpsTest, ReduceToShapeSumsBroadcastDims) {
  Tensor g = Tensor::Ones(Shape({5, 4}));
  Tensor reduced = ReduceToShape(g, Shape({4}));
  EXPECT_EQ(reduced.shape(), Shape({4}));
  EXPECT_EQ(reduced[0], 5.0f);
  Tensor keep = ReduceToShape(g, Shape({5, 1}));
  EXPECT_EQ(keep.shape(), Shape({5, 1}));
  EXPECT_EQ(keep[0], 4.0f);
}

TEST(TensorOpsTest, MatMulKnownResult) {
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At2(0, 0), 58.0f);
  EXPECT_EQ(c.At2(0, 1), 64.0f);
  EXPECT_EQ(c.At2(1, 0), 139.0f);
  EXPECT_EQ(c.At2(1, 1), 154.0f);
}

TEST(TensorOpsTest, BatchMatMulMatchesLoopedMatMul) {
  Rng rng(11);
  Tensor a = Tensor::RandomNormal(Shape({4, 3, 5}), rng);
  Tensor b = Tensor::RandomNormal(Shape({4, 5, 2}), rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({4, 3, 2}));
  for (int64_t i = 0; i < 4; ++i) {
    Tensor ai = Slice(a, 0, i, 1).Reshape({3, 5});
    Tensor bi = Slice(b, 0, i, 1).Reshape({5, 2});
    Tensor ci = Slice(c, 0, i, 1).Reshape({3, 2});
    EXPECT_TRUE(AllClose(ci, MatMul(ai, bi), 1e-5f));
  }
}

TEST(TensorOpsTest, BatchMatMulBroadcastLhs) {
  Rng rng(12);
  Tensor a = Tensor::RandomNormal(Shape({3, 5}), rng);
  Tensor b = Tensor::RandomNormal(Shape({4, 5, 2}), rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({4, 3, 2}));
  Tensor b0 = Slice(b, 0, 0, 1).Reshape({5, 2});
  Tensor c0 = Slice(c, 0, 0, 1).Reshape({3, 2});
  EXPECT_TRUE(AllClose(c0, MatMul(a, b0), 1e-5f));
}

TEST(TensorOpsTest, TransposeRoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape({3, 7}), rng);
  EXPECT_TRUE(AllClose(Transpose2D(Transpose2D(a)), a, 0.0f));
}

TEST(TensorOpsTest, PermuteMatchesManual) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), Shape({4, 2, 3}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 4; ++k) {
        EXPECT_EQ(p.At3(k, i, j), a.At3(i, j, k));
      }
    }
  }
}

// Element-by-element permute: output axis i walks input axis perm[i].
template <typename S, typename D>
std::vector<D> ReferencePermute(const std::vector<S>& a,
                                const std::vector<int64_t>& dims,
                                const std::vector<int64_t>& perm) {
  const auto in_strides = Shape(dims).Strides();
  std::vector<D> out(a.size());
  for (int64_t flat = 0; flat < static_cast<int64_t>(a.size()); ++flat) {
    int64_t rem = flat;
    int64_t src = 0;
    for (int64_t d = static_cast<int64_t>(perm.size()) - 1; d >= 0; --d) {
      const size_t axis = static_cast<size_t>(perm[static_cast<size_t>(d)]);
      src += (rem % dims[axis]) * in_strides[axis];
      rem /= dims[axis];
    }
    out[static_cast<size_t>(flat)] =
        static_cast<D>(a[static_cast<size_t>(src)]);
  }
  return out;
}

template <typename S, typename D>
void ExpectPermuteMatchesReference(const std::vector<int64_t>& dims,
                                   const std::vector<int64_t>& perm) {
  const Shape shape(dims);
  std::vector<S> a(static_cast<size_t>(shape.numel()));
  // Thirds are inexact in float and double alike, so widening is visible.
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<S>(i) + S(1) / S(3);
  }
  std::vector<D> got(a.size(), D(-1));
  PermuteRaw(a.data(), shape, perm, got.data());
  const std::vector<D> want = ReferencePermute<S, D>(a, dims, perm);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << shape.ToString() << " element " << i;
  }
}

TEST(TensorOpsTest, PermuteRawEveryPathMatchesReference) {
  struct Case {
    const char* path;
    std::vector<int64_t> dims;
    std::vector<int64_t> perm;
  };
  // The large cases exceed kElemGrain, so chunks seed their odometers
  // mid-tensor on a multi-thread pool.
  const std::vector<Case> cases = {
      {"identity", {8, 40, 30, 3}, {0, 1, 2, 3}},
      {"identity_rank1", {5}, {0}},
      {"trailing_chunk", {8, 40, 30, 3}, {1, 0, 2, 3}},
      {"trailing_chunk_short", {8, 40, 30, 3}, {2, 0, 1, 3}},
      {"last2_swap", {8, 40, 30, 3}, {0, 1, 3, 2}},
      {"last2_swap_tile_edges", {70, 45}, {1, 0}},
      {"last2_swap_row_bands", {300, 100}, {1, 0}},
      {"last2_swap_rank3", {3, 33, 65}, {0, 2, 1}},
      {"odometer", {8, 40, 30, 3}, {3, 1, 0, 2}},
      {"odometer_rank3", {2, 3, 4}, {2, 0, 1}},
      {"odometer_lead_swap", {6, 5, 7}, {1, 2, 0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    ExpectPermuteMatchesReference<float, float>(c.dims, c.perm);
    ExpectPermuteMatchesReference<double, double>(c.dims, c.perm);
    ExpectPermuteMatchesReference<float, double>(c.dims, c.perm);
  }
}

TEST(TensorOpsTest, ConcatAxis0And1) {
  Tensor a = Tensor::Full(Shape({2, 2}), 1.0f);
  Tensor b = Tensor::Full(Shape({1, 2}), 2.0f);
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.At2(2, 0), 2.0f);

  Tensor d = Tensor::Full(Shape({2, 3}), 3.0f);
  Tensor e = Concat({a, d}, 1);
  EXPECT_EQ(e.shape(), Shape({2, 5}));
  EXPECT_EQ(e.At2(0, 1), 1.0f);
  EXPECT_EQ(e.At2(0, 4), 3.0f);
}

TEST(TensorOpsTest, SliceMiddleAxis) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor s = Slice(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2, 4}));
  EXPECT_EQ(s.At3(0, 0, 0), a.At3(0, 1, 0));
  EXPECT_EQ(s.At3(1, 1, 3), a.At3(1, 2, 3));
}

TEST(TensorOpsTest, SliceConcatRoundTrip) {
  Rng rng(9);
  Tensor a = Tensor::RandomNormal(Shape({3, 5, 2}), rng);
  Tensor left = Slice(a, 1, 0, 2);
  Tensor right = Slice(a, 1, 2, 3);
  EXPECT_TRUE(AllClose(Concat({left, right}, 1), a, 0.0f));
}

TEST(TensorOpsTest, SumAlongAxes) {
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  Tensor s0 = Sum(a, 0, false);
  EXPECT_EQ(s0.shape(), Shape({3}));
  EXPECT_EQ(s0[0], 3.0f);
  EXPECT_EQ(s0[2], 7.0f);
  Tensor s1 = Sum(a, 1, true);
  EXPECT_EQ(s1.shape(), Shape({2, 1}));
  EXPECT_EQ(s1[0], 3.0f);
  EXPECT_EQ(s1[1], 12.0f);
  EXPECT_EQ(SumAll(a).Item(), 15.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).Item(), 2.5f);
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape({5, 7}), rng, 0.0f, 3.0f);
  Tensor s = SoftmaxLastDim(a);
  for (int64_t r = 0; r < 5; ++r) {
    float total = 0;
    for (int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(s.At2(r, c), 0.0f);
      total += s.At2(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor a(Shape({1, 3}), {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s[i], 1.0f / 3.0f, 1e-6f);
}

TEST(TensorOpsTest, UnaryOps) {
  Tensor a(Shape({3}), {-1.0f, 0.0f, 2.0f});
  EXPECT_EQ(Relu(a)[0], 0.0f);
  EXPECT_EQ(Relu(a)[2], 2.0f);
  EXPECT_NEAR(Sigmoid(a)[1], 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a)[2], std::tanh(2.0f), 1e-6f);
  EXPECT_EQ(Abs(a)[0], 1.0f);
  EXPECT_EQ(Clamp(a, -0.5f, 1.0f)[0], -0.5f);
  EXPECT_EQ(Clamp(a, -0.5f, 1.0f)[2], 1.0f);
  EXPECT_EQ(Neg(a)[2], -2.0f);
}

TEST(TensorOpsTest, SquaredNormAndMinMax) {
  Tensor a(Shape({3}), {1.0f, -2.0f, 2.0f});
  EXPECT_FLOAT_EQ(SquaredNorm(a), 9.0f);
  EXPECT_FLOAT_EQ(MaxValue(a), 2.0f);
  EXPECT_FLOAT_EQ(MinValue(a), -2.0f);
}

// Both arguments must be positive normal floats (true for exp results over
// the sweep range), so ULP distance is plain bit-pattern distance.
int64_t UlpDistance(float a, float b) {
  const int64_t ia = std::bit_cast<int32_t>(a);
  const int64_t ib = std::bit_cast<int32_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(FastMathTest, ExpWithinUlpBoundOfStdExp) {
  // Dense sweep of the non-saturating range plus random draws; the kernel
  // documents a max-ULP contract against libm.
  int64_t worst = 0;
  for (float x = -87.0f; x <= 88.0f; x += 1.0f / 128.0f) {
    const float got = FastExp(x);
    const float want = std::exp(x);
    const int64_t ulp = UlpDistance(got, want);
    ASSERT_LE(ulp, kFastExpMaxUlp) << "x=" << x << " got " << got << " want "
                                   << want;
    worst = std::max(worst, ulp);
  }
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const float x = static_cast<float>(rng.Uniform(-87.0, 88.0));
    ASSERT_LE(UlpDistance(FastExp(x), std::exp(x)), kFastExpMaxUlp)
        << "x=" << x;
  }
  EXPECT_GT(worst, 0);  // the sweep actually exercised inexact cases
}

TEST(FastMathTest, ExpSaturationAndSpecialValues) {
  EXPECT_EQ(FastExp(0.0f), 1.0f);
  EXPECT_EQ(FastExp(89.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(FastExp(1000.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(FastExp(-88.0f), 0.0f);
  EXPECT_EQ(FastExp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_TRUE(std::isnan(FastExp(std::nanf(""))));
}

TEST(FastMathTest, SigmoidAndTanhMatchLibm) {
  for (float x = -12.0f; x <= 12.0f; x += 1.0f / 64.0f) {
    EXPECT_NEAR(FastSigmoid(x), 1.0f / (1.0f + std::exp(-x)), 2e-7f)
        << "x=" << x;
    EXPECT_NEAR(FastTanh(x), std::tanh(x), 4e-7f) << "x=" << x;
  }
  EXPECT_EQ(FastTanh(0.0f), 0.0f);
  EXPECT_EQ(FastTanh(20.0f), 1.0f);
  EXPECT_EQ(FastTanh(-20.0f), -1.0f);
  EXPECT_TRUE(std::isnan(FastTanh(std::nanf(""))));
}

// Double-width counterparts (the fp64 reference serving plan runs on
// these): same positive-normal precondition, 64-bit bit patterns.
int64_t UlpDistance64(double a, double b) {
  const int64_t ia = std::bit_cast<int64_t>(a);
  const int64_t ib = std::bit_cast<int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(FastMathTest, ExpF64WithinUlpBoundOfStdExp) {
  int64_t worst = 0;
  for (double x = -708.0; x <= 709.0; x += 1.0 / 16.0) {
    const double got = FastExp(x);
    const double want = std::exp(x);
    const int64_t ulp = UlpDistance64(got, want);
    ASSERT_LE(ulp, kFastExpMaxUlpF64)
        << "x=" << x << " got " << got << " want " << want;
    worst = std::max(worst, ulp);
  }
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-708.0, 709.0);
    ASSERT_LE(UlpDistance64(FastExp(x), std::exp(x)), kFastExpMaxUlpF64)
        << "x=" << x;
  }
  // The serving softmax feeds max-subtracted logits, always <= 0: sweep
  // that subrange densely too.
  for (double x = -60.0; x <= 0.0; x += 1.0 / 512.0) {
    ASSERT_LE(UlpDistance64(FastExp(x), std::exp(x)), kFastExpMaxUlpF64)
        << "x=" << x;
  }
  EXPECT_GT(worst, 0);  // the sweep actually exercised inexact cases
}

TEST(FastMathTest, ExpF64SaturationAndSpecialValues) {
  EXPECT_EQ(FastExp(0.0), 1.0);
  EXPECT_EQ(FastExp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(FastExp(1.0e6), std::numeric_limits<double>::infinity());
  EXPECT_EQ(FastExp(-709.0), 0.0);
  EXPECT_EQ(FastExp(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(FastExp(std::nan(""))));
}

TEST(FastMathTest, SigmoidAndTanhF64MatchLibm) {
  for (double x = -30.0; x <= 30.0; x += 1.0 / 64.0) {
    EXPECT_NEAR(FastSigmoid(x), 1.0 / (1.0 + std::exp(-x)), 4e-16)
        << "x=" << x;
    EXPECT_NEAR(FastTanh(x), std::tanh(x), 8e-16) << "x=" << x;
  }
  EXPECT_EQ(FastTanh(0.0), 0.0);
  EXPECT_EQ(FastTanh(25.0), 1.0);
  EXPECT_EQ(FastTanh(-25.0), -1.0);
  EXPECT_TRUE(std::isnan(FastTanh(std::nan(""))));
}

}  // namespace
}  // namespace odf
