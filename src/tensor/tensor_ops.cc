#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "tensor/fast_math.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

// -- Parallel substrate tuning --------------------------------------------
//
// Every kernel below keeps one invariant: the arithmetic performed for a
// given output element (operation order included) depends only on the
// problem shape, never on the thread count. ParallelFor partitions disjoint
// output ranges, so ODF_THREADS=1 and ODF_THREADS=N produce bit-identical
// tensors (asserted by substrate_test).

// GEMM cache blocking: kMC x kKC panels of A are packed into thread-local
// buffers (64 KiB, L2-resident) and multiplied into C through a kMR x kNR
// register-tiled micro-kernel; B is packed once per call into j-tile-major
// panels so the micro-kernel streams both operands with unit stride (the
// unpacked column access pattern, stride = row length, thrashes L1 set
// associativity for power-of-two widths). The register tile is sized to the
// widest vector unit the translation unit is compiled for.
constexpr int64_t kMC = 64;
constexpr int64_t kKC = 256;
#if defined(__AVX512F__)
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 32;  // 16 zmm accumulators
#elif defined(__AVX2__)
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 16;  // 12 ymm accumulators
#else
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 8;  // 8 xmm accumulators fit the SSE register file
#endif
static_assert(kMC % kMR == 0, "row block must hold whole strips");

// Problems with fewer multiply-adds than this run the plain triple loop
// (packing would dominate); bigger ones use the blocked kernel, and the
// row-block loop goes parallel once a chunk is worth at least this much.
constexpr int64_t kGemmNaiveFlops = 1 << 12;

// Every kernel in this block is templated on the scalar type T: the float
// instantiation is the fp32 substrate (tape and compiled plan share it, so
// plan-vs-tape bit-identity is structural), and the double instantiation
// backs the fp64 reference serving plan. Loop bodies are identical at both
// widths; only the register economics differ (tile constants are sized for
// the fp32 vector width, so the double kernels run at roughly half the
// lane count — exactly the gap bench_serving's precision sweep measures).

// The seed's i-k-j triple loop; kept as the small-problem path (and as the
// reference the blocked kernel is tested against). Accumulates over k in
// ascending order, exactly like the micro-kernel.
template <typename T>
void GemmNaive(const T* pa, const T* pb, T* po, int64_t m,
               int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    T* orow = po + i * n;
    const T* arow = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const T av = arow[kk];
      if (av == T(0)) continue;
      const T* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// Packs rows [i0, i0+rows) x columns [k0, k0+depth) of `a` (leading
// dimension `lda`) into `buf` as ceil(rows/kMR) interleaved strips:
// buf[strip][kk * kMR + r] = a[i0 + strip*kMR + r][k0 + kk], zero-padded in
// r, so the micro-kernel loads kMR contiguous elements per k step.
template <typename T>
void PackA(const T* a, int64_t lda, int64_t i0, int64_t rows, int64_t k0,
           int64_t depth, T* buf) {
  const int64_t strips = (rows + kMR - 1) / kMR;
  for (int64_t s = 0; s < strips; ++s) {
    T* dst = buf + s * depth * kMR;
    const int64_t r_limit = std::min<int64_t>(kMR, rows - s * kMR);
    for (int64_t kk = 0; kk < depth; ++kk) {
      for (int64_t r = 0; r < kMR; ++r) {
        dst[kk * kMR + r] =
            r < r_limit ? a[(i0 + s * kMR + r) * lda + k0 + kk] : T(0);
      }
    }
  }
}

// Number of j-tiles of width kNR covering n columns.
int64_t NumJTiles(int64_t n) { return (n + kNR - 1) / kNR; }

// Packs columns [jt*kNR, ...) of `b` (k x n) into tile `jt` of `buf`:
// buf[jt*k*kNR + kk*kNR + jr] = b[kk][jt*kNR + jr], zero-padded in jr. The
// micro-kernel then streams B with unit stride regardless of n.
template <typename T>
void PackBTile(const T* b, int64_t k, int64_t n, int64_t jt, T* buf) {
  const int64_t j0 = jt * kNR;
  const int64_t nr = std::min<int64_t>(kNR, n - j0);
  T* dst = buf + jt * k * kNR;
  for (int64_t kk = 0; kk < k; ++kk) {
    const T* src = b + kk * n + j0;
    T* row = dst + kk * kNR;
    for (int64_t j = 0; j < nr; ++j) row[j] = src[j];
    for (int64_t j = nr; j < kNR; ++j) row[j] = T(0);
  }
}

// C[kMR, W] += Apack_strip[depth, kMR] * Bpack_tile[depth, kNR]; compile-time
// bounds let the j loops vectorize and keep the kMR*W accumulator block in
// vector registers. W is the live tile width: kNR for interior tiles, and a
// narrower power-of-two (kNR/2, kNR/4) for n % kNR column remainders so that
// common skinny outputs (e.g. n = 16 with kNR = 32) do not fall back to the
// runtime-bounded edge kernel. B panel rows keep their kNR stride.
template <int64_t W, typename T>
void MicroKernelFull(const T* ap, const T* bp, T* c, int64_t ldc,
                     int64_t depth) {
  T acc[kMR * W];
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < W; ++j) acc[r * W + j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < depth; ++kk) {
    const T* brow = bp + kk * kNR;
    const T* astrip = ap + kk * kMR;
    for (int64_t r = 0; r < kMR; ++r) {
      const T av = astrip[r];
      for (int64_t j = 0; j < W; ++j) acc[r * W + j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < W; ++j) c[r * ldc + j] = acc[r * W + j];
  }
}

// Full-height tiles whose nr is not one of the compile-time widths above
// (skinny n % kNR remainders, e.g. the model's beta/bucket dims landing on
// n in 4..16): compute the whole compile-time width W >= nr in registers —
// B panel rows are zero-padded to kNR, so the extra lanes read zeros — and
// store back only the nr live columns. Per live element the accumulation is
// term-for-term identical to MicroKernelFull/Edge, so this is a pure store
// mask, not a different rounding.
template <int64_t W, typename T>
void MicroKernelFullTail(const T* ap, const T* bp, T* c, int64_t ldc,
                         int64_t depth, int64_t nr) {
  T acc[kMR * W] = {};
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r * W + j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < depth; ++kk) {
    const T* brow = bp + kk * kNR;
    const T* astrip = ap + kk * kMR;
    for (int64_t r = 0; r < kMR; ++r) {
      const T av = astrip[r];
      for (int64_t j = 0; j < W; ++j) acc[r * W + j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r * W + j];
  }
}

// Edge tiles (m % kMR row remainders) with runtime bounds; B padding makes
// reads past nr safe, but only [mr, nr) is stored back.
template <typename T>
void MicroKernelEdge(const T* ap, const T* bp, T* c, int64_t ldc,
                     int64_t depth, int64_t mr, int64_t nr) {
  T acc[kMR * kNR] = {};
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r * kNR + j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < depth; ++kk) {
    const T* brow = bp + kk * kNR;
    const T* astrip = ap + kk * kMR;
    for (int64_t r = 0; r < mr; ++r) {
      const T av = astrip[r];
      for (int64_t j = 0; j < nr; ++j) acc[r * kNR + j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r * kNR + j];
  }
}

// Blocked GEMM over output rows [i0, i1) against packed B; `apack` is a
// caller-provided kMC * kKC scratch buffer. Row-block boundaries are
// absolute (multiples of kMC from row 0), so any partition of blocks across
// threads computes each C element with the identical k-ascending
// accumulation order.
template <typename T>
void GemmRows(const T* pa, const T* bpack, T* po, int64_t k,
              int64_t n, int64_t i0, int64_t i1, T* apack) {
  for (int64_t ib = i0; ib < i1; ib += kMC) {
    const int64_t rows = std::min(kMC, i1 - ib);
    for (int64_t k0 = 0; k0 < k; k0 += kKC) {
      const int64_t depth = std::min(kKC, k - k0);
      PackA(pa, k, ib, rows, k0, depth, apack);
      const int64_t strips = (rows + kMR - 1) / kMR;
      for (int64_t jt = 0; jt < NumJTiles(n); ++jt) {
        const int64_t j0 = jt * kNR;
        const int64_t nr = std::min<int64_t>(kNR, n - j0);
        const T* bpanel = bpack + jt * k * kNR + k0 * kNR;
        for (int64_t s = 0; s < strips; ++s) {
          const T* ap = apack + s * depth * kMR;
          T* c = po + (ib + s * kMR) * n + j0;
          const int64_t mr = std::min(kMR, rows - s * kMR);
          if (mr == kMR) {
            // Full-height strip: pick the narrowest compile-time tile
            // covering nr so no skinny column remainder (n % kNR down to 1)
            // ever reaches the runtime-bounded edge kernel.
            if (nr == kNR) {
              MicroKernelFull<kNR>(ap, bpanel, c, n, depth);
            } else if (nr == kNR / 2 && kNR / 2 >= 8) {
              MicroKernelFull<kNR / 2>(ap, bpanel, c, n, depth);
            } else if (nr == kNR / 4 && kNR / 4 >= 8) {
              MicroKernelFull<kNR / 4>(ap, bpanel, c, n, depth);
            } else if (nr <= 4) {
              MicroKernelFullTail<4>(ap, bpanel, c, n, depth, nr);
            } else if (nr <= 8) {
              MicroKernelFullTail<8>(ap, bpanel, c, n, depth, nr);
            } else if (nr <= kNR / 2) {
              MicroKernelFullTail<kNR / 2>(ap, bpanel, c, n, depth, nr);
            } else {
              MicroKernelFullTail<kNR>(ap, bpanel, c, n, depth, nr);
            }
          } else {
            MicroKernelEdge(ap, bpanel, c, n, depth, mr, nr);
          }
        }
      }
    }
  }
}

// Per-thread A-packing scratch (kMC x kKC, fixed size — one buffer per
// scalar width). PackA fully writes every element it later reads — padding
// included — so the buffer is never zero-initialized; reusing it across
// calls removes a 64 KB value-init from every blocked GEMM, which dominates
// small serving-sized products.
template <typename T>
T* ApackScratch() {
  thread_local std::unique_ptr<T[]> buf =
      std::make_unique_for_overwrite<T[]>(static_cast<size_t>(kMC * kKC));
  return buf.get();
}

// Widest output for the register-strip small-N kernel below. The serving
// models' weight matmuls are all this narrow (n = buckets, filters or
// hidden size), where the blocked path's packing and edge tiles cost more
// than the multiply itself.
constexpr int64_t kSmallNMax = 16;

// [rows, k] x [k, n] against a B copy whose rows are zero-padded to width P
// (compile-time, so the P-column accumulator strips registerize). Each
// output element accumulates a[i, :]·b[:, j] in ascending k — the identical
// per-element sum, term for term, as GemmNaive — and padding columns are
// computed into registers but never stored, so results are bit-identical to
// the unpacked kernels. Serial; per-row results are independent, so callers
// may split the row range across threads without changing any element.
template <int64_t P, typename T>
void GemmSmallPadded(const T* a, const T* bp, T* po, int64_t rows,
                     int64_t k, int64_t n) {
  constexpr int64_t R = 4;  // row strip: R·P accumulators
  int64_t i = 0;
  for (; i + R <= rows; i += R) {
    T acc[R][P] = {};
    const T* a0 = a + i * k;
    const T* a1 = a0 + k;
    const T* a2 = a1 + k;
    const T* a3 = a2 + k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const T* brow = bp + kk * P;
      const T v0 = a0[kk];
      const T v1 = a1[kk];
      const T v2 = a2[kk];
      const T v3 = a3[kk];
      for (int64_t j = 0; j < P; ++j) {
        acc[0][j] = ODF_FMADD(v0, brow[j], acc[0][j]);
        acc[1][j] = ODF_FMADD(v1, brow[j], acc[1][j]);
        acc[2][j] = ODF_FMADD(v2, brow[j], acc[2][j]);
        acc[3][j] = ODF_FMADD(v3, brow[j], acc[3][j]);
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      T* orow = po + (i + r) * n;
      for (int64_t j = 0; j < n; ++j) orow[j] = acc[r][j];
    }
  }
  for (; i < rows; ++i) {
    T acc[P] = {};
    const T* ar = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const T* brow = bp + kk * P;
      const T v = ar[kk];
      for (int64_t j = 0; j < P; ++j) acc[j] = ODF_FMADD(v, brow[j], acc[j]);
    }
    T* orow = po + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = acc[j];
  }
}

// Zero-padded row width for the small-N layout. One full SIMD vector per
// row: floats always pad to 16 lanes — an 8-wide float row tempts the
// vectorizer into pairing two rows per register with cross-lane inserts,
// which runs slower than the double kernel at the same shape — while
// 8 doubles already fill a 512-bit vector. Padding lanes are computed but
// never stored, so the choice is pure layout, not rounding.
template <typename T>
int64_t SmallNPadWidth(int64_t n) {
  return (sizeof(T) == 4 || n > 8) ? kSmallNMax : 8;
}

// Tallest A for the no-pack panel kernel below: two micro-kernel strips.
// Above this the blocked path's A/B packing amortizes; at or below it the
// packing costs more than the whole multiply.
constexpr int64_t kSmallMMax = 2 * kMR;

// Row-strip kernel over one column panel of B read in place: `bp` points at
// a k x P panel with leading dimension `ldb` (the unpacked B itself for full
// panels, a zero-padded scratch copy for the n % kNR tail), and columns
// [cj0, cj0+nr) of C receive the result. No per-call packing or allocation.
// Accumulates onto C in ascending k with the pinned contraction, so per
// live element the sum is term-for-term identical to the blocked
// micro-kernels; lanes >= nr are computed in registers but never stored.
template <int64_t P, typename T>
void GemmSmallMPanel(const T* a, const T* bp, int64_t ldb, T* c, int64_t ldc,
                     int64_t rows, int64_t k, int64_t cj0, int64_t nr) {
  constexpr int64_t R = 4;  // row strip: R·P accumulators
  int64_t i = 0;
  for (; i + R <= rows; i += R) {
    T acc[R][P] = {};
    for (int64_t r = 0; r < R; ++r) {
      const T* crow = c + (i + r) * ldc + cj0;
      for (int64_t j = 0; j < nr; ++j) acc[r][j] = crow[j];
    }
    const T* a0 = a + i * k;
    const T* a1 = a0 + k;
    const T* a2 = a1 + k;
    const T* a3 = a2 + k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const T* brow = bp + kk * ldb;
      const T v0 = a0[kk];
      const T v1 = a1[kk];
      const T v2 = a2[kk];
      const T v3 = a3[kk];
      for (int64_t j = 0; j < P; ++j) {
        acc[0][j] = ODF_FMADD(v0, brow[j], acc[0][j]);
        acc[1][j] = ODF_FMADD(v1, brow[j], acc[1][j]);
        acc[2][j] = ODF_FMADD(v2, brow[j], acc[2][j]);
        acc[3][j] = ODF_FMADD(v3, brow[j], acc[3][j]);
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      T* crow = c + (i + r) * ldc + cj0;
      for (int64_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
    }
  }
  for (; i < rows; ++i) {
    T acc[P] = {};
    T* crow = c + i * ldc + cj0;
    for (int64_t j = 0; j < nr; ++j) acc[j] = crow[j];
    const T* ar = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const T* brow = bp + kk * ldb;
      const T v = ar[kk];
      for (int64_t j = 0; j < P; ++j) acc[j] = ODF_FMADD(v, brow[j], acc[j]);
    }
    for (int64_t j = 0; j < nr; ++j) crow[j] = acc[j];
  }
}

// Per-thread zero-padded scratch for the small-m tail panel (k x kNR, grown
// on demand and reused across calls).
template <typename T>
T* SmallMPadScratch(int64_t k) {
  thread_local std::vector<T> buf;
  if (static_cast<int64_t>(buf.size()) < k * kNR) {
    buf.resize(static_cast<size_t>(k * kNR));
  }
  return buf.data();
}

// True when the blocked path would waste more on packing than it gains:
// small problems and degenerate (vector-like) operands. Skinny outputs with
// 4 <= n <= kSmallNMax no longer count as degenerate — Gemm routes them
// through the padded register-strip kernel instead of the scalar triple
// loop (the beta/bucket dims of the recover stage live exactly there).
bool UseNaiveGemm(int64_t m, int64_t k, int64_t n) {
  return m * k * n <= kGemmNaiveFlops || m < kMR || n < 4;
}

// Shared entry: C (zero-initialized, m x n) += A (m x k) * B (k x n),
// choosing naive / small-n padded / blocked-serial / blocked-parallel by
// problem size.
template <typename T>
void Gemm(const T* pa, const T* pb, T* po, int64_t m, int64_t k,
          int64_t n) {
  if (UseNaiveGemm(m, k, n)) {
    GemmNaive(pa, pb, po, m, k, n);
    return;
  }
  if (n <= kSmallNMax) {
    // Skinny output: pad B's rows to a compile-time width once, then run
    // the register-strip kernel over parallel row chunks (rows are
    // independent, so any partition is bit-identical). GemmSmallPadded
    // overwrites its output rows, matching the zero-filled C contract.
    const int64_t pw = SmallNPadWidth<T>(n);
    auto bp = std::make_unique_for_overwrite<T[]>(static_cast<size_t>(k * pw));
    for (int64_t kk = 0; kk < k; ++kk) {
      const T* src = pb + kk * n;
      T* dst = bp.get() + kk * pw;
      for (int64_t j = 0; j < n; ++j) dst[j] = src[j];
      for (int64_t j = n; j < pw; ++j) dst[j] = T(0);
    }
    const int64_t grain = std::max<int64_t>(
        1, kGemmNaiveFlops / std::max<int64_t>(1, k * n));
    ParallelFor(m, grain, [&](int64_t i0, int64_t i1) {
      if (pw == 8) {
        GemmSmallPadded<8>(pa + i0 * k, bp.get(), po + i0 * n, i1 - i0, k, n);
      } else {
        GemmSmallPadded<kSmallNMax>(pa + i0 * k, bp.get(), po + i0 * n,
                                    i1 - i0, k, n);
      }
    });
    return;
  }
  if (m <= kSmallMMax) {
    // Short A against a wide B: packing either operand costs more than the
    // multiply itself. Stream B's full-width column panels in place and pad
    // only the n % kNR tail into per-thread scratch. Panels write disjoint
    // column ranges, so any partition across threads is bit-identical.
    const int64_t full_tiles = n / kNR;
    const int64_t grain = std::max<int64_t>(
        1, kGemmNaiveFlops / std::max<int64_t>(1, m * k * kNR));
    ParallelFor(full_tiles, grain, [&](int64_t t0, int64_t t1) {
      for (int64_t jt = t0; jt < t1; ++jt) {
        GemmSmallMPanel<kNR>(pa, pb + jt * kNR, n, po, n, m, k, jt * kNR,
                             kNR);
      }
    });
    const int64_t j0 = full_tiles * kNR;
    if (j0 < n) {
      const int64_t nr = n - j0;
      T* pad = SmallMPadScratch<T>(k);
      for (int64_t kk = 0; kk < k; ++kk) {
        const T* src = pb + kk * n + j0;
        T* dst = pad + kk * kNR;
        for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
        for (int64_t j = nr; j < kNR; ++j) dst[j] = T(0);
      }
      GemmSmallMPanel<kNR>(pa, pad, kNR, po, n, m, k, j0, nr);
    }
    return;
  }
  // PackBTile fully writes each tile (padding included), so the pack buffer
  // is allocated uninitialized.
  auto bpack = std::make_unique_for_overwrite<T[]>(
      static_cast<size_t>(NumJTiles(n) * k * kNR));
  const int64_t pack_grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, k * kNR));
  ParallelFor(NumJTiles(n), pack_grain, [&](int64_t t0, int64_t t1) {
    for (int64_t jt = t0; jt < t1; ++jt) PackBTile(pb, k, n, jt, bpack.get());
  });
  const int64_t num_blocks = (m + kMC - 1) / kMC;
  const int64_t flops_per_block = std::min(kMC, m) * k * n;
  const int64_t grain = std::max<int64_t>(
      1, kGemmNaiveFlops / std::max<int64_t>(1, flops_per_block));
  ParallelFor(num_blocks, grain, [&](int64_t b0, int64_t b1) {
    GemmRows(pa, bpack.get(), po, k, n, b0 * kMC, std::min(m, b1 * kMC),
             ApackScratch<T>());
  });
}

}  // namespace

void GemmRawInto(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n) {
  Gemm(a, b, out, m, k, n);
}

void GemmRawInto(const double* a, const double* b, double* out, int64_t m,
                 int64_t k, int64_t n) {
  Gemm(a, b, out, m, k, n);
}

template <typename T>
PackedGemmBT<T> PackGemmWeightRaw(const T* b, int64_t k, int64_t n) {
  PackedGemmBT<T> packed;
  packed.k = k;
  packed.n = n;
  if (packed.n <= kSmallNMax) {
    // Small-N path: row-major copy, columns zero-padded to one full SIMD
    // vector of the scalar width (see SmallNPadWidth).
    packed.pw = SmallNPadWidth<T>(packed.n);
    packed.panels.assign(static_cast<size_t>(packed.k * packed.pw), T(0));
    for (int64_t kk = 0; kk < packed.k; ++kk) {
      for (int64_t j = 0; j < packed.n; ++j) {
        packed.panels[static_cast<size_t>(kk * packed.pw + j)] =
            b[kk * packed.n + j];
      }
    }
    return packed;
  }
  packed.panels.resize(
      static_cast<size_t>(NumJTiles(packed.n) * packed.k * kNR));
  for (int64_t jt = 0; jt < NumJTiles(packed.n); ++jt) {
    PackBTile(b, packed.k, packed.n, jt, packed.panels.data());
  }
  return packed;
}

template PackedGemmBT<float> PackGemmWeightRaw(const float*, int64_t, int64_t);
template PackedGemmBT<double> PackGemmWeightRaw(const double*, int64_t,
                                                int64_t);

PackedGemmB PackGemmWeight(const Tensor& b) {
  ODF_CHECK_EQ(b.rank(), 2);
  return PackGemmWeightRaw(b.data(), b.dim(0), b.dim(1));
}

bool PrepackedGemmViable(int64_t rows, int64_t k, int64_t n) {
  (void)k;
  (void)n;
  return rows >= kMR;
}

template <typename T>
void MatMulPrepackedRaw(const T* a, int64_t rows, const PackedGemmBT<T>& b,
                        T* out) {
  if (b.pw == 8) {
    GemmSmallPadded<8>(a, b.panels.data(), out, rows, b.k, b.n);
    return;
  }
  if (b.pw == kSmallNMax) {
    GemmSmallPadded<kSmallNMax>(a, b.panels.data(), out, rows, b.k, b.n);
    return;
  }
  std::fill(out, out + rows * b.n, T(0));
  if (rows <= kSmallMMax) {
    // Short A: the blocked path's per-call A packing costs more than the
    // multiply. The packed tiles are already k x kNR row-major panels, so
    // run the no-pack panel kernel straight over them (the last tile is
    // zero-padded by PackBTile, making full-width reads safe).
    for (int64_t jt = 0; jt < NumJTiles(b.n); ++jt) {
      const int64_t j0 = jt * kNR;
      GemmSmallMPanel<kNR>(a, b.panels.data() + jt * b.k * kNR, kNR, out,
                           b.n, rows, b.k, j0,
                           std::min<int64_t>(kNR, b.n - j0));
    }
    return;
  }
  GemmRows(a, b.panels.data(), out, b.k, b.n, 0, rows, ApackScratch<T>());
}

template void MatMulPrepackedRaw(const float*, int64_t,
                                 const PackedGemmBT<float>&, float*);
template void MatMulPrepackedRaw(const double*, int64_t,
                                 const PackedGemmBT<double>&, double*);

namespace {

template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  Tensor out(BroadcastShape(a.shape(), b.shape()));
  BroadcastBinaryRaw(a.data(), a.shape(), b.data(), b.shape(), out.data(),
                     out.shape(), fn);
  return out;
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  UnaryRaw(a.data(), out.data(), a.numel(), fn);
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> dims(static_cast<size_t>(rank), 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.rank() ? 1 : a.dim(i - (rank - a.rank()));
    const int64_t db = i < rank - b.rank() ? 1 : b.dim(i - (rank - b.rank()));
    ODF_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << a.ToString() << " vs "
        << b.ToString();
    dims[static_cast<size_t>(i)] = std::max(da, db);
  }
  return Shape(dims);
}

bool BroadcastsAsRows(const Shape& b, const Shape& out) {
  if (b.numel() == 0) return false;
  int64_t lead = 0;
  while (lead < b.rank() && b.dim(lead) == 1) ++lead;
  const int64_t tail = b.rank() - lead;
  if (tail > out.rank()) return false;
  for (int64_t i = 0; i < tail; ++i) {
    if (b.dim(lead + i) != out.dim(out.rank() - tail + i)) return false;
  }
  return true;
}

std::vector<int64_t> BroadcastStrides(const Shape& shape, int64_t out_rank) {
  std::vector<int64_t> strides(static_cast<size_t>(out_rank), 0);
  const auto own = shape.Strides();
  const int64_t offset = out_rank - shape.rank();
  for (int64_t i = 0; i < shape.rank(); ++i) {
    if (shape.dim(i) != 1) {
      strides[static_cast<size_t>(offset + i)] = own[static_cast<size_t>(i)];
    }
  }
  return strides;
}

bool IsBroadcastableTo(const Shape& from, const Shape& to) {
  if (from.rank() > to.rank()) return false;
  const int64_t offset = to.rank() - from.rank();
  for (int64_t i = 0; i < from.rank(); ++i) {
    if (from.dim(i) != 1 && from.dim(i) != to.dim(offset + i)) return false;
  }
  return true;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  ODF_CHECK(IsBroadcastableTo(target, t.shape()))
      << t.shape().ToString() << " cannot reduce to " << target.ToString();
  Tensor cur = t;
  // First sum away leading extra dimensions.
  while (cur.rank() > target.rank()) cur = Sum(cur, 0, /*keepdim=*/false);
  // Then sum (keepdim) any axis where the target is 1 but cur is larger.
  for (int64_t i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && cur.dim(i) != 1) {
      cur = Sum(cur, i, /*keepdim=*/true);
    }
  }
  ODF_CHECK(cur.shape() == target);
  return cur;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b,
                         [](float x, float y) { return x > y ? x : y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

template <typename T>
void SigmoidRaw(const T* a, T* out, int64_t n) {
  UnaryRaw(a, out, n, [](T x) { return FastSigmoid(x); });
}
template <typename T>
void TanhRaw(const T* a, T* out, int64_t n) {
  UnaryRaw(a, out, n, [](T x) { return FastTanh(x); });
}
template <typename T>
void ReluRaw(const T* a, T* out, int64_t n) {
  UnaryRaw(a, out, n, [](T x) { return x > 0 ? x : T(0); });
}

template void SigmoidRaw(const float*, float*, int64_t);
template void SigmoidRaw(const double*, double*, int64_t);
template void TanhRaw(const float*, float*, int64_t);
template void TanhRaw(const double*, double*, int64_t);
template void ReluRaw(const float*, float*, int64_t);
template void ReluRaw(const double*, double*, int64_t);

Tensor Neg(const Tensor& a) {
  return Unary(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return FastExp(x); });
}
Tensor Log(const Tensor& a) {
  return Unary(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return Unary(a, [](float x) { return std::sqrt(x); });
}
Tensor Tanh(const Tensor& a) {
  Tensor out(a.shape());
  TanhRaw(a.data(), out.data(), a.numel());
  return out;
}
Tensor Sigmoid(const Tensor& a) {
  Tensor out(a.shape());
  SigmoidRaw(a.data(), out.data(), a.numel());
  return out;
}
Tensor Relu(const Tensor& a) {
  Tensor out(a.shape());
  ReluRaw(a.data(), out.data(), a.numel());
  return out;
}
Tensor Abs(const Tensor& a) {
  return Unary(a, [](float x) { return std::fabs(x); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  return Unary(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}
Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  return Unary(a, fn);
}

template <typename T>
void MatMulRaw(const T* a, const T* b, T* out, int64_t m, int64_t k,
               int64_t n) {
  ODF_TRACE_SCOPE("kernel/", "gemm", "kernel");
  static Histogram& gemm_hist =
      MetricsRegistry::Global().GetHistogram("gemm.seconds");
  ScopedTimer timer(gemm_hist);
  if (MetricsEnabled()) {
    static Counter& calls = MetricsRegistry::Global().GetCounter("gemm.calls");
    calls.Add(1);
  }
  // Gemm accumulates into its output, matching a fresh zero-filled Tensor.
  std::fill(out, out + m * n, T(0));
  Gemm(a, b, out, m, k, n);
}

template void MatMulRaw(const float*, const float*, float*, int64_t, int64_t,
                        int64_t);
template void MatMulRaw(const double*, const double*, double*, int64_t,
                        int64_t, int64_t);

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ODF_CHECK_EQ(a.rank(), 2);
  ODF_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  ODF_CHECK_EQ(k, b.dim(0)) << "matmul " << a.shape().ToString() << " x "
                            << b.shape().ToString();
  Tensor out(Shape({m, n}));
  MatMulRaw(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

template <typename T>
void BatchMatMulRaw(const T* pa, int64_t a_step, const T* pb, int64_t b_step,
                    T* po, int64_t batch, int64_t m, int64_t k, int64_t n) {
  ODF_TRACE_SCOPE("kernel/", "batch_gemm", "kernel");
  static Histogram& bgemm_hist =
      MetricsRegistry::Global().GetHistogram("batch_gemm.seconds");
  ScopedTimer timer(bgemm_hist);
  if (MetricsEnabled()) {
    static Counter& calls =
        MetricsRegistry::Global().GetCounter("batch_gemm.calls");
    calls.Add(1);
  }
  // The per-batch Gemm calls accumulate; start from the zero a fresh Tensor
  // would hold.
  std::fill(po, po + batch * m * n, T(0));

  const int64_t per_batch_flops = m * k * n;
  if (batch * per_batch_flops <= kGemmNaiveFlops) {
    for (int64_t bi = 0; bi < batch; ++bi) {
      GemmNaive(pa + bi * a_step, pb + bi * b_step, po + bi * m * n, m, k, n);
    }
    return;
  }
  if (UseNaiveGemm(m, k, n)) {
    // Many small matrices: parallelize over whole batch elements.
    const int64_t grain = std::max<int64_t>(
        1, kGemmNaiveFlops / std::max<int64_t>(1, per_batch_flops));
    ParallelFor(batch, grain, [&](int64_t b0, int64_t b1) {
      for (int64_t bi = b0; bi < b1; ++bi) {
        GemmNaive(pa + bi * a_step, pb + bi * b_step, po + bi * m * n, m, k,
                  n);
      }
    });
    return;
  }
  if (b_step == 0) {
    // One shared right operand (broadcast): pack it once and parallelize
    // over batch x row-block tasks.
    std::vector<T> bpack(static_cast<size_t>(NumJTiles(n) * k * kNR));
    const int64_t pack_grain =
        std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, k * kNR));
    ParallelFor(NumJTiles(n), pack_grain, [&](int64_t t0, int64_t t1) {
      for (int64_t jt = t0; jt < t1; ++jt) {
        PackBTile(pb, k, n, jt, bpack.data());
      }
    });
    const int64_t num_blocks = (m + kMC - 1) / kMC;
    const int64_t flops_per_task = std::min(kMC, m) * k * n;
    const int64_t grain = std::max<int64_t>(
        1, kGemmNaiveFlops / std::max<int64_t>(1, flops_per_task));
    ParallelFor(batch * num_blocks, grain, [&](int64_t t0, int64_t t1) {
      std::vector<T> apack(static_cast<size_t>(kMC * kKC));
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t bi = t / num_blocks;
        const int64_t blk = t % num_blocks;
        const int64_t i0 = blk * kMC;
        GemmRows(pa + bi * a_step, bpack.data(), po + bi * m * n, k, n, i0,
                 std::min(m, i0 + kMC), apack.data());
      }
    });
    return;
  }
  // Large per-batch matrices, distinct B per batch: parallelize over the
  // batch; each task runs the full blocked pipeline (its nested ParallelFor
  // calls serialize inside pool workers).
  ParallelFor(batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      Gemm(pa + bi * a_step, pb + bi * b_step, po + bi * m * n, m, k, n);
    }
  });
}

template void BatchMatMulRaw(const float*, int64_t, const float*, int64_t,
                             float*, int64_t, int64_t, int64_t, int64_t);
template void BatchMatMulRaw(const double*, int64_t, const double*, int64_t,
                             double*, int64_t, int64_t, int64_t, int64_t);

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  if (a.rank() == 2 && b.rank() == 2) return MatMul(a, b);
  ODF_CHECK(a.rank() == 2 || a.rank() == 3);
  ODF_CHECK(b.rank() == 2 || b.rank() == 3);
  const int64_t batch = a.rank() == 3 ? a.dim(0) : b.dim(0);
  if (a.rank() == 3 && b.rank() == 3) {
    ODF_CHECK_EQ(a.dim(0), b.dim(0));
  }
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  ODF_CHECK_EQ(k, b.dim(-2)) << "bmm " << a.shape().ToString() << " x "
                             << b.shape().ToString();
  Tensor out(Shape({batch, m, n}));
  BatchMatMulRaw(a.data(), a.rank() == 3 ? m * k : 0, b.data(),
                 b.rank() == 3 ? k * n : 0, out.data(), batch, m, k, n);
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  ODF_CHECK_EQ(a.rank(), 2);
  return Permute(a, {1, 0});
}

Tensor TransposeLast2(const Tensor& a) {
  ODF_CHECK_GE(a.rank(), 2);
  std::vector<int64_t> perm(static_cast<size_t>(a.rank()));
  for (int64_t i = 0; i < a.rank(); ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[static_cast<size_t>(a.rank() - 1)],
            perm[static_cast<size_t>(a.rank() - 2)]);
  return Permute(a, perm);
}

template <typename S, typename D>
void PermuteRaw(const S* pa, const Shape& shape,
                const std::vector<int64_t>& perm, D* po) {
  const int64_t rank = shape.rank();
  const int64_t numel = shape.numel();
  if (numel == 0) return;
  std::vector<int64_t> new_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) new_dims[i] = shape.dim(perm[i]);

  // Axes the permutation leaves in place at the tail are contiguous with
  // stride 1 in both layouts: move them as one chunk.
  int64_t chunk_rank = rank;
  int64_t chunk = 1;
  while (chunk_rank > 0 &&
         perm[static_cast<size_t>(chunk_rank - 1)] == chunk_rank - 1) {
    --chunk_rank;
    chunk *= new_dims[static_cast<size_t>(chunk_rank)];
  }
  if (chunk_rank == 0) {  // identity: one straight copy
    ParallelFor(numel, kElemGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) po[i] = static_cast<D>(pa[i]);
    });
    return;
  }

  // Only the last two axes swap: cache-blocked 2-D transposes of each
  // contiguous slice, one task per (slice, 32-row band); each task writes a
  // disjoint column band of its output slice.
  bool last2_swap = rank >= 2 &&
                    perm[static_cast<size_t>(rank - 2)] == rank - 1 &&
                    perm[static_cast<size_t>(rank - 1)] == rank - 2;
  for (int64_t d = 0; d < rank - 2 && last2_swap; ++d) {
    last2_swap = perm[static_cast<size_t>(d)] == d;
  }
  if (last2_swap) {
    const int64_t rows = shape.dim(rank - 2);
    const int64_t cols = shape.dim(rank - 1);
    const int64_t slice = rows * cols;
    constexpr int64_t kTile = 32;
    const int64_t bands = (rows + kTile - 1) / kTile;
    const int64_t grain = std::max<int64_t>(1, kElemGrain / (kTile * cols));
    ParallelFor(numel / slice * bands, grain, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const S* src = pa + t / bands * slice;
        D* dst = po + t / bands * slice;
        const int64_t i0 = t % bands * kTile;
        const int64_t i1 = std::min(rows, i0 + kTile);
        for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
          const int64_t j1 = std::min(cols, j0 + kTile);
          for (int64_t i = i0; i < i1; ++i) {
            for (int64_t j = j0; j < j1; ++j) {
              dst[j * rows + i] = static_cast<D>(src[i * cols + j]);
            }
          }
        }
      }
    });
    return;
  }

  // General case: an odometer over the leading `chunk_rank` output axes,
  // copying one trailing chunk per step.
  const auto in_strides = shape.Strides();
  std::vector<int64_t> src_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    src_strides[i] = in_strides[static_cast<size_t>(perm[i])];
  }
  const int64_t grain = std::max<int64_t>(1, kElemGrain / chunk);
  ParallelFor(numel / chunk, grain, [&](int64_t c0, int64_t c1) {
    // Seed the odometer and source offset from the first chunk index.
    std::vector<int64_t> index(static_cast<size_t>(chunk_rank), 0);
    int64_t si = 0;
    int64_t rem = c0;
    for (int64_t d = chunk_rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      index[du] = rem % new_dims[du];
      rem /= new_dims[du];
      si += index[du] * src_strides[du];
    }
    for (int64_t c = c0; c < c1; ++c) {
      D* dst = po + c * chunk;
      for (int64_t j = 0; j < chunk; ++j) dst[j] = static_cast<D>(pa[si + j]);
      for (int64_t d = chunk_rank - 1; d >= 0; --d) {
        const size_t du = static_cast<size_t>(d);
        ++index[du];
        si += src_strides[du];
        if (index[du] < new_dims[du]) break;
        si -= src_strides[du] * new_dims[du];
        index[du] = 0;
      }
    }
  });
}

template void PermuteRaw(const float*, const Shape&,
                         const std::vector<int64_t>&, float*);
template void PermuteRaw(const double*, const Shape&,
                         const std::vector<int64_t>&, double*);
template void PermuteRaw(const float*, const Shape&,
                         const std::vector<int64_t>&, double*);

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  ODF_CHECK_EQ(static_cast<int64_t>(perm.size()), a.rank());
  std::vector<int64_t> new_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) new_dims[i] = a.dim(perm[i]);
  Tensor out{Shape(new_dims)};
  PermuteRaw(a.data(), a.shape(), perm, out.data());
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  ODF_CHECK(!parts.empty());
  const Tensor& first = parts.front();
  if (axis < 0) axis += first.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, first.rank());
  int64_t concat_dim = 0;
  std::vector<const Tensor*> ptrs(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    ODF_CHECK_EQ(parts[p].rank(), first.rank());
    for (int64_t d = 0; d < first.rank(); ++d) {
      if (d != axis) {
        ODF_CHECK_EQ(parts[p].dim(d), first.dim(d));
      }
    }
    ptrs[p] = &parts[p];
    concat_dim += parts[p].dim(axis);
  }
  std::vector<int64_t> dims = first.shape().dims();
  dims[static_cast<size_t>(axis)] = concat_dim;
  Tensor out{Shape(dims)};
  ConcatRaw(
      ptrs.data(), ptrs.size(), axis,
      [&](size_t p) { return parts[p].data(); }, out.data());
  return out;
}

template <typename T>
void SliceRaw(const T* pa, const Shape& shape, int64_t axis, int64_t start,
              int64_t len, T* po) {
  if (axis < 0) axis += shape.rank();
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < shape.rank(); ++d) inner *= shape.dim(d);
  const int64_t src_row = shape.dim(axis) * inner;
  const int64_t dst_row = len * inner;
  for (int64_t o = 0; o < outer; ++o) {
    const T* src = pa + o * src_row + start * inner;
    std::copy(src, src + dst_row, po + o * dst_row);
  }
}

template void SliceRaw(const float*, const Shape&, int64_t, int64_t, int64_t,
                       float*);
template void SliceRaw(const double*, const Shape&, int64_t, int64_t, int64_t,
                       double*);

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += a.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, a.rank());
  ODF_CHECK_GE(start, 0);
  ODF_CHECK_GE(len, 0);
  ODF_CHECK_LE(start + len, a.dim(axis));
  std::vector<int64_t> dims = a.shape().dims();
  dims[static_cast<size_t>(axis)] = len;
  Tensor out{Shape(dims)};
  SliceRaw(a.data(), a.shape(), axis, start, len, out.data());
  return out;
}

Tensor SumAll(const Tensor& a) {
  // Serial on purpose: a single double accumulator keeps the reduction
  // order (and therefore the rounding) fixed for every thread count.
  double total = 0;
  for (int64_t i = 0; i < a.numel(); ++i) total += a[i];
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(SumAll(a).Item() / static_cast<float>(a.numel()));
}

template <typename T>
void SumRaw(const T* pa, const Shape& shape, int64_t axis, T* po) {
  if (axis < 0) axis += shape.rank();
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape.dim(d);
  const int64_t mid = shape.dim(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < shape.rank(); ++d) inner *= shape.dim(d);
  // The loops below accumulate; start from a fresh Tensor's zeros.
  std::fill(po, po + outer * inner, T(0));
  if (outer > 1) {
    // Each outer slice owns a disjoint output range.
    const int64_t grain =
        std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, mid * inner));
    ParallelFor(outer, grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        for (int64_t m = 0; m < mid; ++m) {
          const T* src = pa + (o * mid + m) * inner;
          T* dst = po + o * inner;
          for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
        }
      }
    });
  } else {
    // Single outer slice: split the contiguous inner range instead; each
    // chunk still accumulates over `mid` in ascending order.
    ParallelFor(inner, kElemGrain / std::max<int64_t>(1, mid),
                [&](int64_t i0, int64_t i1) {
                  for (int64_t m = 0; m < mid; ++m) {
                    const T* src = pa + m * inner;
                    for (int64_t i = i0; i < i1; ++i) po[i] += src[i];
                  }
                });
  }
}

template void SumRaw(const float*, const Shape&, int64_t, float*);
template void SumRaw(const double*, const Shape&, int64_t, double*);

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, a.rank());
  std::vector<int64_t> dims = a.shape().dims();
  if (keepdim) {
    dims[static_cast<size_t>(axis)] = 1;
  } else {
    dims.erase(dims.begin() + axis);
    if (dims.empty()) dims.push_back(1);
  }
  Tensor out{Shape(dims)};
  SumRaw(a.data(), a.shape(), axis, out.data());
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdim) {
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  const float denom = static_cast<float>(a.dim(resolved));
  return MulScalar(Sum(a, axis, keepdim), 1.0f / denom);
}

float MaxValue(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, a[i]);
  return best;
}

float MinValue(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::min(best, a[i]);
  return best;
}

template <typename T>
void SoftmaxRowsRaw(const T* in, T* out, int64_t outer, int64_t inner) {
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, inner));
  ParallelFor(outer, grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      const T* src = in + o * inner;
      T* dst = out + o * inner;
      T max_v = src[0];
      for (int64_t i = 1; i < inner; ++i) max_v = std::max(max_v, src[i]);
      T total = 0;
      for (int64_t i = 0; i < inner; ++i) {
        dst[i] = FastExp(src[i] - max_v);
        total += dst[i];
      }
      const T inv = T(1) / total;
      for (int64_t i = 0; i < inner; ++i) dst[i] *= inv;
    }
  });
}

template void SoftmaxRowsRaw(const float*, float*, int64_t, int64_t);
template void SoftmaxRowsRaw(const double*, double*, int64_t, int64_t);

Tensor SoftmaxLastDim(const Tensor& a) {
  ODF_CHECK_GE(a.rank(), 1);
  const int64_t inner = a.dim(-1);
  ODF_CHECK_GT(inner, 0);
  Tensor out(a.shape());
  SoftmaxRowsRaw(a.data(), out.data(), a.numel() / inner, inner);
  return out;
}

float SquaredNorm(const Tensor& a) {
  // Serial for the same determinism reason as SumAll.
  double total = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(total);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol) return false;
  }
  return true;
}

namespace {

// Per-thread scratch for FusedRecoverRaw's flattened exp pass.
template <typename T>
T* RecoverMaxScratch(int64_t len) {
  thread_local std::vector<T> buf;
  if (static_cast<int64_t>(buf.size()) < len) {
    buf.resize(static_cast<size_t>(len));
  }
  return buf.data();
}

}  // namespace

template <typename T>
void FusedRecoverRaw(const T* r, const T* c, T temperature, T* out,
                     int64_t b, int64_t n, int64_t m, int64_t beta,
                     int64_t k) {
  // Histogram depth k is small (single digits in the paper's setups), so
  // per-cell k-loops are too short for the vectorizer. Instead, each
  // (batch, origin) row owns an m·k contiguous slice of both `out` and the
  // destination factor `c`, so every pass below runs flat over that slice:
  // pass 1 tiles the k-vector r[b,o,bb,:] across the row and accumulates
  // with one contiguous FMA loop per beta term, pass 3 is one flat exp,
  // and pass 4 batches the per-cell reciprocals into a single vectorizable
  // divide loop. Every per-element operation (ascending-beta accumulate,
  // temperature scale, max-subtract, FastExp, ascending-k total, inverse
  // scale) keeps the same operands in the same order as the per-cell form,
  // so results are bit-identical to the unfused reference.
  const int64_t rows = b * n;
  const int64_t row_len = m * k;
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, row_len * beta));
  ParallelFor(rows, grain, [&](int64_t r0, int64_t r1) {
    // Scratch: [0, row_len) tiled r-vector, [row_len, 2·row_len) per-element
    // subtrahend / inverse, [2·row_len, 2·row_len + m) per-cell totals.
    T* scratch = RecoverMaxScratch<T>(2 * row_len + m);
    T* tile = scratch;
    T* sub = scratch + row_len;
    T* tot = scratch + 2 * row_len;
    for (int64_t row = r0; row < r1; ++row) {
      const int64_t bi = row / n;
      T* dst = out + row * row_len;
      // Pass 1: scores = temperature * sum_beta r[b,o,bb,:] ⊙ c[b,bb,d,:].
      for (int64_t j = 0; j < row_len; ++j) dst[j] = T(0);
      for (int64_t bb = 0; bb < beta; ++bb) {
        const T* rv = r + (row * beta + bb) * k;
        for (int64_t d = 0; d < m; ++d) {
          std::memcpy(tile + d * k, rv, static_cast<size_t>(k) * sizeof(T));
        }
        const T* cv = c + (bi * beta + bb) * row_len;
        for (int64_t j = 0; j < row_len; ++j) dst[j] += tile[j] * cv[j];
      }
      for (int64_t j = 0; j < row_len; ++j) dst[j] *= temperature;
      // Pass 2: per-cell max, broadcast into the flat subtrahend array.
      for (int64_t cell = 0; cell < m; ++cell) {
        const T* sc = dst + cell * k;
        T max_v = sc[0];
        for (int64_t kk = 1; kk < k; ++kk) max_v = std::max(max_v, sc[kk]);
        T* s = sub + cell * k;
        for (int64_t kk = 0; kk < k; ++kk) s[kk] = max_v;
      }
      // Pass 3: the flat vectorizable exp.
      for (int64_t j = 0; j < row_len; ++j) {
        dst[j] = FastExp(dst[j] - sub[j]);
      }
      // Pass 4: ascending-k totals, one batched divide loop (IEEE division
      // is exact per lane, so batching it does not change any bit), then a
      // flat scale against the tiled inverses.
      for (int64_t cell = 0; cell < m; ++cell) {
        const T* sc = dst + cell * k;
        T total = 0;
        for (int64_t kk = 0; kk < k; ++kk) total += sc[kk];
        tot[cell] = total;
      }
      for (int64_t cell = 0; cell < m; ++cell) tot[cell] = T(1) / tot[cell];
      for (int64_t cell = 0; cell < m; ++cell) {
        T* s = sub + cell * k;
        for (int64_t kk = 0; kk < k; ++kk) s[kk] = tot[cell];
      }
      for (int64_t j = 0; j < row_len; ++j) dst[j] *= sub[j];
    }
  });
}

template void FusedRecoverRaw(const float*, const float*, float, float*,
                              int64_t, int64_t, int64_t, int64_t, int64_t);
template void FusedRecoverRaw(const double*, const double*, double, double*,
                              int64_t, int64_t, int64_t, int64_t, int64_t);

Tensor FusedRecover(const Tensor& r, const Tensor& c, float temperature) {
  ODF_TRACE_SCOPE("kernel/", "fused_recover", "kernel");
  static Histogram& hist =
      MetricsRegistry::Global().GetHistogram("fused_recover.seconds");
  ScopedTimer timer(hist);
  if (MetricsEnabled()) {
    static Counter& calls =
        MetricsRegistry::Global().GetCounter("fused_recover.calls");
    calls.Add(1);
  }
  ODF_CHECK_EQ(r.rank(), 4);
  ODF_CHECK_EQ(c.rank(), 4);
  const int64_t b = r.dim(0);
  const int64_t n = r.dim(1);
  const int64_t beta = r.dim(2);
  const int64_t k = r.dim(3);
  ODF_CHECK_EQ(c.dim(0), b);
  ODF_CHECK_EQ(c.dim(1), beta);
  const int64_t m = c.dim(2);
  ODF_CHECK_EQ(c.dim(3), k);
  ODF_CHECK_GT(k, 0);
  Tensor out(Shape({b, n, m, k}));
  FusedRecoverRaw(r.data(), c.data(), temperature, out.data(), b, n, m, beta,
                  k);
  return out;
}

float FusedRecoverGrad(const Tensor& r, const Tensor& c, float temperature,
                       const Tensor& y, const Tensor& g, Tensor* dr,
                       Tensor* dc) {
  ODF_TRACE_SCOPE("kernel/", "fused_recover_grad", "kernel");
  const int64_t b = r.dim(0);
  const int64_t n = r.dim(1);
  const int64_t beta = r.dim(2);
  const int64_t k = r.dim(3);
  const int64_t m = c.dim(2);
  ODF_CHECK(y.shape() == Shape({b, n, m, k}));
  ODF_CHECK(g.shape() == y.shape());
  ODF_CHECK(dr->shape() == r.shape());
  ODF_CHECK(dc->shape() == c.shape());
  const float* pr = r.data();
  const float* pc = c.data();
  const float* py = y.data();
  const float* pg = g.data();

  // ds = y * (g - sum_k g*y): the softmax adjoint per (b,o,d) cell, i.e. the
  // gradient with respect to the pre-softmax scores.
  Tensor s(y.shape());
  float* ps = s.data();
  const int64_t cells = b * n * m;
  ParallelFor(cells, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, k)),
              [&](int64_t c0, int64_t c1) {
                for (int64_t cell = c0; cell < c1; ++cell) {
                  const float* yrow = py + cell * k;
                  const float* grow = pg + cell * k;
                  float* srow = ps + cell * k;
                  float dot = 0;
                  for (int64_t kk = 0; kk < k; ++kk) dot += grow[kk] * yrow[kk];
                  for (int64_t kk = 0; kk < k; ++kk) {
                    srow[kk] = yrow[kk] * (grow[kk] - dot);
                  }
                }
              });

  // dr[b,o,beta,k] = temperature * sum_d s[b,o,d,k] * c[b,beta,d,k]; rows
  // (b,o) own disjoint output blocks.
  float* pdr = dr->data();
  ParallelFor(b * n,
              std::max<int64_t>(1, kElemGrain /
                                       std::max<int64_t>(1, beta * m * k)),
              [&](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                  const int64_t bi = t / n;
                  const float* srow = ps + t * m * k;
                  float* drow = pdr + t * beta * k;
                  for (int64_t bb = 0; bb < beta; ++bb) {
                    const float* cbase = pc + (bi * beta + bb) * m * k;
                    for (int64_t kk = 0; kk < k; ++kk) {
                      float acc = 0;
                      for (int64_t d = 0; d < m; ++d) {
                        acc += srow[d * k + kk] * cbase[d * k + kk];
                      }
                      drow[bb * k + kk] = temperature * acc;
                    }
                  }
                }
              });

  // dc[b,beta,d,k] = temperature * sum_o s[b,o,d,k] * r[b,o,beta,k];
  // (b,d) pairs own disjoint columns of dc.
  float* pdc = dc->data();
  ParallelFor(b * m,
              std::max<int64_t>(1, kElemGrain /
                                       std::max<int64_t>(1, beta * n * k)),
              [&](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                  const int64_t bi = t / m;
                  const int64_t d = t % m;
                  for (int64_t bb = 0; bb < beta; ++bb) {
                    float* drow = pdc + ((bi * beta + bb) * m + d) * k;
                    for (int64_t kk = 0; kk < k; ++kk) {
                      float acc = 0;
                      for (int64_t o = 0; o < n; ++o) {
                        acc += ps[((bi * n + o) * m + d) * k + kk] *
                               pr[((bi * n + o) * beta + bb) * k + kk];
                      }
                      drow[kk] = temperature * acc;
                    }
                  }
                }
              });

  // dtau = sum over cells of (pre-temperature scores) . ds; serial double
  // accumulation keeps the reduction order fixed (same rationale as SumAll).
  double dtau = 0;
  for (int64_t cell = 0; cell < cells; ++cell) {
    const int64_t bi = cell / (n * m);
    const int64_t o = (cell / m) % n;
    const int64_t d = cell % m;
    const float* rrow = pr + (bi * n + o) * beta * k;
    const float* crow = pc + (bi * beta * m + d) * k;
    const float* srow = ps + cell * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      float q = 0;
      for (int64_t bb = 0; bb < beta; ++bb) {
        q += rrow[bb * k + kk] * crow[bb * m * k + kk];
      }
      dtau += static_cast<double>(q) * srow[kk];
    }
  }
  return static_cast<float>(dtau);
}

}  // namespace odf
