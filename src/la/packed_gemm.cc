#include "src/la/packed_gemm.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/pool.h"
#include "src/la/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAC_PACKED_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace sac::la {

namespace {

// Register microkernel footprint. 6x8 keeps the 48 accumulators (12 ymm)
// plus two B vectors and one A broadcast inside AVX2's 16-register file
// with one to spare; 8x6 needs 24 xmm under baseline SSE2 and spills.
// 6x8 measured faster than both on the shapes the tiled planner produces.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 8;

// Packing is only worth it once the O(m*l + l*n) copy cost is amortized
// over O(m*l*n) flops: the measured packed vs unpacked crossover sits
// between 64 and 128, so 64x64 tiles (the default planner block) always
// take the unpacked loop.
constexpr int64_t kPackedMinDim = 128;

/// Pool for pack buffers: steady-state iterative workloads (fig4c) run
/// the same GEMM shapes hundreds of times, so panel buffers are recycled
/// instead of reallocated per call. Process-wide on purpose -- the pool
/// is keyed by capacity, not engine.
VectorPool<double>& PackPool() {
  static VectorPool<double>* pool = new VectorPool<double>(32);
  return *pool;
}

/// Packs the A row-panel [i0, i0+mr) x [0, l) into k-major order:
/// apack[k * kMr + r] = a(i0 + r, k), zero-padded to kMr rows.
void PackA(const double* __restrict pa, int64_t l, int64_t i0, int64_t mr,
           double* __restrict apack) {
  for (int64_t k = 0; k < l; ++k) {
    double* __restrict dst = apack + k * kMr;
    for (int64_t r = 0; r < mr; ++r) dst[r] = pa[(i0 + r) * l + k];
    for (int64_t r = mr; r < kMr; ++r) dst[r] = 0.0;
  }
}

/// Packs all of B into kNr-wide column panels, each k-major:
/// bpack[panel * (l * kNr) + k * kNr + c] = b(k, j0 + c), zero-padded to
/// kNr columns per panel.
void PackB(const double* __restrict pb, int64_t l, int64_t n,
           double* __restrict bpack) {
  const int64_t panels = (n + kNr - 1) / kNr;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t j0 = p * kNr;
    const int64_t nr = std::min(kNr, n - j0);
    double* __restrict panel = bpack + p * l * kNr;
    for (int64_t k = 0; k < l; ++k) {
      const double* __restrict src = pb + k * n + j0;
      double* __restrict dst = panel + k * kNr;
      for (int64_t c = 0; c < nr; ++c) dst[c] = src[c];
      for (int64_t c = nr; c < kNr; ++c) dst[c] = 0.0;
    }
  }
}

/// kMr x kNr register microkernel, portable scalar form: acc is loaded
/// from C, then every k term is added in ascending order (no k-blocking),
/// so each element's accumulation chain matches the unpacked i-k-j loop
/// bit for bit. Handles fringe tiles (mr < kMr or nr < kNr) via zeroed
/// pad lanes that are never written back.
void MicroKernelScalar(const double* __restrict apack,
                       const double* __restrict bpack, int64_t l,
                       double* __restrict pc, int64_t ldc, int64_t mr,
                       int64_t nr) {
  double acc[kMr][kNr];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t c = 0; c < nr; ++c) acc[r][c] = pc[r * ldc + c];
  }
  for (int64_t r = mr; r < kMr; ++r) {
    for (int64_t c = 0; c < kNr; ++c) acc[r][c] = 0.0;
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t c = nr; c < kNr; ++c) acc[r][c] = 0.0;
  }
  for (int64_t k = 0; k < l; ++k) {
    const double* __restrict ak = apack + k * kMr;
    const double* __restrict bk = bpack + k * kNr;
    for (int64_t r = 0; r < kMr; ++r) {
      const double arv = ak[r];
      for (int64_t c = 0; c < kNr; ++c) acc[r][c] += arv * bk[c];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t c = 0; c < nr; ++c) pc[r * ldc + c] = acc[r][c];
  }
}

#ifdef SAC_PACKED_X86_DISPATCH

/// Full-tile 6x8 microkernel for AVX2 hosts, compiled per-function via
/// the target attribute so the rest of the binary keeps the baseline ISA.
/// 12 ymm accumulators + 2 B vectors + 1 A broadcast = 15 registers, no
/// spills. Deliberately mul-then-add (never FMA, which target("avx2")
/// cannot emit anyway): each lane performs the same two IEEE roundings as
/// the scalar kernel, in the same ascending-k order, so results stay
/// byte-identical across the dispatch.
__attribute__((target("avx2"))) void MicroKernelAvx2(
    const double* __restrict apack, const double* __restrict bpack,
    int64_t l, double* __restrict pc, int64_t ldc) {
  __m256d acc[kMr][2];
  for (int64_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_loadu_pd(pc + r * ldc);
    acc[r][1] = _mm256_loadu_pd(pc + r * ldc + 4);
  }
  for (int64_t k = 0; k < l; ++k) {
    const double* __restrict ak = apack + k * kMr;
    const double* __restrict bk = bpack + k * kNr;
    const __m256d b0 = _mm256_loadu_pd(bk);
    const __m256d b1 = _mm256_loadu_pd(bk + 4);
    for (int64_t r = 0; r < kMr; ++r) {
      const __m256d av = _mm256_set1_pd(ak[r]);
      acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(av, b0));
      acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(av, b1));
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    _mm256_storeu_pd(pc + r * ldc, acc[r][0]);
    _mm256_storeu_pd(pc + r * ldc + 4, acc[r][1]);
  }
}

bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}

#endif  // SAC_PACKED_X86_DISPATCH

/// Dispatch: full tiles take the widest kernel the host supports, fringe
/// tiles (and non-x86 or pre-AVX2 hosts) take the scalar form. Both sum
/// identically per element, so the split is invisible to results.
inline void MicroKernel(const double* __restrict apack,
                        const double* __restrict bpack, int64_t l,
                        double* __restrict pc, int64_t ldc, int64_t mr,
                        int64_t nr) {
#ifdef SAC_PACKED_X86_DISPATCH
  if (mr == kMr && nr == kNr && HaveAvx2()) {
    MicroKernelAvx2(apack, bpack, l, pc, ldc);
    return;
  }
#endif
  MicroKernelScalar(apack, bpack, l, pc, ldc, mr, nr);
}

}  // namespace

int64_t PackedGemmThreshold() { return kPackedMinDim; }

bool PackedGemmWouldPack(int64_t m, int64_t l, int64_t n) {
  return std::min(m, n) >= kPackedMinDim && l >= kMr;
}

void PackedGemmAccum(const Tile& a, const Tile& b, Tile* out) {
  SAC_CHECK_EQ(a.cols(), b.rows());
  if (out->rows() == 0 && out->cols() == 0) *out = Tile(a.rows(), b.cols());
  SAC_CHECK_EQ(out->rows(), a.rows());
  SAC_CHECK_EQ(out->cols(), b.cols());
  const int64_t m = a.rows(), l = a.cols(), n = b.cols();
  if (!PackedGemmWouldPack(m, l, n)) {
    GemmAccum(a, b, out);
    return;
  }
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = out->data();

  const int64_t b_panels = (n + kNr - 1) / kNr;
  PooledVec<double> bbuf = AcquirePooled(&PackPool());
  bbuf->resize(static_cast<size_t>(b_panels * l * kNr));
  PackB(pb, l, n, bbuf->data());

  PooledVec<double> abuf = AcquirePooled(&PackPool());
  abuf->resize(static_cast<size_t>(l * kMr));

  // One C row-strip at a time: pack the A panel once, then sweep every B
  // panel over it (B is already fully packed and stays cache-warm
  // panel-by-panel).
  for (int64_t i0 = 0; i0 < m; i0 += kMr) {
    const int64_t mr = std::min(kMr, m - i0);
    PackA(pa, l, i0, mr, abuf->data());
    for (int64_t p = 0; p < b_panels; ++p) {
      const int64_t j0 = p * kNr;
      const int64_t nr = std::min(kNr, n - j0);
      MicroKernel(abuf->data(), bbuf->data() + p * l * kNr, l,
                  pc + i0 * n + j0, n, mr, nr);
    }
  }
}

}  // namespace sac::la
