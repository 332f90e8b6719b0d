#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/simd.h"

namespace benchtemp::tensor::kernels {

namespace {

// GEMM microkernel (see DESIGN.md "Kernel layer & tensor arena"). One
// template body, written with GCC/clang vector extensions, is instantiated
// at three lane types: 8-float vectors under target("avx2"), 4-float
// vectors for the SSE2 baseline, and plain float for the BENCHTEMP_SIMD=0
// scalar twin. Every lane performs the same IEEE mul and add, in the same
// order, as the scalar reference (this TU is built with -ffp-contract=off,
// so no FMA contraction), so all three are bit-identical.
//
// Vectors never cross a function boundary by value (helpers take
// references and are always inlined into the ISA entry points), so the
// 32-byte type causes no ABI (-Wpsabi) concerns outside the avx2 target.

typedef float F32x8 __attribute__((vector_size(32)));
typedef float F32x4 __attribute__((vector_size(16)));

#define BENCHTEMP_TILE_INLINE inline __attribute__((always_inline))

template <class V>
inline constexpr int64_t kWidth = static_cast<int64_t>(sizeof(V) / 4);

/// Register-tile height: rows of C held in registers together, so one
/// loaded B row is reused kMr times.
constexpr int kMr = 4;

/// Widest tile: vectors per tile row (3 x 8 lanes covers the models'
/// hidden width of 24 in one panel).
constexpr int kMaxNv = 3;

/// Depth cache block: one block of B rows (256 x 24 floats = 24 KB at the
/// models' width) stays in L1 while every row tile of the chunk consumes
/// it. At the models' projection depths (k <= 194) Gemm is one block, so
/// its tile stays in registers over all of k; GemmTN's depth is the batch.
constexpr int64_t kKc = 256;

/// Unaligned vector load and store. The copy goes through a local so the
/// accumulator arrays the callers pass in stay in registers.
template <class V>
BENCHTEMP_TILE_INLINE void LoadTo(V& v, const float* p) {
  V t;
  std::memcpy(&t, p, sizeof(V));
  v = t;
}

template <class V>
BENCHTEMP_TILE_INLINE void StoreFrom(float* p, const V& v) {
  const V t = v;
  std::memcpy(p, &t, sizeof(V));
}

/// One R x (NV vectors) tile of C, held in registers over all of the
/// depth loop: c(r, :) += a(r, p) * b(p, :) for p = 0, 1, ..., depth - 1.
/// a(r, p) is a[r * ars + p * aps], B row p is b + p * m, C row r is
/// c + r * m. Each C element accumulates in strictly increasing p order.
template <class V, int R, int NV>
BENCHTEMP_TILE_INLINE void Tile(const float* a, int64_t ars, int64_t aps,
                                const float* b, float* c, int64_t depth,
                                int64_t m) {
  constexpr int64_t w = kWidth<V>;
  V acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) LoadTo(acc[r][v], c + r * m + v * w);
  }
  for (int64_t p = 0; p < depth; ++p) {
    const float* brow = b + p * m;
    V bv[NV];
    for (int v = 0; v < NV; ++v) LoadTo(bv[v], brow + v * w);
    for (int r = 0; r < R; ++r) {
      const float av = a[r * ars + p * aps];
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) StoreFrom(c + r * m + v * w, acc[r][v]);
  }
}

/// Rows [i0, i1) of one column panel [j, j + NV * width): kMr-row tiles,
/// then single-row tiles for the remainder.
template <class V, int NV>
BENCHTEMP_TILE_INLINE void TilePanel(const float* a, int64_t ars,
                                     int64_t aps, const float* b, float* c,
                                     int64_t i0, int64_t i1, int64_t depth,
                                     int64_t m, int64_t j) {
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    Tile<V, kMr, NV>(a + i * ars, ars, aps, b + j, c + i * m + j, depth, m);
  }
  for (; i < i1; ++i) {
    Tile<V, 1, NV>(a + i * ars, ars, aps, b + j, c + i * m + j, depth, m);
  }
}

/// Covers columns [j, m) with panels of 3, 2, then 1 vector of V while
/// they fit, and returns the first column left for a narrower lane type.
template <class V>
BENCHTEMP_TILE_INLINE int64_t TileColumns(const float* a, int64_t ars,
                                          int64_t aps, const float* b,
                                          float* c, int64_t i0, int64_t i1,
                                          int64_t depth, int64_t m,
                                          int64_t j) {
  constexpr int64_t w = kWidth<V>;
  for (; j + kMaxNv * w <= m; j += kMaxNv * w) {
    TilePanel<V, kMaxNv>(a, ars, aps, b, c, i0, i1, depth, m, j);
  }
  if (j + 2 * w <= m) {
    TilePanel<V, 2>(a, ars, aps, b, c, i0, i1, depth, m, j);
    j += 2 * w;
  }
  if (j + w <= m) {
    TilePanel<V, 1>(a, ars, aps, b, c, i0, i1, depth, m, j);
    j += w;
  }
  return j;
}

/// GemmNT tile: da[l, l + width) += the striped-lane dot of one dC row
/// with B rows l, l + 1, ..., read through the packed transpose
/// bt[j * k + l]. Accumulator s is the scalar dot's lane s (it owns
/// j = s, s + kLanes, ..., then tail element main + s) for every column
/// at once, and the lanes combine in the scalar dot's pairwise order.
template <class V>
BENCHTEMP_TILE_INLINE void NtTile(const float* dcrow, const float* bt,
                                  float* darow, int64_t k, int64_t m) {
  V lanes[kLanes] = {};
  const int64_t main = m / kLanes * kLanes;
  for (int64_t j = 0; j < main; j += kLanes) {
    for (int s = 0; s < kLanes; ++s) {
      V bv;
      LoadTo(bv, bt + (j + s) * k);
      lanes[s] = lanes[s] + dcrow[j + s] * bv;
    }
  }
  if (main < m) {
    for (int s = 0; s < kLanes; ++s) {
      if (main + s < m) {
        V bv;
        LoadTo(bv, bt + (main + s) * k);
        lanes[s] = lanes[s] + dcrow[main + s] * bv;
      }
    }
  }
  const V dot = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  V d;
  LoadTo(d, darow);
  d = d + dot;
  StoreFrom(darow, d);
}

/// Columns [l, k) of one dA row in tiles of V's width; returns the first
/// column left for a narrower lane type.
template <class V>
BENCHTEMP_TILE_INLINE int64_t NtColumns(const float* dcrow, const float* bt,
                                        float* darow, int64_t k, int64_t m,
                                        int64_t l) {
  for (; l + kWidth<V> <= k; l += kWidth<V>) {
    NtTile<V>(dcrow, bt + l, darow + l, k, m);
  }
  return l;
}

/// Rows [i0, i1) of a tile-family product, one kKc depth block at a time
/// (each C element still accumulates in increasing depth order), covering
/// the columns with the widest lane type first and narrower ones after.
template <class... Lanes>
BENCHTEMP_TILE_INLINE void TileChunk(const float* a, int64_t ars,
                                     int64_t aps, const float* b, float* c,
                                     int64_t i0, int64_t i1, int64_t depth,
                                     int64_t m) {
  for (int64_t p0 = 0; p0 < depth; p0 += kKc) {
    const int64_t d = std::min(kKc, depth - p0);
    int64_t j = 0;
    ((j = TileColumns<Lanes>(a + p0 * aps, ars, aps, b + p0 * m, c, i0, i1,
                             d, m, j)),
     ...);
  }
}

/// dA rows [i0, i1), widest lane type first.
template <class... Lanes>
BENCHTEMP_TILE_INLINE void NtChunk(const float* dc, const float* bt,
                                   float* da, int64_t i0, int64_t i1,
                                   int64_t k, int64_t m) {
  for (int64_t i = i0; i < i1; ++i) {
    int64_t l = 0;
    ((l = NtColumns<Lanes>(dc + i * m, bt, da + i * k, k, m, l)), ...);
  }
}

// ISA entry points.

BENCHTEMP_NO_VECTORIZE
void TileChunkScalar(const float* a, int64_t ars, int64_t aps,
                     const float* b, float* c, int64_t i0, int64_t i1,
                     int64_t depth, int64_t m) {
  TileChunk<float>(a, ars, aps, b, c, i0, i1, depth, m);
}

BENCHTEMP_NO_VECTORIZE
void NtChunkScalar(const float* dc, const float* bt, float* da, int64_t i0,
                   int64_t i1, int64_t k, int64_t m) {
  NtChunk<float>(dc, bt, da, i0, i1, k, m);
}

void TileChunkSse2(const float* a, int64_t ars, int64_t aps, const float* b,
                   float* c, int64_t i0, int64_t i1, int64_t depth,
                   int64_t m) {
  TileChunk<F32x4, float>(a, ars, aps, b, c, i0, i1, depth, m);
}

void NtChunkSse2(const float* dc, const float* bt, float* da, int64_t i0,
                 int64_t i1, int64_t k, int64_t m) {
  NtChunk<F32x4, float>(dc, bt, da, i0, i1, k, m);
}

/// The chunk bodies of one ISA level. `tile` serves Gemm (A row-strided)
/// and GemmTN (A column-strided); `nt` serves GemmNT over the packed Bᵀ.
struct GemmImpl {
  void (*tile)(const float* a, int64_t ars, int64_t aps, const float* b,
               float* c, int64_t i0, int64_t i1, int64_t depth, int64_t m);
  void (*nt)(const float* dc, const float* bt, float* da, int64_t i0,
             int64_t i1, int64_t k, int64_t m);
};

constexpr GemmImpl kScalarImpl{TileChunkScalar, NtChunkScalar};
constexpr GemmImpl kSse2Impl{TileChunkSse2, NtChunkSse2};

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void TileChunkAvx2(
    const float* a, int64_t ars, int64_t aps, const float* b, float* c,
    int64_t i0, int64_t i1, int64_t depth, int64_t m) {
  TileChunk<F32x8, F32x4, float>(a, ars, aps, b, c, i0, i1, depth, m);
}

__attribute__((target("avx2"))) void NtChunkAvx2(const float* dc,
                                                 const float* bt, float* da,
                                                 int64_t i0, int64_t i1,
                                                 int64_t k, int64_t m) {
  NtChunk<F32x8, F32x4, float>(dc, bt, da, i0, i1, k, m);
}

constexpr GemmImpl kAvx2Impl{TileChunkAvx2, NtChunkAvx2};

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#else
constexpr GemmImpl kAvx2Impl = kSse2Impl;  // never selected
bool CpuHasAvx2() { return false; }
#endif

/// GemmPath forced by SetGemmPathForTest; kAuto defers to the
/// environment and the CPU.
// btlint: allow(mutable-static) — atomic test hook, relaxed loads only.
std::atomic<int> g_path_override{static_cast<int>(GemmPath::kAuto)};

/// The implementation for this call: a forced test path, else the scalar
/// twin under BENCHTEMP_SIMD=0, else the widest ISA the CPU runs, resolved
/// once per process.
const GemmImpl& ActiveImpl() {
  switch (static_cast<GemmPath>(
      g_path_override.load(std::memory_order_relaxed))) {
    case GemmPath::kScalar:
      return kScalarImpl;
    case GemmPath::kSse2:
      return kSse2Impl;
    case GemmPath::kAvx2:
      return kAvx2Impl;
    case GemmPath::kAuto:
      break;
  }
  if (!SimdEnabled()) return kScalarImpl;
  static const GemmImpl& best = CpuHasAvx2() ? kAvx2Impl : kSse2Impl;
  return best;
}

}  // namespace

bool SetGemmPathForTest(GemmPath path) {
  if (path == GemmPath::kAvx2 && !CpuHasAvx2()) return false;
  g_path_override.store(static_cast<int>(path), std::memory_order_relaxed);
  return true;
}

void CountFlops(int64_t flops) {
  if (obs::MetricRegistry::Enabled()) {
    obs::MetricRegistry::Global().Add(obs::Counter::kKernelFlops, flops);
  }
}

void Gemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
          int64_t m) {
  CountFlops(2 * n * k * m);
  const GemmImpl& impl = ActiveImpl();
  runtime::ParallelFor(0, n, runtime::RowGrain(k * m),
                       [&](int64_t i0, int64_t i1) {
                         impl.tile(a, k, 1, b, c, i0, i1, k, m);
                       });
}

void GemmNT(const float* dc, const float* b, float* da, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  const GemmImpl& impl = ActiveImpl();
  // Bᵀ packed once per call, so each NT tile reads its columns of B as
  // contiguous vectors: bt[j * k + l] = b[l * m + j].
  std::vector<float> pack(static_cast<size_t>(k * m));
  float* bt = pack.data();
  for (int64_t l = 0; l < k; ++l) {
    for (int64_t j = 0; j < m; ++j) bt[j * k + l] = b[l * m + j];
  }
  runtime::ParallelFor(0, n, runtime::RowGrain(k * m),
                       [&](int64_t i0, int64_t i1) {
                         impl.nt(dc, bt, da, i0, i1, k, m);
                       });
}

void GemmTN(const float* a, const float* dc, float* db, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  const GemmImpl& impl = ActiveImpl();
  // dB rows are the tile rows: a(l, i) = a[i * k + l], depth runs over
  // the n samples, and dC plays B's role.
  runtime::ParallelFor(0, k, runtime::RowGrain(n * m),
                       [&](int64_t l0, int64_t l1) {
                         impl.tile(a, 1, k, dc, db, l0, l1, n, m);
                       });
}

}  // namespace benchtemp::tensor::kernels
