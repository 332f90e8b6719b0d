#ifndef BENCHTEMP_TENSOR_KERNELS_SIMD_H_
#define BENCHTEMP_TENSOR_KERNELS_SIMD_H_

namespace benchtemp::tensor::kernels {

// Portable SIMD policy of the kernel layer (see DESIGN.md "Kernel layer &
// tensor arena").
//
// There are no intrinsics anywhere. The elementwise path is plain C++
// whose inner loops are written so the compiler's autovectorizer can prove
// them independent (fixed-width lane arrays, raw restrict-free pointers
// over contiguous rows, no branches in the body). The GEMM microkernel
// (gemm.cc) is written with GCC/clang vector extensions and picks its ISA
// once per process. The scalar fallback — selected with BENCHTEMP_SIMD=0 —
// executes the *same arithmetic in the same order* one element at a time,
// and is annotated to resist vectorization, so the knob isolates the
// vector path's contribution in benchmarks while results stay
// bit-identical.
//
// Determinism across the two paths comes from a fixed accumulation tree:
// every blocked reduction strides the input over kLanes independent
// accumulators (lane l sums x[l], x[l + kLanes], ...) and combines the
// lanes in a fixed pairwise order. Both paths implement exactly that
// tree, so BENCHTEMP_SIMD=0 and =1 produce identical bits; chunk
// boundaries come from runtime::RowGrain, so thread count cannot change
// them either.

/// Lane width of every striped reduction. Eight float32 lanes cover one
/// AVX register (or two SSE registers) without committing to either ISA.
inline constexpr int kLanes = 8;

/// True unless BENCHTEMP_SIMD=0 (cached after the first call).
bool SimdEnabled();

/// Test hook: 1 forces the vector path, 0 the scalar path, -1 restores the
/// environment-derived default.
void SetSimdEnabledForTest(int enabled);

/// Marks a function as "do not autovectorize" on compilers that support it;
/// the scalar fallback uses this so BENCHTEMP_SIMD=0 measures genuinely
/// scalar code instead of whatever the optimizer re-vectorized.
#if defined(__clang__)
#define BENCHTEMP_NO_VECTORIZE
#elif defined(__GNUC__)
#define BENCHTEMP_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define BENCHTEMP_NO_VECTORIZE
#endif

}  // namespace benchtemp::tensor::kernels

#endif  // BENCHTEMP_TENSOR_KERNELS_SIMD_H_
