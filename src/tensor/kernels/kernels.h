#ifndef BENCHTEMP_TENSOR_KERNELS_KERNELS_H_
#define BENCHTEMP_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

// Compute-kernel layer of the tensor stack (see DESIGN.md "Kernel layer &
// tensor arena"). Two families:
//
//   - GEMM entry points (Gemm / GemmNT / GemmTN): one register-tiled
//     microkernel written with GCC/clang vector extensions, built at
//     AVX2 width, SSE2 width and as a scalar twin, with the ISA chosen
//     once per process. They parallelize internally over disjoint output
//     row blocks using runtime::ParallelFor with the shared
//     runtime::RowGrain chunk policy.
//   - Chunk-level elementwise/reduction primitives: serial over the span
//     they are given; callers keep their own ParallelFor structure and
//     invoke these on [lo, hi) sub-spans, so the chunking (and therefore
//     the obs ParallelFor counters) is unchanged by the kernel layer.
//
// Every primitive has a vector path and a scalar fallback selected by
// BENCHTEMP_SIMD=0 (these translation units are built with -O3
// -ffp-contract=off). Both paths execute the identical fixed accumulation
// tree — reductions stripe over simd.h's kLanes accumulators combined in
// a fixed pairwise order, GEMM accumulates each output element in
// strictly increasing inner-dimension order — so results are
// bit-identical across BENCHTEMP_SIMD=0/1, across ISA levels and across
// thread counts.
//
// Raw pointers only: this layer is the hot path, and the btlint
// `hot-loop-at` rule rejects bounds-checked `.at(` inside it.

namespace benchtemp::tensor::kernels {

// ---------------------------------------------------------------------------
// GEMM family (row-major, contiguous; output is accumulated into, so
// callers zero-fill for plain assignment). Parallel over output rows.
// ---------------------------------------------------------------------------

/// C[n,m] += A[n,k] * B[k,m].
void Gemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
          int64_t m);

/// dA[n,k] += dC[n,m] * B[k,m]^T — the MatMul backward pass for A. Each
/// dA entry is Dot()'s striped-lane dot of a dC row and a B row.
void GemmNT(const float* dc, const float* b, float* da, int64_t n, int64_t k,
            int64_t m);

/// dB[k,m] += A[n,k]^T * dC[n,m] — the MatMul backward pass for B.
/// Parallel over rows of dB; accumulates over samples i in fixed order.
void GemmTN(const float* a, const float* dc, float* db, int64_t n, int64_t k,
            int64_t m);

/// ISA level of the GEMM microkernel.
enum class GemmPath { kScalar, kSse2, kAvx2, kAuto };

/// Test hook: forces every GEMM entry point onto one ISA level (kAuto
/// restores the default: the scalar twin under BENCHTEMP_SIMD=0, else the
/// widest level the CPU supports). Returns false, changing nothing, when
/// the CPU cannot run the requested level.
bool SetGemmPathForTest(GemmPath path);

// ---------------------------------------------------------------------------
// Chunk-level reductions (fixed kLanes-striped accumulation tree).
// ---------------------------------------------------------------------------

/// Sum of x[0..n).
float ReduceSum(const float* x, int64_t n);

/// Dot product of a[0..n) and b[0..n).
float Dot(const float* a, const float* b, int64_t n);

// ---------------------------------------------------------------------------
// Chunk-level elementwise primitives (y is the destination span).
// ---------------------------------------------------------------------------

void Add(float* y, const float* x, int64_t n);     // y[i] += x[i]
void Sub(float* y, const float* x, int64_t n);     // y[i] -= x[i]
void Mul(float* y, const float* x, int64_t n);     // y[i] *= x[i]
void MulAdd(float* y, const float* a, const float* b, int64_t n);  // y+=a*b
void Axpy(float* y, float s, const float* x, int64_t n);  // y[i] += s*x[i]
void Scale(float* y, float s, int64_t n);          // y[i] *= s
void AddScalar(float* y, float s, int64_t n);      // y[i] += s
void Set(float* y, const float* x, int64_t n);     // y[i] = x[i]
void FillOut(float* y, float v, int64_t n);        // y[i] = v

// Out-of-place forms (y never aliases the inputs).
void AddOut(float* y, const float* a, const float* b, int64_t n);  // y=a+b
void SubOut(float* y, const float* a, const float* b, int64_t n);  // y=a-b
void MulOut(float* y, const float* a, const float* b, int64_t n);  // y=a*b
void ScaleOut(float* y, float s, const float* x, int64_t n);       // y=s*x
void AddScalarOut(float* y, float s, const float* x, int64_t n);   // y=x+s

/// y[i] = sigmoid(x[i]) (numerically stable two-branch form).
void SigmoidForward(const float* x, float* y, int64_t n);
/// gx[i] += gy[i] * y[i] * (1 - y[i]) where y is the forward output.
void SigmoidBackward(float* gx, const float* gy, const float* y, int64_t n);

// ---------------------------------------------------------------------------
// Row/loss kernels.
// ---------------------------------------------------------------------------

/// Row softmax with optional mask (mask == nullptr means unmasked): masked
/// entries get probability zero; an all-masked row is all zeros. The exp
/// normalizer is a ReduceSum over the exponentiated row, so the reduction
/// tree is fixed.
void SoftmaxRow(const float* in, const float* mask, int64_t d, float* out);

/// Mean binary cross entropy with logits over n entries (striped-lane
/// accumulation of the stable softplus terms).
float BceForwardMean(const float* logits, const float* targets, int64_t n);

/// g[i] += seed * (sigmoid(logits[i]) - targets[i]).
void BceBackward(float* g, const float* logits, const float* targets,
                 float seed, int64_t n);

// ---------------------------------------------------------------------------
// Observability.
// ---------------------------------------------------------------------------

/// Adds to the obs kernels.flops counter (no-op when metrics are off).
/// GEMM entry points call this themselves; op-level callers account for
/// their elementwise/reduction work with one call per op.
void CountFlops(int64_t flops);

}  // namespace benchtemp::tensor::kernels

#endif  // BENCHTEMP_TENSOR_KERNELS_KERNELS_H_
