// The peak-FLOP loop, alone in a TU built for the host ISA with FMA
// contraction on (see CMakeLists.txt). No headers: nothing inline from
// the library or the standard library is compiled with these flags.

#include <cstdint>

namespace benchtemp::perfbench {

namespace {
using Vec = float __attribute__((vector_size(64)));
inline constexpr int kAccumulators = 12;
}  // namespace

/// `iters` rounds of kAccumulators independent acc = acc * x + y vector
/// updates. Stores the flops executed in `*flops` and returns a checksum,
/// so nothing is elided.
float FmaLoop(int64_t iters, float x, float y, double* flops) {
  constexpr int kLanes = sizeof(Vec) / sizeof(float);
  Vec acc[kAccumulators];
  for (int a = 0; a < kAccumulators; ++a) {
    for (int l = 0; l < kLanes; ++l) acc[a][l] = 0.001f * (a + l);
  }
  for (int64_t i = 0; i < iters; ++i) {
    // Unrolled, so the accumulators stay in registers.
#pragma GCC unroll 16
    for (int a = 0; a < kAccumulators; ++a) acc[a] = acc[a] * x + y;
  }
  float sum = 0.0f;
  for (int a = 0; a < kAccumulators; ++a) {
    for (int l = 0; l < kLanes; ++l) sum += acc[a][l];
  }
  *flops = 2.0 * kLanes * kAccumulators * static_cast<double>(iters);
  return sum;
}

}  // namespace benchtemp::perfbench
