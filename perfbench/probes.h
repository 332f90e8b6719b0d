#ifndef BENCHTEMP_PERFBENCH_PROBES_H_
#define BENCHTEMP_PERFBENCH_PROBES_H_

// Kernel probes of the traced run: the library's GEMM entry points
// replayed at the dominant shapes each workload's model config implies,
// and a bench-local FMA loop for the core's peak.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace benchtemp::perfbench {

struct GemmShape {
  std::string kernel;  // "Gemm", "GemmNT" or "GemmTN"
  int64_t n = 0;
  int64_t k = 0;
  int64_t m = 0;

  /// "kernels.gemm_gflops.<kernel>.<n>x<k>x<m>".
  std::string MetricName() const;
};

/// The (at most 4) dominant GEMM shapes of `w`, derived from its model
/// and training config (see README.md, "Kernel probes").
std::vector<GemmShape> DominantShapes(const Workload& w);

/// Union of DominantShapes over every workload, in workload order.
std::vector<GemmShape> AllShapes();

/// Median GFLOP/s of `shape` on one thread over ~`seconds` of calls.
double ProbeGemm(const GemmShape& shape, double seconds);

/// Single-thread peak GFLOP/s of a register-resident FMA loop (best of
/// several timed repetitions).
double PeakGflops();

}  // namespace benchtemp::perfbench

#endif  // BENCHTEMP_PERFBENCH_PROBES_H_
