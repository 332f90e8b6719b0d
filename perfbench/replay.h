#ifndef BENCHTEMP_PERFBENCH_REPLAY_H_
#define BENCHTEMP_PERFBENCH_REPLAY_H_

// The traced replay: one workload's link-prediction job re-driven through
// each layer's public functions (core split and samplers, graph indexes
// and walks, the model's prepare/score/update calls, tensor backward and
// optimizer), with a benchmark-side span around every call.

#include "graph/temporal_graph.h"
#include "trace.h"
#include "workloads.h"

namespace benchtemp::perfbench {

struct ReplayResult {
  /// Per-layer metrics the replay measures directly.
  MetricList metrics;
  /// Summed models.forward + tensor.backward + tensor.optimizer spans of
  /// the training batches: the replay side of the fidelity check.
  double compute_s = 0.0;
  /// kernels.flops counted inside those spans.
  double compute_flops = 0.0;
};

/// Replays `w`'s training epochs (same batches, same per-batch seeds as
/// the trainer), then its final test pass with ranking, over `graph`.
/// Needs BENCHTEMP_METRICS on for the counter-derived metrics.
ReplayResult ReplayJob(const Workload& w, const graph::TemporalGraph& graph,
                       Tracer* tracer);

}  // namespace benchtemp::perfbench

#endif  // BENCHTEMP_PERFBENCH_REPLAY_H_
