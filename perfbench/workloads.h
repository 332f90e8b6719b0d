#ifndef BENCHTEMP_PERFBENCH_WORKLOADS_H_
#define BENCHTEMP_PERFBENCH_WORKLOADS_H_

// The benchmark's named workloads (see perfbench/README.md): one
// link-prediction job each, with every input generated from one seed.

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "graph/temporal_graph.h"
#include "models/factory.h"

namespace benchtemp::perfbench {

/// Threads every workload runs with (BENCHTEMP_NUM_THREADS). One: on a
/// shared host a second busy thread is what draws hypervisor steal, and
/// its barriers turn each stolen slice of either thread into a stall of
/// both (README.md, "Load shape").
inline constexpr int kThreads = 1;

/// One workload: generator config, model, and training protocol.
struct Workload {
  std::string name;
  datagen::SyntheticConfig data;
  int64_t node_feature_dim = 48;
  int32_t num_users = 0;  // > 0 for bipartite graphs
  models::ModelKind kind = models::ModelKind::kTgn;
  models::ModelConfig model;
  core::TrainConfig train;
  core::SplitConfig split;
};

/// Names of every workload the driver knows. BENCHMARK.json lists all but
/// tgn-train, whose runs were too unsteady to gate on (README.md).
const std::vector<std::string>& WorkloadNames();

/// The workload `name` with its graph, training and split seeds derived
/// from `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// A tiny version of `w` (same model and protocol, 1,500 events)
/// for the correctness self-test.
Workload Tiny(Workload w);

/// Generated inputs of one workload plus the set-up timings.
struct Inputs {
  graph::TemporalGraph graph;
  double generate_s = 0.0;
  double features_s = 0.0;
  double pool_s = 0.0;
  double setup_s() const { return generate_s + features_s + pool_s; }
};

/// Set-up: datagen::Generate + InitNodeFeatures + (re)starting the
/// thread pool at kThreads.
Inputs BuildInputs(const Workload& w);

/// The link-prediction job of `w` over `graph`.
core::LinkPredictionJob MakeJob(const Workload& w,
                                const graph::TemporalGraph& graph);

/// Outcome of the result check of one job.
struct Verdict {
  bool ok = true;
  std::string reason;  // first failed check, "" when ok
  uint64_t digest = 0;
};

/// Checks one job's outputs: status ok and unannotated, NaN-retry budget
/// not spent, AUC/AP finite in [0, 1] with non-zero counts in all four
/// settings, transductive MRR in (0, 1], epochs_run equal to the budget.
/// The digest is FNV-1a over the AUC/AP/MRR bits and epochs_run.
Verdict CheckResult(const Workload& w, const core::LinkPredictionResult& r);

/// "%016llx" rendering of a digest.
std::string DigestHex(uint64_t digest);

}  // namespace benchtemp::perfbench

#endif  // BENCHTEMP_PERFBENCH_WORKLOADS_H_
