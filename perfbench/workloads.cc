#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/splitmix.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace benchtemp::perfbench {

namespace {

/// Shapes shared by every workload: the non-QUICK bench_common.h grid.
void GridShapes(Workload* w) {
  w->node_feature_dim = 48;
  w->model.embedding_dim = 24;
  w->model.time_dim = 16;
  w->model.num_neighbors = 8;
  w->model.num_layers = 2;
  w->model.num_heads = 2;
  w->model.num_walks = 3;
  w->model.walk_length = 2;
  w->train.batch_size = 200;
  w->train.learning_rate = 1e-3f;
  // Explicit, so BENCHTEMP_PIPELINE / BENCHTEMP_MRR_K cannot change the
  // workload behind the benchmark's back.
  w->train.pipeline_depth = 2;
  w->train.mrr_k = 0;
}

datagen::SyntheticConfig Stream(int32_t users, int32_t items, int64_t edges,
                                double zipf, double reuse,
                                int64_t edge_dim) {
  datagen::SyntheticConfig c;
  c.num_users = users;
  c.num_items = items;
  c.num_edges = edges;
  c.zipf_src = zipf;
  c.zipf_dst = zipf;
  c.edge_reuse_prob = reuse;
  c.affinity = 0.5;
  c.time_granularity = edges;
  c.time_span = static_cast<double>(edges);
  c.edge_feature_dim = edge_dim;
  return c;
}

void Fnv1a(uint64_t* h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= 0x100000001b3ULL;
  }
}

void HashDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Fnv1a(h, &bits, sizeof(bits));
}

bool InUnit(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tgn-train", "cawn-train",
                                                 "jodie-rank"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  GridShapes(&w);
  if (name == "tgn-train") {
    // Homogeneous UCI-like stream; GEMM-bound TGN training.
    w.data = Stream(1000, 0, 16000, 1.2, 0.5, 100);
    w.kind = models::ModelKind::kTgn;
    w.train.max_epochs = 2;
    w.train.mrr_k = 5;
  } else if (name == "cawn-train") {
    // Bipartite Wikipedia-like stream; walk sampling + prefetch.
    w.data = Stream(600, 150, 20000, 1.3, 0.7, 172);
    w.num_users = 600;
    w.kind = models::ModelKind::kCawn;
    w.train.max_epochs = 1;
    w.train.mrr_k = 5;
  } else if (name == "jodie-rank") {
    // Larger homogeneous stream; JODIE training, then k=100 ranking.
    w.data = Stream(8000, 0, 80000, 1.2, 0.5, 100);
    w.kind = models::ModelKind::kJodie;
    w.train.max_epochs = 2;
    w.train.mrr_k = 100;
    w.train.mrr_historical_fraction = 0.5;
  } else {
    return false;
  }
  w.data.name = name;
  w.data.seed = base::SplitMix64(seed, 1);
  w.train.seed = base::SplitMix64(seed, 2);
  w.split.seed = base::SplitMix64(seed, 3);
  *out = w;
  return true;
}

Workload Tiny(Workload w) {
  // Nodes shrink 4x less than events, so the 10% unseen-node mask still
  // leaves every inductive setting some test events.
  const double scale = 1500.0 / static_cast<double>(w.data.num_edges);
  w.data.num_users = std::max<int32_t>(
      60, static_cast<int32_t>(w.data.num_users * scale * 4));
  if (w.data.num_items > 0) {
    w.data.num_items = std::max<int32_t>(
        20, static_cast<int32_t>(w.data.num_items * scale * 4));
    w.num_users = w.data.num_users;
  }
  w.data.num_edges = 1500;
  w.data.time_granularity = 1500;
  w.data.time_span = 1500.0;
  w.train.mrr_k = std::min(w.train.mrr_k, 10);
  return w;
}

Inputs BuildInputs(const Workload& w) {
  Inputs in;
  const double t0 = obs::NowSeconds();
  in.graph = datagen::Generate(w.data);
  const double t1 = obs::NowSeconds();
  in.graph.InitNodeFeatures(w.node_feature_dim);
  const double t2 = obs::NowSeconds();
  runtime::ThreadPool::Global().SetNumThreads(kThreads);
  const double t3 = obs::NowSeconds();
  in.generate_s = t1 - t0;
  in.features_s = t2 - t1;
  in.pool_s = t3 - t2;
  return in;
}

core::LinkPredictionJob MakeJob(const Workload& w,
                                const graph::TemporalGraph& graph) {
  core::LinkPredictionJob job;
  job.graph = &graph;
  job.num_users = w.num_users;
  job.kind = w.kind;
  job.model_config = w.model;
  job.train_config = w.train;
  job.split_config = w.split;
  return job;
}

Verdict CheckResult(const Workload& w, const core::LinkPredictionResult& r) {
  Verdict v;
  auto fail = [&v](const std::string& reason) {
    if (v.ok) v.reason = reason;
    v.ok = false;
  };
  if (r.status != models::ModelStatus::kOk) fail("status is not ok");
  if (!r.annotation.empty()) fail("annotated '" + r.annotation + "'");
  if (r.nan_retries > w.train.max_nan_retries) fail("NaN-retry budget spent");
  for (int s = 0; s < 4; ++s) {
    const core::SettingMetrics& m = r.test[static_cast<size_t>(s)];
    const std::string setting =
        core::SettingName(static_cast<core::Setting>(s));
    if (m.count <= 0) fail(setting + ": no test events");
    if (!InUnit(m.auc)) fail(setting + ": AUC out of [0, 1]");
    if (!InUnit(m.ap)) fail(setting + ": AP out of [0, 1]");
  }
  const core::RankingMetrics& rank = r.test_ranking[0];
  if (rank.count <= 0 || !(rank.mrr > 0.0 && rank.mrr <= 1.0)) {
    fail("transductive MRR out of (0, 1]");
  }
  if (r.efficiency.epochs_run != w.train.max_epochs) {
    fail("epochs_run " + std::to_string(r.efficiency.epochs_run) +
         " != budget " + std::to_string(w.train.max_epochs));
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int s = 0; s < 4; ++s) {
    HashDouble(&h, r.test[static_cast<size_t>(s)].auc);
    HashDouble(&h, r.test[static_cast<size_t>(s)].ap);
    HashDouble(&h, r.test_ranking[static_cast<size_t>(s)].mrr);
  }
  const int32_t epochs = r.efficiency.epochs_run;
  Fnv1a(&h, &epochs, sizeof(epochs));
  v.digest = h;
  return v;
}

std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace benchtemp::perfbench
