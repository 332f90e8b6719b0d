// Micro-benchmarks of the substrates (google-benchmark): temporal
// adjacency queries, walk sampling, negative sampling, the tensor kernels
// behind every model, and metric computation. These are the operations the
// paper's efficiency section attributes the model cost differences to
// (e.g. "CAWN and NeurTW are much slower due to their inefficient temporal
// walk operations").

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_sampler.h"
#include "core/evaluator.h"
#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "graph/walks.h"
#include "obs/metrics.h"
#include "tensor/autograd.h"
#include "tensor/expr.h"
#include "tensor/kernels/arena.h"
#include "tensor/kernels/kernels.h"
#include "tensor/modules.h"
#include "tensor/numeric.h"

namespace {

using namespace benchtemp;

graph::TemporalGraph& SharedGraph() {
  // Immortal shared fixture: built once, reused across benchmarks, never
  // destroyed (benchmark process exits with it alive).
  // btlint: allow(mutable-static, raw-new)
  static graph::TemporalGraph& g = *new graph::TemporalGraph([] {
    datagen::SyntheticConfig cfg;
    cfg.num_users = 500;
    cfg.num_items = 200;
    cfg.num_edges = 20000;
    cfg.seed = 3;
    return datagen::Generate(cfg);
  }());
  return g;
}

void BM_NeighborFinderBuild(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  for (auto _ : state) {
    graph::NeighborFinder finder(g);
    benchmark::DoNotOptimize(finder.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * g.num_events());
}
BENCHMARK(BM_NeighborFinderBuild);

void BM_NeighborFinderBeforeQuery(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  tensor::Rng rng(1);
  for (auto _ : state) {
    int64_t count = 0;
    finder.Before(tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"),
                  500.0, &count);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborFinderBeforeQuery);

void BM_UniformNeighborSampling(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  tensor::Rng rng(1);
  for (auto _ : state) {
    const auto sampled = finder.SampleUniform(
        tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"), 900.0,
        state.range(0), rng);
    benchmark::DoNotOptimize(sampled.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UniformNeighborSampling)->Arg(8)->Arg(32);

void BM_TemporalWalk(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  const graph::WalkBias bias =
      state.range(0) == 0 ? graph::WalkBias::kUniform
      : state.range(0) == 1 ? graph::WalkBias::kExponential
                            : graph::WalkBias::kLinearSafe;
  graph::TemporalWalkSampler sampler(bias, 0.01);
  tensor::Rng rng(1);
  for (auto _ : state) {
    const auto walk = sampler.SampleWalk(
        finder, tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"), 900.0,
        4, rng);
    benchmark::DoNotOptimize(walk.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemporalWalk)->Arg(0)->Arg(1)->Arg(2);

void BM_RandomNegativeSampling(benchmark::State& state) {
  core::RandomEdgeSampler sampler(0, 700, 1);
  std::vector<int32_t> srcs(200, 0);
  std::vector<int32_t> dsts(200, 350);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleNegatives(srcs, dsts));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RandomNegativeSampling);

void BM_MatMul(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0);
  tensor::Var a = tensor::Constant(tensor::Tensor::Randn({n, n}, rng));
  tensor::Var b = tensor::Constant(tensor::Tensor::Randn({n, n}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b)->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void BM_GruForwardBackward(benchmark::State& state) {
  tensor::Rng rng(1);
  tensor::GruCell gru(64, 64, rng);
  tensor::Var x = tensor::Constant(tensor::Tensor::Randn({200, 64}, rng));
  tensor::Var h = tensor::Constant(tensor::Tensor::Randn({200, 64}, rng));
  for (auto _ : state) {
    tensor::Var loss = tensor::Sum(gru.Forward(x, h));
    tensor::ZeroGrad(gru.Parameters());
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_GruForwardBackward);

void BM_AttentionForward(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t k = 8;
  tensor::MultiHeadAttention attn(64, 64, 64, 2, rng);
  tensor::Var q = tensor::Constant(tensor::Tensor::Randn({200, 64}, rng));
  tensor::Var kv =
      tensor::Constant(tensor::Tensor::Randn({200 * k, 64}, rng));
  tensor::Tensor mask = tensor::Tensor::Ones({200, k});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attn.Forward(q, kv, kv, mask, k)->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 200 * k);
}
BENCHMARK(BM_AttentionForward);

// ---------------------------------------------------------------------------
// Kernel-layer microbenchmarks (BM_Kernel*; `--kernels` runs only these and
// emits BENCH_kernels.json). GEMM shapes are (n, k, m) triples from a
// shape census of the models at hidden width 24: CAWN's walk-encoder
// projection (1200 x 194 x 24), a d x d projection over the 6000 rows of a
// k = 5 ranking pass, JODIE's feature projection over 200 x 100 ranking
// candidates (20000 x 48 x 24), and the per-batch d x d projection.
// ---------------------------------------------------------------------------

void GemmCensusShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "k", "m"});
  b->Args({1200, 194, 24});
  b->Args({6000, 24, 24});
  b->Args({20000, 48, 24});
  b->Args({200, 24, 24});
}

void BM_KernelGemm(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0), k = state.range(1), m = state.range(2);
  const tensor::Tensor a = tensor::Tensor::Randn({n, k}, rng);
  const tensor::Tensor b = tensor::Tensor::Randn({k, m}, rng);
  tensor::Tensor c({n, m});
  for (auto _ : state) {
    c.Fill(0.0f);
    tensor::kernels::Gemm(a.data(), b.data(), c.data(), n, k, m);
    benchmark::DoNotOptimize(c.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * k * m);
}
BENCHMARK(BM_KernelGemm)->Apply(GemmCensusShapes);

void BM_KernelGemmBackward(benchmark::State& state) {
  // Both MatMul backward kernels at the same shapes.
  tensor::Rng rng(1);
  const int64_t n = state.range(0), k = state.range(1), m = state.range(2);
  const tensor::Tensor a = tensor::Tensor::Randn({n, k}, rng);
  const tensor::Tensor b = tensor::Tensor::Randn({k, m}, rng);
  const tensor::Tensor dc = tensor::Tensor::Randn({n, m}, rng);
  tensor::Tensor da({n, k});
  tensor::Tensor db({k, m});
  for (auto _ : state) {
    da.Fill(0.0f);
    db.Fill(0.0f);
    tensor::kernels::GemmNT(dc.data(), b.data(), da.data(), n, k, m);
    tensor::kernels::GemmTN(a.data(), dc.data(), db.data(), n, k, m);
    benchmark::DoNotOptimize(da.at(0));
    benchmark::DoNotOptimize(db.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * k * m);
}
BENCHMARK(BM_KernelGemmBackward)->Apply(GemmCensusShapes);

void BM_KernelSoftmaxRow(benchmark::State& state) {
  // The attention-score row shape: batch of 200 rows over k=8 keys, plus a
  // wider row for the vector path.
  tensor::Rng rng(1);
  const int64_t n = 200, d = state.range(0);
  const tensor::Tensor in = tensor::Tensor::Randn({n, d}, rng);
  const tensor::Tensor mask = tensor::Tensor::Ones({n, d});
  tensor::Tensor out({n, d});
  for (auto _ : state) {
    for (int64_t r = 0; r < n; ++r) {
      tensor::kernels::SoftmaxRow(in.data() + r * d, mask.data() + r * d, d,
                                  out.data() + r * d);
    }
    benchmark::DoNotOptimize(out.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n * d);
}
BENCHMARK(BM_KernelSoftmaxRow)->Arg(8)->Arg(64);

void BM_KernelBce(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = 400;  // pos+neg scores of one batch
  const tensor::Tensor logits = tensor::Tensor::Randn({n}, rng);
  tensor::Tensor targets({n});
  for (int64_t i = 0; i < n; ++i) targets.at(i) = i % 2 == 0 ? 1.0f : 0.0f;
  tensor::Tensor grad({n});
  for (auto _ : state) {
    const float loss =
        tensor::kernels::BceForwardMean(logits.data(), targets.data(), n);
    grad.Fill(0.0f);
    tensor::kernels::BceBackward(grad.data(), logits.data(), targets.data(),
                                 loss, n);
    benchmark::DoNotOptimize(grad.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelBce);

void BM_KernelReduceDot(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0);
  const tensor::Tensor x = tensor::Tensor::Randn({n}, rng);
  const tensor::Tensor y = tensor::Tensor::Randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::kernels::ReduceSum(x.data(), n));
    benchmark::DoNotOptimize(tensor::kernels::Dot(x.data(), y.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_KernelReduceDot)->Arg(64)->Arg(4096);

// ---------------------------------------------------------------------------
// Fusion-layer microbenchmarks (BM_Fusion*; `--fusion` runs only these and
// emits BENCH_fusion.json). Each chain is the elementwise tail of a model
// hot path at its training shape. The same expr:: source builds both sides:
// Arg(0) replays it through the eager per-op tape (the BENCHTEMP_FUSION=0
// escape hatch — one tensor + one tape node per op), Arg(1) through the
// fused expression layer (one pass forward, one pass backward).
// ---------------------------------------------------------------------------

namespace fusion {

constexpr int64_t kRows = 200;  // default training batch
constexpr int64_t kCols = 64;   // embedding width
/// Rows of the memory-bound variants: every operand is a ~2 MB tensor, so
/// the eager per-op passes stream through last-level cache while the fused
/// pass reads each input once and keeps its scratch block L1-resident.
constexpr int64_t kMemBoundRows = 16384;

/// GRU update-gate combine: (1 - z) * n + z * h — five elementwise ops.
tensor::Var GruGateCombine(const tensor::Var& z, const tensor::Var& n,
                           const tensor::Var& h) {
  namespace expr = tensor::expr;
  expr::Ex one_minus_z =
      expr::ScalarAdd(expr::ScalarMul(expr::Ex(z), -1.0f), 1.0f);
  return expr::Add(expr::Mul(one_minus_z, expr::Ex(n)),
                   expr::Mul(expr::Ex(z), expr::Ex(h)));
}

/// NeurTW Euler-step tail: h + sigmoid(g) * tanh(d) * dt, with the [n, 1]
/// per-row step sizes column-broadcast into the chain.
tensor::Var OdeEulerStep(const tensor::Var& h, const tensor::Var& g,
                         const tensor::Var& d, const tensor::Var& dt) {
  namespace expr = tensor::expr;
  expr::Ex f =
      expr::Mul(expr::Sigmoid(expr::Ex(g)), expr::Tanh(expr::Ex(d)));
  return expr::Add(expr::Ex(h), expr::Mul(f, expr::Ex(dt)));
}

/// Projection epilogue: relu(x + b) with the [1, d] bias row-broadcast
/// (the Linear::ForwardEx tail of every model's output head).
tensor::Var BiasRelu(const tensor::Var& x, const tensor::Var& b) {
  namespace expr = tensor::expr;
  return expr::Relu(expr::Add(expr::Ex(x), expr::Ex(b)));
}

/// Additive feature aggregation with affine calibration: message + memory
/// + time feature - drift, rescaled. All add/sub/scale, so the fused
/// backward's dead-recompute elimination drops the whole forward replay.
tensor::Var FeatureAggregate(const tensor::Var& msg, const tensor::Var& mem,
                             const tensor::Var& time_feat,
                             const tensor::Var& drift) {
  namespace expr = tensor::expr;
  return expr::ScalarAdd(
      expr::ScalarMul(
          expr::Sub(expr::Add(expr::Add(expr::Ex(msg), expr::Ex(mem)),
                              expr::Ex(time_feat)),
                    expr::Ex(drift)),
          0.3f),
      0.1f);
}

}  // namespace fusion

void BM_FusionGruGate(benchmark::State& state) {
  tensor::expr::SetFusionEnabledForTest(state.range(0) == 0 ? 0 : 1);
  const int64_t rows = state.range(1);
  tensor::Rng rng(1);
  tensor::Var z =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var n =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var h =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  for (auto _ : state) {
    tensor::Var loss = tensor::Sum(fusion::GruGateCombine(z, n, h));
    tensor::ZeroGrad({z, n, h});
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  tensor::expr::SetFusionEnabledForTest(-1);
  state.SetItemsProcessed(state.iterations() * rows * fusion::kCols);
}
BENCHMARK(BM_FusionGruGate)
    ->Args({0, fusion::kRows})
    ->Args({1, fusion::kRows})
    ->Args({0, fusion::kMemBoundRows})
    ->Args({1, fusion::kMemBoundRows});

void BM_FusionOdeStep(benchmark::State& state) {
  tensor::expr::SetFusionEnabledForTest(state.range(0) == 0 ? 0 : 1);
  const int64_t rows = state.range(1);
  tensor::Rng rng(1);
  tensor::Var h =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var g =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var d =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var dt = tensor::Constant(tensor::Tensor::Randn({rows, 1}, rng));
  for (auto _ : state) {
    tensor::Var loss = tensor::Sum(fusion::OdeEulerStep(h, g, d, dt));
    tensor::ZeroGrad({h, g, d});
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  tensor::expr::SetFusionEnabledForTest(-1);
  state.SetItemsProcessed(state.iterations() * rows * fusion::kCols);
}
BENCHMARK(BM_FusionOdeStep)
    ->Args({0, fusion::kRows})
    ->Args({1, fusion::kRows});

void BM_FusionBiasRelu(benchmark::State& state) {
  tensor::expr::SetFusionEnabledForTest(state.range(0) == 0 ? 0 : 1);
  const int64_t rows = state.range(1);
  tensor::Rng rng(1);
  tensor::Var x =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var b =
      tensor::Parameter(tensor::Tensor::Randn({1, fusion::kCols}, rng));
  for (auto _ : state) {
    tensor::Var loss = tensor::Sum(fusion::BiasRelu(x, b));
    tensor::ZeroGrad({x, b});
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  tensor::expr::SetFusionEnabledForTest(-1);
  state.SetItemsProcessed(state.iterations() * rows * fusion::kCols);
}
BENCHMARK(BM_FusionBiasRelu)
    ->Args({0, fusion::kRows})
    ->Args({1, fusion::kRows})
    ->Args({0, fusion::kMemBoundRows})
    ->Args({1, fusion::kMemBoundRows});

void BM_FusionFeatureAggregate(benchmark::State& state) {
  tensor::expr::SetFusionEnabledForTest(state.range(0) == 0 ? 0 : 1);
  const int64_t rows = state.range(1);
  tensor::Rng rng(1);
  tensor::Var msg =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var mem =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var tf =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  tensor::Var drift =
      tensor::Parameter(tensor::Tensor::Randn({rows, fusion::kCols}, rng));
  for (auto _ : state) {
    tensor::Var loss =
        tensor::Sum(fusion::FeatureAggregate(msg, mem, tf, drift));
    tensor::ZeroGrad({msg, mem, tf, drift});
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  tensor::expr::SetFusionEnabledForTest(-1);
  state.SetItemsProcessed(state.iterations() * rows * fusion::kCols);
}
BENCHMARK(BM_FusionFeatureAggregate)
    ->Args({0, fusion::kMemBoundRows})
    ->Args({1, fusion::kMemBoundRows});

/// Appends the structured records the CI perf gate reads from
/// BENCH_fusion.json: one (model=eager|fused, dataset=<chain>, task=fusion)
/// run per chain with the chain's elementwise elements/second as the gated
/// throughput column, plus "fusion.arena_bytes.<chain>.<mode>" gauges
/// carrying the tape-arena footprint of one forward+backward pass (the
/// before/after of the allocation win). Runs under a per-pass TapeScope so
/// the arena numbers are the trainer's.
void RecordFusionRuns() {
  if (!obs::MetricRegistry::Enabled()) return;
  namespace expr = tensor::expr;
  using tensor::Tensor;
  using tensor::Var;
  tensor::Rng rng(1);
  const Tensor a = Tensor::Randn({fusion::kRows, fusion::kCols}, rng);
  const Tensor b = Tensor::Randn({fusion::kRows, fusion::kCols}, rng);
  const Tensor c = Tensor::Randn({fusion::kRows, fusion::kCols}, rng);
  const Tensor col = Tensor::Randn({fusion::kRows, 1}, rng);
  const Tensor row = Tensor::Randn({1, fusion::kCols}, rng);
  // Memory-bound operands: ~2 MB each, so the eager per-op passes stream
  // through last-level cache while fusion touches each element once.
  const Tensor aw = Tensor::Randn({fusion::kMemBoundRows, fusion::kCols}, rng);
  const Tensor bw = Tensor::Randn({fusion::kMemBoundRows, fusion::kCols}, rng);
  const Tensor cw = Tensor::Randn({fusion::kMemBoundRows, fusion::kCols}, rng);
  const Tensor dw = Tensor::Randn({fusion::kMemBoundRows, fusion::kCols}, rng);
  struct Chain {
    const char* name;
    int64_t rows;
    int iters;
    std::function<std::vector<Var>()> make_leaves;
    std::function<Var(const std::vector<Var>&)> build;
  };
  constexpr int kIters = 2000;
  constexpr int kMemBoundIters = 120;
  const auto gru_leaves = [&](const Tensor& x, const Tensor& y,
                              const Tensor& z) {
    return std::vector<Var>{tensor::Parameter(x), tensor::Parameter(y),
                            tensor::Parameter(z)};
  };
  const std::vector<Chain> chains = {
      {"gru_gate", fusion::kRows, kIters, [&] { return gru_leaves(a, b, c); },
       [](const std::vector<Var>& l) {
         return fusion::GruGateCombine(l[0], l[1], l[2]);
       }},
      {"ode_step", fusion::kRows, kIters,
       [&] {
         return std::vector<Var>{tensor::Parameter(a), tensor::Parameter(b),
                                 tensor::Parameter(c),
                                 tensor::Constant(col)};
       },
       [](const std::vector<Var>& l) {
         return fusion::OdeEulerStep(l[0], l[1], l[2], l[3]);
       }},
      {"bias_relu", fusion::kRows, kIters,
       [&] {
         return std::vector<Var>{tensor::Parameter(a),
                                 tensor::Parameter(row)};
       },
       [](const std::vector<Var>& l) {
         return fusion::BiasRelu(l[0], l[1]);
       }},
      {"gru_gate_mb", fusion::kMemBoundRows, kMemBoundIters,
       [&] { return gru_leaves(aw, bw, cw); },
       [](const std::vector<Var>& l) {
         return fusion::GruGateCombine(l[0], l[1], l[2]);
       }},
      {"bias_relu_mb", fusion::kMemBoundRows, kMemBoundIters,
       [&] {
         return std::vector<Var>{tensor::Parameter(aw),
                                 tensor::Parameter(row)};
       },
       [](const std::vector<Var>& l) {
         return fusion::BiasRelu(l[0], l[1]);
       }},
      {"feat_agg_mb", fusion::kMemBoundRows, kMemBoundIters,
       [&] {
         return std::vector<Var>{tensor::Parameter(aw), tensor::Parameter(bw),
                                 tensor::Parameter(cw),
                                 tensor::Parameter(dw)};
       },
       [](const std::vector<Var>& l) {
         return fusion::FeatureAggregate(l[0], l[1], l[2], l[3]);
       }},
  };
  for (const Chain& chain : chains) {
    for (int mode = 0; mode <= 1; ++mode) {
      expr::SetFusionEnabledForTest(mode);
      // Trainer-shaped pass: leaves are persistent parameters (heap, like a
      // model's weights — their grads are heap too, surviving the scope),
      // while every intermediate of the pass comes from the tape arena and
      // dies with it. Both modes then bump-allocate identically, so the
      // timing compares the chains, not the heap allocator's history.
      const std::vector<Var> leaves = chain.make_leaves();
      int64_t live_floats = 0;
      const auto pass = [&] {
        tensor::kernels::TapeScope scope;
        Var loss = tensor::Sum(chain.build(leaves));
        tensor::ZeroGrad(leaves);
        tensor::Backward(loss);
        live_floats = tensor::kernels::Arena::ThreadLocal().LiveFloats();
      };
      for (int i = 0; i < 5; ++i) pass();  // warm caches and the arena slab
      const double t0 = obs::NowSeconds();
      for (int i = 0; i < chain.iters; ++i) pass();
      const double seconds = obs::NowSeconds() - t0;
      obs::RunRecord record;
      record.model = mode == 0 ? "eager" : "fused";
      record.dataset = chain.name;
      record.task = "fusion";
      record.epochs_run = chain.iters;
      record.seconds_per_epoch = seconds / chain.iters;
      record.train_events_per_second =
          seconds > 0.0 ? static_cast<double>(chain.rows * fusion::kCols) *
                              chain.iters / seconds
                        : 0.0;
      record.state_bytes =
          live_floats * static_cast<int64_t>(sizeof(float));
      obs::MetricRegistry::Global().AppendRun(record);
      obs::MetricRegistry::Global().SetGauge(
          std::string("fusion.arena_bytes.") + chain.name + "." +
              record.model,
          static_cast<double>(record.state_bytes));
    }
  }
  expr::SetFusionEnabledForTest(-1);
}

void BM_RocAuc(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int64_t i = 0; i < n; ++i) {
    scores.push_back(rng.UniformReal(0.0f, 1.0f));
    labels.push_back(static_cast<int>(rng.UniformInt(2)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RocAuc(scores, labels));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RocAuc)->Arg(1000)->Arg(100000);

void BM_SyntheticGeneration(benchmark::State& state) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 120;
  cfg.num_edges = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::Generate(cfg).num_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(2000);

}  // namespace

int main(int argc, char** argv) {
  // `--kernels` restricts the run to the kernel-layer benchmarks and emits
  // the artifact as BENCH_kernels.json (the CI kernel-bench smoke leg);
  // `--fusion` does the same for the BM_Fusion* suite as BENCH_fusion.json,
  // adding the gated fused-vs-eager throughput records when metrics
  // collection is on.
  bool kernels_only = false;
  bool fusion_only = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels") == 0) {
      kernels_only = true;
    } else if (std::strcmp(argv[i], "--fusion") == 0) {
      fusion_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter = kernels_only ? "--benchmark_filter=BM_Kernel"
                                    : "--benchmark_filter=BM_Fusion";
  if (kernels_only || fusion_only) args.push_back(filter.data());
  int filtered_argc = static_cast<int>(args.size());
  benchtemp::bench::BenchArtifact artifact(
      kernels_only ? "kernels" : fusion_only ? "fusion" : "micro");
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (fusion_only) RecordFusionRuns();
  benchmark::Shutdown();
  return 0;
}
