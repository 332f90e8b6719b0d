#include "replay.h"

#include <array>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/splitmix.h"
#include "core/data_loader.h"
#include "core/edge_sampler.h"
#include "core/evaluator.h"
#include "core/mrr_evaluator.h"
#include "core/trainer.h"
#include "graph/neighbor_finder.h"
#include "graph/walks.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "tensor/autograd.h"
#include "tensor/expr.h"
#include "tensor/kernels/arena.h"
#include "tensor/optimizer.h"
#include "tensor/random.h"

namespace benchtemp::perfbench {

namespace {

using obs::Counter;
using Scope = Tracer::Scope;

/// Snapshot of every obs counter.
struct Counts {
  std::array<int64_t, obs::kNumCounters> v{};
  int64_t operator[](Counter c) const { return v[static_cast<size_t>(c)]; }
};

Counts Snap() {
  Counts c;
  const auto& registry = obs::MetricRegistry::Global();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    c.v[static_cast<size_t>(i)] = registry.value(static_cast<Counter>(i));
  }
  return c;
}

/// Accumulates `after - before` into `into`.
void AddDelta(const Counts& before, const Counts& after, Counts* into) {
  for (size_t i = 0; i < into->v.size(); ++i) {
    into->v[i] += after.v[i] - before.v[i];
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The two helpers below restate private trainer.cc definitions (as does
// the model seed, TrainConfig::seed + 17, in ReplayJob), so the replay
// draws exactly the trainer's streams.

/// Destination sampling range (trainer.cc DstRange).
void DstRange(const graph::TemporalGraph& graph, int32_t num_users,
              int32_t* lo, int32_t* hi) {
  const bool bipartite = num_users > 0 && num_users < graph.num_nodes();
  *lo = bipartite ? num_users : 0;
  *hi = graph.num_nodes();
}

/// Per-batch preparation seed (trainer.cc BatchSeed).
uint64_t BatchSeed(uint64_t job_seed, int epoch, int64_t batch_index) {
  return base::SplitMix64(
      base::SplitMix64(job_seed, static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch_index) + 17);
}

std::vector<double> Values(const tensor::Var& v, int64_t n) {
  std::vector<double> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = v->value.at(i);
  return out;
}

}  // namespace

ReplayResult ReplayJob(const Workload& w, const graph::TemporalGraph& graph,
                       Tracer* tracer) {
  ReplayResult out;
  // Only this replay's spans count, however many came before it.
  const int first = static_cast<int>(tracer->spans().size());
  auto times = [&](const char* name) {
    return Summarize(tracer->Durations(name, first));
  };
  auto total = [&](const char* name) { return tracer->Total(name, first); };
  const core::LinkPredictionJob job = MakeJob(w, graph);
  const core::TrainConfig& tc = job.train_config;

  core::LinkPredictionSplit split;
  {
    Scope span(tracer, "core.split");
    split = core::SplitLinkPrediction(graph, job.split_config);
  }
  std::unique_ptr<graph::NeighborFinder> train_finder, full_finder;
  {
    Scope span(tracer, "graph.index_build");
    train_finder =
        std::make_unique<graph::NeighborFinder>(graph, split.train_events);
    full_finder = std::make_unique<graph::NeighborFinder>(graph);
  }
  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);
  core::RandomEdgeSampler train_sampler(dst_lo, dst_hi, tc.seed + 1);
  auto val_sampler =
      core::MakeEdgeSampler(tc.negative_sampling, graph, split.train_events,
                            dst_lo, dst_hi, tc.seed + 2);
  auto test_sampler =
      core::MakeEdgeSampler(tc.negative_sampling, graph, split.train_events,
                            dst_lo, dst_hi, tc.seed + 3);
  core::CandidateConfig candidate_config;
  candidate_config.k = tc.mrr_k;
  candidate_config.historical_fraction = tc.mrr_historical_fraction;
  const core::CandidateSampler candidates(graph, split.train_events, dst_lo,
                                          dst_hi, candidate_config);

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  tensor::Adam optimizer(model->Parameters(), tc.learning_rate);
  const std::vector<tensor::Var> params = model->Parameters();
  const graph::TemporalWalkSampler walker(model_config.walk_bias);
  const int64_t num_neighbors = model_config.num_neighbors;

  // --- Training epochs: the trainer's batch loop, one span per call. ---
  const std::vector<models::Batch> train_batches =
      core::MakeBatches(graph, split.train_events, tc.batch_size);
  std::vector<std::vector<int32_t>> last_negatives(train_batches.size());
  Counts train_work, negatives_work;
  int64_t batches_run = 0;
  for (int epoch = 0; epoch < tc.max_epochs; ++epoch) {
    model->Reset();
    model->set_training(true);
    model->SetNeighborFinder(train_finder.get());
    for (size_t bi = 0; bi < train_batches.size(); ++bi) {
      // First declaration: the batch's Vars die before the arena rewinds.
      tensor::kernels::TapeScope tape_scope;
      const int64_t index = static_cast<int64_t>(bi);
      Scope batch_span(tracer, "replay.train_batch", index);
      const models::Batch& batch = train_batches[bi];
      const uint64_t seed = BatchSeed(tc.seed, epoch, index);

      std::vector<int32_t> negatives;
      const Counts neg_before = Snap();
      {
        Scope span(tracer, "core.negatives", index);
        negatives = train_sampler.SampleNegativesKeyed(
            base::SplitMix64(seed, 0), batch.srcs, batch.dsts);
      }
      AddDelta(neg_before, Snap(), &negatives_work);
      last_negatives[bi] = negatives;

      const Counts work_before = Snap();
      std::unique_ptr<models::PreparedInputs> inputs;
      {
        Scope span(tracer, "models.prepare_batch", index);
        inputs = model->PrepareBatch(batch, negatives, seed);
      }
      const Counts compute_before = Snap();
      tensor::Var loss;
      {
        Scope span(tracer, "models.forward", index);
        model->SetPreparedInputs(inputs.get());
        tensor::Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        tensor::Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        model->SetPreparedInputs(nullptr);
        tensor::Tensor ones({pos->value.size()});
        ones.Fill(1.0f);
        tensor::Tensor zeros({neg->value.size()});
        loss = tensor::expr::ScalarMul(
            tensor::expr::Add(
                tensor::expr::Ex(tensor::BceWithLogits(pos, ones)),
                tensor::expr::Ex(tensor::BceWithLogits(neg, zeros))),
            0.5f);
        (void)tensor::AllFinite(loss->value);
      }
      {
        Scope span(tracer, "tensor.backward", index);
        optimizer.ZeroGrad();
        tensor::Backward(loss);
        (void)tensor::GradsFinite(params);
      }
      {
        Scope span(tracer, "tensor.optimizer", index);
        tensor::ClipGradNorm(params, tc.grad_clip_norm);
        optimizer.Step();
        (void)tensor::ParamsFinite(params);
      }
      out.compute_flops +=
          static_cast<double>(Snap()[Counter::kKernelFlops] -
                              compute_before[Counter::kKernelFlops]);
      {
        Scope span(tracer, "models.update_state", index);
        model->UpdateState(batch);
      }
      AddDelta(work_before, Snap(), &train_work);
      ++batches_run;
    }
  }
  out.compute_s = total("models.forward") +
                  total("tensor.backward") +
                  total("tensor.optimizer");

  // --- Graph-layer probes over the same batch endpoints, kept out of the
  // training loop so they do not disturb its caches. ---
  std::vector<double> query_us_samples;
  for (size_t bi = 0; bi < train_batches.size(); ++bi) {
    const int64_t index = static_cast<int64_t>(bi);
    Scope batch_span(tracer, "replay.graph_batch", index);
    const models::Batch& batch = train_batches[bi];
    const std::vector<int32_t>& negatives = last_negatives[bi];
    const uint64_t seed = BatchSeed(tc.seed, 0, index);
    {
      const int id = tracer->Begin("graph.neighbor_query", index);
      tensor::Rng rng(base::SplitMix64(seed, 3));
      for (int64_t i = 0; i < batch.size(); ++i) {
        const size_t r = static_cast<size_t>(i);
        for (int32_t node : {batch.srcs[r], batch.dsts[r]}) {
          (void)train_finder->MostRecent(node, batch.ts[r], num_neighbors);
          (void)train_finder->SampleUniform(node, batch.ts[r], num_neighbors,
                                              rng);
        }
      }
      tracer->End(id);
      query_us_samples.push_back(tracer->Duration(id) * 1e6 /
                                 static_cast<double>(4 * batch.size()));
    }
    std::vector<int32_t> roots = batch.srcs;
    roots.insert(roots.end(), batch.dsts.begin(), batch.dsts.end());
    roots.insert(roots.end(), negatives.begin(), negatives.end());
    std::vector<double> root_ts;
    for (int rep = 0; rep < 3; ++rep) {
      root_ts.insert(root_ts.end(), batch.ts.begin(), batch.ts.end());
    }
    Scope span(tracer, "graph.walk_batch", index);
    (void)walker.SampleWalkBatch(*train_finder, roots, root_ts,
                                 model_config.num_walks,
                                 model_config.walk_length,
                                 base::SplitMix64(seed, 4));
  }

  // --- Evaluation passes with ranking, on the full index: the validation
  // pass as the trainer runs it after the last epoch, then the final test
  // pass over state rebuilt through the validation window. ---
  const int k = candidates.k();
  core::MrrEvaluator evaluator(tc.mrr_tie_policy);
  int64_t candidate_rows = 0;
  Counts candidate_work;
  // Scores one pass over `events`; returns positive and negative scores.
  auto eval_pass = [&](const std::vector<int64_t>& events,
                       const core::EdgeSampler& sampler, uint64_t pass_seed,
                       std::vector<double>* pos_out,
                       std::vector<double>* neg_out) {
    const std::vector<models::Batch> batches =
        core::MakeBatches(graph, events, tc.batch_size);
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      tensor::kernels::TapeScope tape_scope;
      const int64_t index = static_cast<int64_t>(bi);
      Scope batch_span(tracer, "replay.eval_batch", index);
      const models::Batch& batch = batches[bi];
      const uint64_t seed = BatchSeed(pass_seed, 0, index);
      std::vector<int32_t> negatives, cands;
      {
        Scope span(tracer, "eval.negatives", index);
        negatives = sampler.SampleNegativesKeyed(base::SplitMix64(seed, 0),
                                                 batch.srcs, batch.dsts);
      }
      const Counts cand_before = Snap();
      {
        Scope span(tracer, "core.candidates", index);
        cands = candidates.SampleCandidateBatch(base::SplitMix64(seed, 1),
                                                batch.srcs, batch.dsts);
      }
      AddDelta(cand_before, Snap(), &candidate_work);
      candidate_rows += batch.size();
      tensor::Var pos, neg, cand;
      {
        Scope span(tracer, "eval.score_edges", index);
        pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
      }
      {
        Scope span(tracer, "models.score_candidates", index);
        cand = model->ScoreCandidates(batch.srcs, cands, batch.ts, k);
      }
      const std::vector<double> pos_scores = Values(pos, batch.size());
      const std::vector<double> cand_scores = Values(cand, batch.size() * k);
      {
        Scope span(tracer, "core.rank", index);
        evaluator.AddBatch(pos_scores, cand_scores, k);
      }
      const std::vector<double> neg_scores = Values(neg, batch.size());
      pos_out->insert(pos_out->end(), pos_scores.begin(), pos_scores.end());
      neg_out->insert(neg_out->end(), neg_scores.begin(), neg_scores.end());
      {
        Scope span(tracer, "eval.update_state", index);
        model->UpdateState(batch);
      }
    }
  };
  model->set_training(false);
  model->SetNeighborFinder(full_finder.get());
  std::vector<double> val_pos, val_neg, test_pos, test_neg;
  eval_pass(split.val_events, *val_sampler, tc.seed + 2, &val_pos, &val_neg);
  model->Reset();
  {
    Scope span(tracer, "replay.state");
    std::vector<int64_t> pre_test;
    for (int64_t i = 0; i < split.val_end; ++i) pre_test.push_back(i);
    for (const models::Batch& batch :
         core::MakeBatches(graph, pre_test, tc.batch_size)) {
      tensor::kernels::TapeScope tape_scope;
      model->UpdateState(batch);
    }
  }
  eval_pass(split.test_events, *test_sampler, tc.seed + 3, &test_pos,
            &test_neg);

  // AUC + AP of every test setting's subset; repeated so the series has a
  // tail above its median.
  const std::vector<int64_t>* subsets[] = {
      &split.test_events, &split.test_inductive, &split.test_new_old,
      &split.test_new_new};
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::vector<int64_t>* subset : subsets) {
      const std::unordered_set<int64_t> members(subset->begin(),
                                                subset->end());
      std::vector<double> scores;
      std::vector<int> labels;
      for (size_t i = 0; i < split.test_events.size(); ++i) {
        if (members.count(split.test_events[i]) == 0) continue;
        scores.push_back(test_pos[i]);
        labels.push_back(1);
        scores.push_back(test_neg[i]);
        labels.push_back(0);
      }
      Scope span(tracer, "core.auc");
      (void)core::RocAuc(scores, labels);
      (void)core::AveragePrecision(scores, labels);
    }
  }

  // --- Metrics. ---
  MetricList& m = out.metrics;
  m.Add("graph.index_build_s", total("graph.index_build"), "s");
  m.AddTiming("graph.neighbor_query_us", Summarize(query_us_samples), 1.0,
              "us");
  m.AddTiming("graph.walk_batch_ms",
              times("graph.walk_batch"), 1e3, "ms");
  m.Add("core.split_s", total("core.split"), "s");
  m.AddTiming("core.negatives_us",
              times("core.negatives"), 1e6, "us");
  m.Add("core.negative_reject_ratio",
        Ratio(negatives_work[Counter::kSamplerCollisionsRejected],
              negatives_work[Counter::kSamplerNegatives]),
        "ratio");
  m.AddTiming("core.candidates_ms",
              times("core.candidates"), 1e3, "ms");
  m.Add("core.candidate_fallback_ratio",
        Ratio(candidate_work[Counter::kSamplerPoolFallbacks],
              static_cast<double>(candidate_rows) * k),
        "ratio");
  m.AddTiming("core.rank_us", times("core.rank"), 1e6,
              "us");
  m.AddTiming("core.auc_ms", times("core.auc"), 1e3,
              "ms");
  m.AddTiming("models.prepare_batch_ms",
              times("models.prepare_batch"), 1e3,
              "ms");
  m.AddTiming("models.forward_ms",
              times("models.forward"), 1e3, "ms");
  m.AddTiming("models.score_candidates_ms",
              times("models.score_candidates"), 1e3,
              "ms");
  m.AddTiming("models.update_state_ms",
              times("models.update_state"), 1e3, "ms");
  m.AddTiming("tensor.backward_ms",
              times("tensor.backward"), 1e3, "ms");
  m.AddTiming("tensor.optimizer_ms",
              times("tensor.optimizer"), 1e3, "ms");
  const double batches = static_cast<double>(batches_run);
  m.Add("tensor.arena_mb_per_batch",
        Ratio(train_work[Counter::kArenaBytes], batches) / (1 << 20), "MB");
  m.Add("kernels.flops_per_event",
        Ratio(train_work[Counter::kKernelFlops],
              static_cast<double>(tc.max_epochs) *
                  static_cast<double>(split.train_events.size())),
        "flop/event");
  m.Add("runtime.parallel_for_per_batch",
        Ratio(train_work[Counter::kParallelForCalls], batches), "count");
  m.Add("runtime.chunks_per_call",
        Ratio(train_work[Counter::kParallelForChunks],
              train_work[Counter::kParallelForCalls]),
        "count");
  return out;
}

}  // namespace benchtemp::perfbench
