#include "core/trainer.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "base/fault_injector.h"
#include "core/early_stop.h"
#include "core/evaluator.h"
#include "graph/neighbor_finder.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "robustness/checkpoint.h"
#include "robustness/lineage.h"
#include "tensor/kernels/arena.h"
#include "tensor/expr.h"
#include "tensor/optimizer.h"
#include "tensor/random.h"
#include "tensor/serialize.h"

namespace benchtemp::core {

namespace {

using graph::NeighborFinder;
using graph::TemporalGraph;
using models::Batch;
using models::ModelStatus;
using models::TgnnModel;
using tensor::Tensor;
using tensor::Var;
namespace expr = tensor::expr;

// All timing flows through the observability layer's clock so the btlint
// adhoc-timing rule can hold the line against scattered chrono reads.
using obs::NowSeconds;

/// Destination sampling range: the item block for bipartite graphs, the
/// full node range otherwise.
void DstRange(const TemporalGraph& graph, int32_t num_users, int32_t* lo,
              int32_t* hi) {
  const bool bipartite = num_users > 0 && num_users < graph.num_nodes();
  *lo = bipartite ? num_users : 0;
  *hi = graph.num_nodes();
}

/// Per-batch preparation seed: decorrelated lanes of (job seed, epoch,
/// batch). NaN-retried epochs reuse the same epoch index — and therefore
/// the same seeds — so a retry replays the exact stream the rolled-back
/// attempt consumed.
uint64_t BatchSeed(uint64_t job_seed, int epoch, int64_t batch_index) {
  return tensor::SplitMix64(
      tensor::SplitMix64(job_seed, static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch_index) + 17);
}

/// Knobs of one evaluation pass beyond the scoring itself.
struct EvalPassConfig {
  /// Keys every per-batch negative/candidate draw: the pass is a pure
  /// function of (pass_seed, batch index), identical at any prefetch depth.
  uint64_t pass_seed = 0;
  int pipeline_depth = 0;
  const std::atomic<bool>* cancel = nullptr;
  /// Non-null turns on the TGB-style ranking pass.
  const CandidateSampler* candidates = nullptr;
  TiePolicy tie_policy = TiePolicy::kMeanRank;
};

/// Scores one evaluation pass over `events`: positives paired with keyed
/// negatives (and, when ranking is on, k keyed candidates scored through
/// one ScoreCandidates call per batch); the model's state advances through the
/// stream. Batch preparation runs through the same BatchPrefetcher as
/// training, so prefetch depth changes scheduling, never results. Fills
/// per-event positive/negative scores, and per-event ranks when ranking is
/// on (indexed by position in `events`; 0 = not scored).
void ScorePass(TgnnModel* model, const TemporalGraph& graph,
               const std::vector<int64_t>& events, int batch_size,
               const EdgeSampler* sampler, const EvalPassConfig& cfg,
               std::vector<double>* pos_scores,
               std::vector<double>* neg_scores,
               std::vector<double>* ranks) {
  pos_scores->assign(events.size(), 0.0);
  neg_scores->assign(events.size(), 0.0);
  if (cfg.candidates != nullptr) ranks->assign(events.size(), 0.0);
  const std::vector<Batch> batches = MakeBatches(graph, events, batch_size);
  auto prepare = [&](int64_t bi) {
    pipeline::PreparedBatch pb;
    pb.index = bi;
    const Batch& pbatch = batches[static_cast<size_t>(bi)];
    const uint64_t seed = BatchSeed(cfg.pass_seed, 0, bi);
    pb.negatives = sampler->SampleNegativesKeyed(tensor::SplitMix64(seed, 0),
                                                 pbatch.srcs, pbatch.dsts);
    if (cfg.candidates != nullptr) {
      pb.candidates = cfg.candidates->SampleCandidateBatch(
          tensor::SplitMix64(seed, 1), pbatch.srcs, pbatch.dsts);
    }
    return pb;
  };
  pipeline::BatchPrefetcher prefetcher(static_cast<int64_t>(batches.size()),
                                       cfg.pipeline_depth, prepare,
                                       cfg.cancel);
  size_t cursor = 0;
  std::vector<double> row;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    // Declared first so every Var of this batch dies before the rewind.
    tensor::kernels::TapeScope tape_scope;
    pipeline::PreparedBatch pb;
    if (!prefetcher.Next(&pb)) break;
    const Batch& batch = batches[static_cast<size_t>(pb.index)];
    Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    Var neg = model->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
    for (int64_t i = 0; i < batch.size(); ++i) {
      (*pos_scores)[cursor + static_cast<size_t>(i)] = pos->value.at(i);
      (*neg_scores)[cursor + static_cast<size_t>(i)] = neg->value.at(i);
    }
    if (cfg.candidates != nullptr) {
      const int k = cfg.candidates->k();
      // One call over all batch * k candidate pairs, scored in row blocks.
      Var cand = model->ScoreCandidates(batch.srcs, pb.candidates, batch.ts,
                                        k);
      row.resize(static_cast<size_t>(k));
      for (int64_t i = 0; i < batch.size(); ++i) {
        for (int j = 0; j < k; ++j) {
          row[static_cast<size_t>(j)] = cand->value.at(i * k + j);
        }
        (*ranks)[cursor + static_cast<size_t>(i)] = RankOfPositive(
            (*pos_scores)[cursor + static_cast<size_t>(i)], row.data(), k,
            cfg.tie_policy);
      }
    }
    cursor += static_cast<size_t>(batch.size());
    model->UpdateState(batch);
  }
}

/// Ranking metrics over the subset of `events` listed in `subset`,
/// skipping events a canceled pass never scored (rank 0).
RankingMetrics SubsetRanking(const std::vector<int64_t>& events,
                             const std::vector<int64_t>& subset,
                             const std::vector<double>& ranks) {
  if (ranks.empty()) return RankingMetrics{};
  std::unordered_set<int64_t> members(subset.begin(), subset.end());
  std::vector<double> selected;
  for (size_t i = 0; i < events.size(); ++i) {
    if (members.count(events[i]) == 0) continue;
    if (ranks[i] < 1.0) continue;  // unscored slot of a canceled pass
    selected.push_back(ranks[i]);
  }
  return RankingFromRanks(selected);
}

/// BENCHTEMP_MRR_K: candidates per positive when TrainConfig leaves
/// mrr_k at -1; unset/invalid -> 0 (ranking off).
int MrrKFromEnv() {
  const char* value = std::getenv("BENCHTEMP_MRR_K");
  if (value == nullptr || value[0] == '\0') return 0;
  const int k = std::atoi(value);
  return k > 0 ? k : 0;
}

/// AUC/AP over the subset of `events` listed in `subset`.
SettingMetrics SubsetMetrics(const std::vector<int64_t>& events,
                             const std::vector<int64_t>& subset,
                             const std::vector<double>& pos_scores,
                             const std::vector<double>& neg_scores) {
  std::unordered_set<int64_t> members(subset.begin(), subset.end());
  std::vector<double> scores;
  std::vector<int> labels;
  for (size_t i = 0; i < events.size(); ++i) {
    if (members.count(events[i]) == 0) continue;
    scores.push_back(pos_scores[i]);
    labels.push_back(1);
    scores.push_back(neg_scores[i]);
    labels.push_back(0);
  }
  SettingMetrics metrics;
  metrics.count = static_cast<int64_t>(subset.size());
  if (!scores.empty()) {
    metrics.auc = RocAuc(scores, labels);
    metrics.ap = AveragePrecision(scores, labels);
  }
  return metrics;
}

/// True when the job's watchdog (if any) has expired.
bool Canceled(const TrainConfig& tc) {
  return tc.cancel_token != nullptr &&
         tc.cancel_token->load(std::memory_order_relaxed);
}

/// The one epoch-and-batch training loop behind every task (DESIGN.md
/// "Training loop"): link prediction trains through it, and node
/// classification pre-trains through it before fitting its decoder. Each
/// batch takes its keyed negatives and the model's sampling stage from the
/// prefetcher, scores positives and negatives under one TapeScope, and
/// takes an averaged-BCE Adam step behind three finite-value sentinels.
/// The loop owns everything that makes an epoch boundary a deterministic
/// cut point — parameters, Adam moments, both RNG streams, the learning
/// rate, and the monitor / validation metrics / best-epoch parameters that
/// the end-of-epoch hook keeps — and snapshots it for NaN rollback and for
/// the on-disk checkpoint lineage. The hook is the only per-task code.
class TrainingLoop {
 public:
  TrainingLoop(const TrainConfig& tc, TgnnModel* model,
               std::vector<Batch> batches, int32_t dst_lo, int32_t dst_hi,
               EarlyStopMonitor stop_monitor)
      : monitor(stop_monitor),
        tc_(tc),
        model_(model),
        batches_(std::move(batches)),
        params_(model->Parameters()),
        optimizer_(params_, tc.learning_rate),
        sampler_(dst_lo, dst_hi, tc.seed + 1),
        lineage_(tc.checkpoint_path, tc.checkpoint_generations),
        checkpointing_(model->trainable() && !tc.checkpoint_path.empty()),
        // An explicit TrainConfig depth wins over BENCHTEMP_PIPELINE.
        depth_(tc.pipeline_depth >= 0 ? tc.pipeline_depth
                                      : pipeline::DepthFromEnv()) {}
  // Prefetch tasks hold `this` while Run() is on the stack.
  TrainingLoop(const TrainingLoop&) = delete;
  TrainingLoop& operator=(const TrainingLoop&) = delete;

  /// Trains until `max_epochs` epochs are kept (resumed ones included),
  /// with `finder` as the neighbor index. `end_of_epoch` runs after every
  /// kept epoch, before its snapshot, and returns true to stop. Returns the
  /// job's annotation so far: "" when training ended normally, "*" when the
  /// model reported a runtime error (in a batch or in the hook), "x"
  /// (non-convergence) when the cancel token fired or the NaN-retry budget
  /// ran out.
  std::string Run(int max_epochs, const NeighborFinder* finder,
                  const std::function<bool()>& end_of_epoch) {
    int epoch = 0;
    robustness::JobCheckpoint rollback = Snapshot(epoch);
    // Resume: a matching on-disk checkpoint restarts the job exactly where
    // it died. A corrupt newest generation silently falls back to an older
    // one (counted in robustness.ckpt_fallbacks); a seed mismatch means a
    // different job left these files behind, so start fresh.
    robustness::JobCheckpoint ckpt;
    if (checkpointing_ && lineage_.Load(&ckpt).ok && ckpt.seed == tc_.seed &&
        Restore(ckpt)) {
      epoch = ckpt.next_epoch;
      epochs_run_ = ckpt.epochs_run;
      nan_retries_ = ckpt.nan_retries;
      total_epoch_seconds_ = ckpt.total_epoch_seconds;
      retried_epoch_seconds_ = ckpt.retried_epoch_seconds;
      rollback = Snapshot(epoch);
      resumed_ = true;
    }
    auto& registry = obs::MetricRegistry::Global();
    // A resumed monitor that has already stopped ended training before the
    // job died: train no further.
    while (epoch < max_epochs && !(resumed_ && monitor.stopped())) {
      const double epoch_start = NowSeconds();
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
        model_->Reset();
      }
      model_->set_training(true);
      model_->SetNeighborFinder(finder);
      Step step = Step::kOk;
      {
        // Batch preparation — stall probe, keyed negatives, the model's
        // sampling stage — is a pure function of (epoch, batch index), so
        // it runs inline at depth 0 and ahead on pool workers otherwise
        // with bit-identical results. Scoped so the prefetcher drains
        // before the hook swaps the neighbor index (and so a NaN retry
        // discards, never checkpoints, prefetched batches).
        auto prepare = [this, epoch](int64_t bi) {
          pipeline::PreparedBatch pb;
          pb.index = bi;
          // Injected batch stall, probed here so it lands on the producer
          // thread when the pipeline is on; the consumer's Next() still
          // polls the cancel token while it waits for the stalled slot.
          auto& injector = base::FaultInjector::Global();
          if (injector.Fire(base::FaultSite::kStallBatch)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(injector.stall_ms()));
          }
          const Batch& batch = batches_[static_cast<size_t>(bi)];
          const uint64_t seed = BatchSeed(tc_.seed, epoch, bi);
          pb.negatives = sampler_.SampleNegativesKeyed(
              tensor::SplitMix64(seed, 0), batch.srcs, batch.dsts);
          pb.inputs = model_->PrepareBatch(batch, pb.negatives, seed);
          return pb;
        };
        pipeline::BatchPrefetcher prefetcher(
            static_cast<int64_t>(batches_.size()), depth_, prepare,
            tc_.cancel_token);
        for (size_t bi = 0; bi < batches_.size() && step == Step::kOk; ++bi) {
          step = TrainBatch(&prefetcher);
        }
        const pipeline::PipelineStats& s = prefetcher.stats();
        pipeline_.batches += s.batches;
        pipeline_.prefetched += s.prefetched;
        pipeline_.prepare_seconds += s.prepare_seconds;
        pipeline_.wait_seconds += s.wait_seconds;
      }
      if (step == Step::kRuntimeError) return "*";
      if (step == Step::kCanceled) return "x";
      if (step == Step::kNanEvent) {
        // Divergence recovery: roll back to the last epoch boundary, back
        // off the learning rate, and retry — a recorded, recoverable event
        // instead of a poisoned sweep.
        ++nan_retries_;
        retried_epoch_seconds_ += NowSeconds() - epoch_start;
        registry.Add(obs::Counter::kNanRetries, 1);
        registry.Add(obs::Counter::kRollbacks, 1);
        const bool restored = Restore(rollback);
        tensor::CheckOrDie(restored, "NaN rollback: corrupt epoch snapshot");
        if (nan_retries_ > tc_.max_nan_retries) return "x";
        optimizer_.set_learning_rate(optimizer_.learning_rate() *
                                     tc_.lr_backoff);
        continue;  // retry the same epoch
      }
      total_epoch_seconds_ += NowSeconds() - epoch_start;
      ++epochs_run_;
      const bool stop = end_of_epoch();
      if (model_->status() == ModelStatus::kRuntimeError) return "*";
      ++epoch;
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kCheckpoint);
        rollback = Snapshot(epoch);
        int64_t bytes = 0;
        if (checkpointing_ && lineage_.Save(rollback, &bytes)) {
          checkpoint_bytes_ = bytes;
        }
      }
      if (stop) break;
      if (Canceled(tc_)) return "x";
    }
    return "";
  }

  /// Bookkeeping of a job's terminal exit, however it ended: drains the
  /// thread's phase slot into this run, fills the efficiency fields the
  /// loop owns, and retires the checkpoint lineage (which outlives a job
  /// only when the job dies mid-flight).
  void Finish(EfficiencyStats* eff) {
    auto& registry = obs::MetricRegistry::Global();
    registry.DrainThisThread(&phases_);
    eff->epochs_run = epochs_run_;
    eff->best_epoch = monitor.best_epoch();
    // Throughput over *kept* epochs only: wall-time of rolled-back epochs
    // is reported separately so a retried run does not misstate its speed.
    eff->seconds_per_epoch =
        epochs_run_ > 0 ? total_epoch_seconds_ / epochs_run_ : 0.0;
    eff->retried_epoch_seconds = retried_epoch_seconds_;
    if (eff->seconds_per_epoch > 0.0) {
      int64_t events = 0;
      for (const Batch& batch : batches_) events += batch.size();
      eff->train_events_per_second =
          static_cast<double>(events) / eff->seconds_per_epoch;
    }
    eff->max_rss_gb = MaxRssGb();
    eff->state_bytes = model_->StateBytes();
    eff->parameter_bytes = model_->ParameterBytes();
    eff->checkpoint_bytes = checkpoint_bytes_;
    eff->phase_seconds = phases_.seconds;
    eff->pipeline_depth = depth_;
    eff->pipeline_batches = pipeline_.batches;
    eff->pipeline_prefetched = pipeline_.prefetched;
    eff->pipeline_prepare_seconds = pipeline_.prepare_seconds;
    eff->pipeline_wait_seconds = pipeline_.wait_seconds;
    eff->pipeline_overlap_ratio =
        depth_ > 0 && pipeline_.batches > 0 ? pipeline_.overlap_ratio() : 0.0;
    // Gauges are last-write-wins and excluded from the counters digest, so
    // sync and async runs stay digest-comparable.
    if (obs::MetricRegistry::Enabled() && pipeline_.batches > 0) {
      registry.SetGauge("pipeline.depth", static_cast<double>(depth_));
      registry.SetGauge("pipeline.prefetch_wait_ms",
                        pipeline_.wait_seconds * 1000.0);
      registry.SetGauge("pipeline.overlap_ratio",
                        eff->pipeline_overlap_ratio);
    }
    if (retried_epoch_seconds_ > 0.0) {
      registry.SetGauge("train.retried_epoch_seconds",
                        retried_epoch_seconds_);
    }
    if (checkpointing_) (void)lineage_.Remove();
  }

  const std::vector<Var>& params() const { return params_; }
  int pipeline_depth() const { return depth_; }
  int nan_retries() const { return nan_retries_; }
  bool resumed() const { return resumed_; }

  // Kept by the end-of-epoch hook; part of every snapshot and checkpoint.
  EarlyStopMonitor monitor;
  SettingMetrics val;
  std::string best_params;

 private:
  /// How one training batch ended.
  enum class Step { kOk, kNanEvent, kRuntimeError, kCanceled };

  Step TrainBatch(pipeline::BatchPrefetcher* prefetcher) {
    // The tape scope is the first declaration, so the batch's Vars (pos/
    // neg/loss graph) are destroyed before the arena rewinds their storage.
    tensor::kernels::TapeScope tape_scope;
    if (Canceled(tc_)) return Step::kCanceled;
    pipeline::PreparedBatch pb;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kSample);
      if (!prefetcher->Next(&pb)) return Step::kCanceled;
    }
    // Injected forward-pass crash, on the consumer thread so it reaches the
    // sweep's job boundary rather than a pool worker.
    if (base::FaultInjector::Global().Fire(base::FaultSite::kThrowForward)) {
      throw std::runtime_error("injected fault: forward pass");
    }
    const Batch& batch = batches_[static_cast<size_t>(pb.index)];
    Var pos, neg;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kForward);
      model_->SetPreparedInputs(pb.inputs.get());
      pos = model_->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
      neg = model_->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
      model_->SetPreparedInputs(nullptr);
    }
    if (model_->status() == ModelStatus::kRuntimeError) {
      return Step::kRuntimeError;
    }
    if (model_->trainable()) {
      bool finite = true;
      Var loss;
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kForward);
        Tensor ones({pos->value.size()});
        ones.Fill(1.0f);
        Tensor zeros({neg->value.size()});
        // Averaging the two BCE halves is a fused 2-op pass: one tape node
        // instead of an eager Add node plus a ScalarMul node.
        loss = expr::ScalarMul(
            expr::Add(expr::Ex(BceWithLogits(pos, ones)),
                      expr::Ex(BceWithLogits(neg, zeros))),
            0.5f);
        // NaN/Inf sentinel 1: a non-finite loss means this step would
        // poison the parameters — bail out before touching them.
        finite = tensor::AllFinite(loss->value);
      }
      if (base::FaultInjector::Global().Fire(base::FaultSite::kNanLoss)) {
        finite = false;
      }
      if (!finite) return Step::kNanEvent;
      obs::ScopedPhaseTimer timer(obs::Phase::kBackward);
      optimizer_.ZeroGrad();
      Backward(loss);
      // Sentinel 2: gradients can overflow even under a finite loss.
      if (!tensor::GradsFinite(params_)) return Step::kNanEvent;
      tensor::ClipGradNorm(params_, tc_.grad_clip_norm);
      optimizer_.Step();
      // Sentinel 3: the Adam update itself (tiny v̂, large m̂) can still
      // push a parameter out of range.
      if (!tensor::ParamsFinite(params_)) return Step::kNanEvent;
    }
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
      model_->UpdateState(batch);
    }
    auto& registry = obs::MetricRegistry::Global();
    registry.Add(obs::Counter::kTrainBatches, 1);
    registry.Add(obs::Counter::kTrainEvents, batch.size());
    return Step::kOk;
  }

  robustness::JobCheckpoint Snapshot(int next_epoch) const {
    return {.next_epoch = next_epoch,
            .epochs_run = epochs_run_,
            .nan_retries = nan_retries_,
            .learning_rate = optimizer_.learning_rate(),
            .total_epoch_seconds = total_epoch_seconds_,
            .retried_epoch_seconds = retried_epoch_seconds_,
            .seed = tc_.seed,
            .monitor = monitor.state(),
            .val_auc = val.auc,
            .val_ap = val.ap,
            .val_count = val.count,
            .model_rng = model_->SaveRngState(),
            .sampler_rng = sampler_.SaveRngState(),
            .params = tensor::SnapshotParameters(params_),
            .adam = optimizer_.SnapshotState(),
            .best_params = best_params};
  }

  bool Restore(const robustness::JobCheckpoint& s) {
    if (!tensor::RestoreParameters(s.params, params_)) return false;
    if (!optimizer_.RestoreState(s.adam)) return false;
    // Grad-buffer allocation is trajectory state: Adam skips parameters
    // whose lazily allocated grad buffer is still empty, but applies
    // momentum decay to ones that were touched in an earlier epoch and
    // merely zeroed since. Pre-allocating every buffer makes a restored
    // process bit-identical to the uninterrupted one (a zero grad with zero
    // moments is an exact no-op).
    for (const Var& p : params_) p->EnsureGrad();
    if (!model_->LoadRngState(s.model_rng)) return false;
    if (!sampler_.LoadRngState(s.sampler_rng)) return false;
    optimizer_.set_learning_rate(s.learning_rate);
    monitor.Restore(s.monitor);
    val = {s.val_auc, s.val_ap, s.val_count};
    best_params = s.best_params;
    return true;
  }

  const TrainConfig& tc_;
  TgnnModel* model_;
  const std::vector<Batch> batches_;
  const std::vector<Var> params_;
  tensor::Adam optimizer_;
  RandomEdgeSampler sampler_;
  robustness::CheckpointLineage lineage_;
  const bool checkpointing_;
  const int depth_;
  int epochs_run_ = 0;
  int nan_retries_ = 0;
  double total_epoch_seconds_ = 0.0;
  double retried_epoch_seconds_ = 0.0;
  int64_t checkpoint_bytes_ = 0;
  bool resumed_ = false;
  pipeline::PipelineStats pipeline_;
  // Per-run phase attribution: drained from this thread's slot only, so a
  // concurrent job on another thread never bleeds in.
  obs::PhaseTotals phases_;
};

/// Predicted class of each row of decoder logits: the first maximum over
/// the classes, or logit > 0 for a one-logit binary head.
std::vector<int> PredictedClasses(const Tensor& logits) {
  const int64_t cols = logits.cols();
  std::vector<int> pred(static_cast<size_t>(logits.rows()));
  for (int64_t i = 0; i < logits.rows(); ++i) {
    const float* row = &logits.data()[i * cols];
    int best = cols == 1 && row[0] > 0.0f ? 1 : 0;
    for (int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = static_cast<int>(c);
    }
    pred[static_cast<size_t>(i)] = best;
  }
  return pred;
}

/// AUC of the positive class (label 1) from decoder logits: the binary
/// head's one logit, or the one-vs-rest logit of class 1.
double PositiveClassAuc(const Tensor& logits, const std::vector<int64_t>& y) {
  const int64_t cols = logits.cols();
  std::vector<double> scores;
  std::vector<int> labels;
  for (size_t i = 0; i < y.size(); ++i) {
    scores.push_back(
        logits.at(static_cast<int64_t>(i) * cols + (cols == 1 ? 0 : 1)));
    labels.push_back(y[i] == 1 ? 1 : 0);
  }
  return RocAuc(scores, labels);
}

}  // namespace

double MaxRssGb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
}

std::vector<Batch> MakeBatches(const TemporalGraph& graph,
                               const std::vector<int64_t>& events,
                               int batch_size) {
  std::vector<Batch> batches;
  Batch current;
  for (int64_t event_idx : events) {
    const graph::Interaction& e = graph.event(event_idx);
    current.srcs.push_back(e.src);
    current.dsts.push_back(e.dst);
    current.ts.push_back(e.ts);
    current.edge_idxs.push_back(e.edge_idx);
    if (current.size() >= batch_size) {
      batches.push_back(std::move(current));
      current = Batch();
    }
  }
  if (current.size() > 0) batches.push_back(std::move(current));
  return batches;
}

LinkPredictionResult RunLinkPrediction(const LinkPredictionJob& job) {
  tensor::CheckOrDie(job.graph != nullptr, "RunLinkPrediction: null graph");
  const TemporalGraph& graph = *job.graph;
  const TrainConfig& tc = job.train_config;
  LinkPredictionResult result;

  LinkPredictionSplit split = SplitLinkPrediction(graph, job.split_config);
  NeighborFinder train_finder(graph, split.train_events);
  NeighborFinder full_finder(graph);

  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);
  auto val_sampler =
      MakeEdgeSampler(tc.negative_sampling, graph, split.train_events, dst_lo,
                      dst_hi, tc.seed + 2);
  auto test_sampler =
      MakeEdgeSampler(tc.negative_sampling, graph, split.train_events, dst_lo,
                      dst_hi, tc.seed + 3);

  // TGB-style ranking evaluator: k keyed candidates per positive, scored in
  // the same val/test passes. A destination range too small to rank against
  // (fewer than 2 ids) leaves the evaluator off rather than dying.
  const int mrr_k_request = tc.mrr_k >= 0 ? tc.mrr_k : MrrKFromEnv();
  std::unique_ptr<CandidateSampler> candidate_sampler;
  if (mrr_k_request > 0 && dst_hi - dst_lo >= 2) {
    CandidateConfig candidate_config;
    candidate_config.k = mrr_k_request;
    candidate_config.historical_fraction = tc.mrr_historical_fraction;
    candidate_sampler = std::make_unique<CandidateSampler>(
        graph, split.train_events, dst_lo, dst_hi, candidate_config);
    result.mrr_k = candidate_sampler->k();
  }

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  TrainingLoop loop(tc, model.get(),
                    MakeBatches(graph, split.train_events, tc.batch_size),
                    dst_lo, dst_hi,
                    EarlyStopMonitor(tc.patience, tc.tolerance));
  EvalPassConfig eval_cfg;
  eval_cfg.pipeline_depth = loop.pipeline_depth();
  eval_cfg.cancel = tc.cancel_token;
  eval_cfg.candidates = candidate_sampler.get();
  eval_cfg.tie_policy = tc.mrr_tie_policy;

  // End of every kept epoch: transductive validation with the full neighbor
  // index and the state left at the end of the training stream, then early
  // stopping (keeping the best epoch's parameters) and the time budget.
  const double start = NowSeconds();
  bool hit_budget = false;
  auto validate = [&] {
    model->set_training(false);
    model->SetNeighborFinder(&full_finder);
    std::vector<double> val_pos, val_neg, val_ranks;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kEval);
      eval_cfg.pass_seed = tc.seed + 2;
      ScorePass(model.get(), graph, split.val_events, tc.batch_size,
                val_sampler.get(), eval_cfg, &val_pos, &val_neg, &val_ranks);
    }
    if (model->status() == ModelStatus::kRuntimeError) return true;
    loop.val =
        SubsetMetrics(split.val_events, split.val_events, val_pos, val_neg);
    if (candidate_sampler != nullptr) {
      result.val_ranking =
          SubsetRanking(split.val_events, split.val_events, val_ranks);
    }
    if (model->trainable()) {
      const bool stop = loop.monitor.Update(loop.val.auc);
      if (loop.monitor.rounds_without_improvement() == 0) {
        loop.best_params = tensor::SnapshotParameters(loop.params());
      }
      if (stop) return true;
    }
    hit_budget = tc.time_budget_seconds > 0.0 &&
                 NowSeconds() - start > tc.time_budget_seconds;
    return hit_budget;
  };
  result.annotation =
      loop.Run(model->trainable() ? tc.max_epochs : 1, &train_finder, validate);
  result.status = model->status();
  result.val_transductive = loop.val;
  result.nan_retries = loop.nan_retries();
  result.resumed = loop.resumed();
  EfficiencyStats& eff = result.efficiency;
  if (!result.annotation.empty()) {
    loop.Finish(&eff);
    return result;  // skip the (expensive) test pass
  }

  // Evaluate the best epoch's weights, not the last: early stopping keeps
  // training `patience` epochs past the peak, and those extra updates
  // should not leak into the test metrics.
  if (model->trainable() && !loop.best_params.empty()) {
    const bool restored =
        tensor::RestoreParameters(loop.best_params, loop.params());
    tensor::CheckOrDie(restored, "best-epoch restore: corrupt snapshot");
  }

  // Final evaluation: rebuild state over train+val, then one chronological
  // pass over the whole test window scored under every setting.
  model->set_training(false);
  model->SetNeighborFinder(&full_finder);
  model->Reset();
  std::vector<int64_t> pre_test_events(static_cast<size_t>(split.val_end));
  std::iota(pre_test_events.begin(), pre_test_events.end(), 0);
  std::vector<double> test_pos, test_neg, test_ranks;
  double inference_seconds = 0.0;
  {
    obs::ScopedPhaseTimer timer(obs::Phase::kEval);
    for (const Batch& batch :
         MakeBatches(graph, pre_test_events, tc.batch_size)) {
      tensor::kernels::TapeScope tape_scope;
      model->UpdateState(batch);  // state replay only, no scoring
    }
    const double inference_start = NowSeconds();
    eval_cfg.pass_seed = tc.seed + 3;
    ScorePass(model.get(), graph, split.test_events, tc.batch_size,
              test_sampler.get(), eval_cfg, &test_pos, &test_neg,
              &test_ranks);
    inference_seconds = NowSeconds() - inference_start;
  }
  loop.Finish(&eff);
  result.status = model->status();
  if (result.status == ModelStatus::kRuntimeError) {
    result.annotation = "*";
    return result;
  }

  // Indexed by static_cast<int>(Setting).
  const std::array<const std::vector<int64_t>*, 4> settings = {
      &split.test_events, &split.test_inductive, &split.test_new_old,
      &split.test_new_new};
  for (size_t s = 0; s < settings.size(); ++s) {
    result.test[s] =
        SubsetMetrics(split.test_events, *settings[s], test_pos, test_neg);
    if (candidate_sampler != nullptr) {
      result.test_ranking[s] =
          SubsetRanking(split.test_events, *settings[s], test_ranks);
    }
  }

  eff.converged = !model->trainable() || loop.monitor.stopped();
  // Pairs scored by the test pass: positive + negative per event, plus the
  // k ranking candidates per event when the MRR evaluator is on.
  const int64_t scored = (2 + static_cast<int64_t>(result.mrr_k)) *
                         static_cast<int64_t>(split.test_events.size());
  if (scored > 0 && inference_seconds > 0.0) {
    eff.inference_seconds_per_100k =
        inference_seconds / static_cast<double>(scored) * 1e5;
    // Edge scores per second of the test pass — the number the k-way
    // fused-scoring perf gate watches: one ScoreCandidates forward per
    // batch keeps it in the one-negative pass's band even at k=20.
    eff.eval_events_per_second =
        static_cast<double>(scored) / inference_seconds;
  }
  if (model->trainable() && !eff.converged && hit_budget) {
    result.annotation = "x";
  }
  return result;
}

NodeClassificationResult RunNodeClassification(
    const NodeClassificationJob& job) {
  tensor::CheckOrDie(job.graph != nullptr,
                     "RunNodeClassification: null graph");
  const TemporalGraph& graph = *job.graph;
  const TrainConfig& tc = job.train_config;
  NodeClassificationResult result;
  tensor::CheckOrDie(graph.HasLabels(),
                     "RunNodeClassification: dataset has no labels");
  const int32_t num_classes = std::max(graph.NumLabelClasses(), 2);
  const bool binary = num_classes <= 2;

  NodeClassificationSplit split =
      SplitNodeClassification(graph, job.split_config);
  NeighborFinder full_finder(graph);
  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);

  // Self-supervised link-prediction pre-training on the full neighbor
  // index: exactly `pretrain_epochs` kept epochs, nothing at epoch ends.
  TrainingLoop loop(tc, model.get(),
                    MakeBatches(graph, split.train_events, tc.batch_size),
                    dst_lo, dst_hi, EarlyStopMonitor());
  EfficiencyStats& eff = result.efficiency;
  result.annotation = loop.Run(model->trainable() ? job.pretrain_epochs : 0,
                               &full_finder, [] { return false; });
  result.status = model->status();
  if (!result.annotation.empty()) {
    loop.Finish(&eff);
    return result;
  }

  // Frozen-embedding extraction: one chronological pass over the stream
  // caching each labeled event's source-node embedding.
  model->set_training(false);
  model->SetNeighborFinder(&full_finder);
  model->Reset();
  const int64_t d = model->embedding_dim();
  Tensor features({graph.num_events(), d});
  std::vector<int32_t> labels(static_cast<size_t>(graph.num_events()), -1);
  {
    obs::ScopedPhaseTimer timer(obs::Phase::kEval);
    std::vector<int64_t> all_events(static_cast<size_t>(graph.num_events()));
    std::iota(all_events.begin(), all_events.end(), 0);
    int64_t cursor = 0;
    for (const Batch& batch : MakeBatches(graph, all_events, tc.batch_size)) {
      tensor::kernels::TapeScope tape_scope;
      Var emb = model->ComputeEmbeddings(batch.srcs, batch.ts);
      for (int64_t i = 0; i < batch.size(); ++i) {
        for (int64_t c = 0; c < d; ++c) {
          features.at(cursor + i, c) = emb->value.at(i * d + c);
        }
        labels[static_cast<size_t>(cursor + i)] =
            graph.event(cursor + i).label;
      }
      cursor += batch.size();
      model->UpdateState(batch);
    }
  }

  // Decoder: 2-layer MLP on the frozen embeddings.
  tensor::Rng decoder_rng(tc.seed + 71);
  const int64_t out_dim = binary ? 1 : num_classes;
  tensor::Mlp decoder({d, std::max<int64_t>(d, 16), out_dim}, decoder_rng);
  tensor::Adam decoder_opt(decoder.Parameters(), 1e-2f);

  auto gather = [&](const std::vector<int64_t>& events, Tensor* x,
                    std::vector<int64_t>* y) {
    std::vector<float> rows;
    for (int64_t i : events) {
      if (labels[static_cast<size_t>(i)] < 0) continue;
      for (int64_t c = 0; c < d; ++c) rows.push_back(features.at(i, c));
      y->push_back(labels[static_cast<size_t>(i)]);
    }
    *x = Tensor::FromVector({static_cast<int64_t>(y->size()), d},
                            std::move(rows));
  };
  Tensor x_train, x_val, x_test;
  std::vector<int64_t> y_train, y_val, y_test;
  gather(split.train_events, &x_train, &y_train);
  gather(split.val_events, &x_val, &y_val);
  gather(split.test_events, &x_test, &y_test);

  // The decoder is cheap, so it gets a more patient monitor than the
  // expensive TGNN training loop.
  EarlyStopMonitor monitor(std::max(tc.patience, 8), tc.tolerance);
  double decoder_seconds = 0.0;
  int decoder_epochs_run = 0;
  // Decoder weights at the monitor's best epoch, restored before the test
  // metrics so early stopping evaluates the peak — not the last — decoder.
  std::string best_decoder;
  for (int epoch = 0; epoch < job.decoder_epochs; ++epoch) {
    // Scopes the decoder epoch's whole graph (loss and the validation
    // pass below both live within one tape).
    tensor::kernels::TapeScope tape_scope;
    if (Canceled(tc)) {
      result.annotation = "x";
      loop.Finish(&eff);
      return result;
    }
    const double epoch_start = NowSeconds();
    Var loss;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kForward);
      Var logits = decoder.Forward(tensor::Constant(x_train));
      if (binary) {
        Tensor targets({static_cast<int64_t>(y_train.size())});
        for (size_t i = 0; i < y_train.size(); ++i) {
          targets.at(static_cast<int64_t>(i)) = y_train[i] == 1 ? 1.0f : 0.0f;
        }
        loss = BceWithLogits(logits, targets);
      } else {
        loss = SoftmaxCrossEntropy(logits, y_train);
      }
    }
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kBackward);
      decoder_opt.ZeroGrad();
      Backward(loss);
      decoder_opt.Step();
    }
    decoder_seconds += NowSeconds() - epoch_start;
    ++decoder_epochs_run;
    // Validation AUC for the binary task, accuracy for the multi-class one.
    Var val_logits = decoder.Forward(tensor::Constant(x_val));
    const double val_metric =
        binary ? PositiveClassAuc(val_logits->value, y_val)
               : Accuracy(PredictedClasses(val_logits->value),
                          std::vector<int>(y_val.begin(), y_val.end()));
    const bool stop = monitor.Update(val_metric);
    if (monitor.rounds_without_improvement() == 0) {
      best_decoder = tensor::SnapshotParameters(decoder.Parameters());
    }
    if (stop) break;
  }
  if (!best_decoder.empty()) {
    const bool restored =
        tensor::RestoreParameters(best_decoder, decoder.Parameters());
    tensor::CheckOrDie(restored, "best-decoder restore: corrupt snapshot");
  }

  // Test metrics (Appendix G): accuracy and weighted P/R/F1 of the
  // predicted classes, and the positive (fraud) class AUC — one-vs-rest
  // for comparability when the task is multi-class.
  Var logits = decoder.Forward(tensor::Constant(x_test));
  const std::vector<int> pred = PredictedClasses(logits->value);
  const std::vector<int> actual(y_test.begin(), y_test.end());
  result.test_auc = PositiveClassAuc(logits->value, y_test);
  result.accuracy = Accuracy(pred, actual);
  const WeightedPrf prf = WeightedPrecisionRecallF1(pred, actual, num_classes);
  result.precision_weighted = prf.precision;
  result.recall_weighted = prf.recall;
  result.f1_weighted = prf.f1;

  // The loop fills the pre-training columns; the Epoch column counts the
  // decoder's epochs, and Runtime averages over both kinds of epoch.
  loop.Finish(&eff);
  const int pretrain_epochs = eff.epochs_run;
  const double pretrain_seconds = eff.seconds_per_epoch * pretrain_epochs;
  eff.epochs_run = decoder_epochs_run;
  eff.best_epoch = monitor.best_epoch();
  eff.converged = monitor.stopped();
  const int epochs = pretrain_epochs + decoder_epochs_run;
  eff.seconds_per_epoch =
      epochs > 0 ? (pretrain_seconds + decoder_seconds) / epochs : 0.0;
  return result;
}

}  // namespace benchtemp::core
