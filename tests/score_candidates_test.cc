// Tests for blocked candidate scoring: TgnnModel::ScoreCandidates scores
// the n * k ranking pairs in row blocks, each under its own TapeScope. For
// every model kind the blocked call must give the same logits bits as one
// full-height block, leave rng_ where the one-block call leaves it, report
// the same StateBytes, and return a parentless, gradient-free Constant. The
// ctest entry `score_candidates_check` reruns this binary with
// BENCHTEMP_CHECK=1, so the NaN poison on rewound arena spans turns any Var
// that escapes its block into a mismatch.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "graph/temporal_graph.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/arena.h"
#include "tensor/numeric.h"

namespace benchtemp::models {
namespace {

using graph::NeighborFinder;
using graph::TemporalGraph;
using tensor::Var;

/// One block per call, however many pairs.
constexpr int64_t kOneBlock = std::numeric_limits<int64_t>::max();

/// Every model kind, paper models first.
std::vector<ModelKind> AllKinds() {
  std::vector<ModelKind> kinds = PaperModels();
  kinds.push_back(ModelKind::kTemp);
  kinds.push_back(ModelKind::kEdgeBank);
  kinds.push_back(ModelKind::kMotifJoint);
  return kinds;
}

TemporalGraph MakeGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 600;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

ModelConfig SmallConfig() {
  ModelConfig config;
  config.embedding_dim = 8;
  config.time_dim = 8;
  config.num_neighbors = 4;
  config.num_layers = 2;
  config.num_heads = 2;
  config.num_walks = 2;
  config.walk_length = 2;
  return config;
}

Batch EventBatch(const TemporalGraph& g, int64_t first, int64_t n) {
  Batch batch;
  for (int64_t i = first; i < first + n; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  return batch;
}

std::vector<uint32_t> Bits(const Var& v) {
  std::vector<uint32_t> bits(static_cast<size_t>(v->value.size()));
  std::memcpy(bits.data(), v->value.data(), bits.size() * sizeof(uint32_t));
  return bits;
}

/// What one ScoreCandidates call observably does.
struct CallOutcome {
  std::vector<uint32_t> logits;
  /// ScoreEdges on the next batch: equal bits mean rng_ advanced alike.
  std::vector<uint32_t> next_scores;
  int64_t state_bytes = 0;
  /// TapeScope rewinds during the call: one per block.
  int64_t blocks = 0;
  bool has_parents = true;
  bool requires_grad = true;
  int64_t rows = -1;
  int64_t cols = -1;
  /// False when a logit read a NaN-poisoned (rewound) arena span.
  bool all_finite = true;
};

/// Warms a fresh model up on 100 events, scores the next `n` positives
/// (as the eval pass does before ranking), then ranks `k` candidates per
/// positive with blocks of `block_rows` rows of the tallest intermediate.
CallOutcome ScoreOnce(const TemporalGraph& g, ModelKind kind, int64_t n,
                      int k, int64_t block_rows) {
  NeighborFinder finder(g);
  auto model = CreateModel(kind, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  model->set_training(false);
  model->UpdateState(EventBatch(g, 0, 100));
  const Batch batch = EventBatch(g, 100, n);
  std::vector<int32_t> candidates;
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      const int64_t node = (i * 7 + j * 13 + 3) % g.num_nodes();
      candidates.push_back(tensor::NarrowId(node, "candidate"));
    }
  }
  CallOutcome out;
  auto& registry = obs::MetricRegistry::Global();
  tensor::kernels::TapeScope batch_scope;
  model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
  SetCandidateBlockRowsForTest(block_rows);
  const int64_t resets_before = registry.value(obs::Counter::kArenaResets);
  const Var cand = model->ScoreCandidates(batch.srcs, candidates, batch.ts, k);
  out.blocks = registry.value(obs::Counter::kArenaResets) - resets_before;
  SetCandidateBlockRowsForTest(0);
  out.logits = Bits(cand);
  for (int64_t i = 0; i < cand->value.size(); ++i) {
    out.all_finite = out.all_finite && std::isfinite(cand->value.at(i));
  }
  out.rows = cand->value.rows();
  out.cols = cand->value.cols();
  out.has_parents = !cand->parents.empty();
  out.requires_grad = cand->requires_grad;
  out.state_bytes = model->StateBytes();
  model->UpdateState(batch);
  const Batch next = EventBatch(g, 100 + n, 20);
  out.next_scores = Bits(model->ScoreEdges(next.srcs, next.dsts, next.ts));
  return out;
}

/// Models that score candidates in blocks; the rest run one block.
bool Blocked(ModelKind kind) {
  switch (kind) {
    case ModelKind::kJodie:
    case ModelKind::kDyRep:
    case ModelKind::kTgn:
    case ModelKind::kTemp:
    case ModelKind::kCawn:
    case ModelKind::kNeurTw:
      return true;
    default:
      return false;
  }
}

class ScoreCandidatesTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
    obs::MetricRegistry::OverrideEnabledForTest(1);
  }
  void TearDown() override {
    SetCandidateBlockRowsForTest(0);
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
  }

  /// Blocked and one-block calls agree bit for bit on everything a caller
  /// can observe.
  void ExpectSameAsOneBlock(int64_t n, int k, int64_t block_rows,
                            int64_t want_blocks) {
    const TemporalGraph g = MakeGraph();
    const ModelKind kind = GetParam();
    const CallOutcome whole = ScoreOnce(g, kind, n, k, kOneBlock);
    const CallOutcome blocked = ScoreOnce(g, kind, n, k, block_rows);
    const char* name = ModelKindName(kind);
    EXPECT_EQ(whole.blocks, 1) << name;
    EXPECT_EQ(blocked.blocks, Blocked(kind) ? want_blocks : 1) << name;
    EXPECT_EQ(blocked.rows, n * k) << name;
    EXPECT_EQ(blocked.cols, 1) << name;
    EXPECT_TRUE(whole.all_finite) << name;
    EXPECT_TRUE(blocked.all_finite) << name;
    EXPECT_EQ(blocked.logits, whole.logits) << name;
    EXPECT_EQ(blocked.next_scores, whole.next_scores) << name;
    EXPECT_EQ(blocked.state_bytes, whole.state_bytes) << name;
    EXPECT_FALSE(blocked.has_parents) << name;
    EXPECT_FALSE(blocked.requires_grad) << name;
  }

  /// Blocks of a `block_rows`-row budget over n * k pairs.
  int64_t BlocksFor(int64_t n, int k, int64_t block_rows) const {
    const bool walk = GetParam() == ModelKind::kCawn ||
                      GetParam() == ModelKind::kNeurTw;
    const int64_t per_pair = walk ? 2 * SmallConfig().num_walks : 1;
    const int64_t step = std::max<int64_t>(1, block_rows / per_pair);
    return (n * k + step - 1) / step;
  }

  int original_threads_ = 1;
};

TEST_P(ScoreCandidatesTest, RaggedLastBlockMatchesOneBlock) {
  // 20 * 7 = 140 pairs: 12-row blocks leave 8 rows last on the MergeLayer
  // path; walk models (4 walk rows per pair) take 3 pairs a block, 2 last.
  ExpectSameAsOneBlock(20, 7, 12, BlocksFor(20, 7, 12));
}

TEST_P(ScoreCandidatesTest, OneCandidatePerRowMatchesOneBlock) {
  ExpectSameAsOneBlock(20, 1, 12, BlocksFor(20, 1, 12));
}

TEST_P(ScoreCandidatesTest, SingleRowBlocksMatchOneBlock) {
  ExpectSameAsOneBlock(10, 5, 1, BlocksFor(10, 5, 1));
}

TEST_P(ScoreCandidatesTest, BlockLargerThanCallIsOneBlock) {
  ExpectSameAsOneBlock(20, 7, 20 * 7 * 4 + 1, 1);
}

TEST_P(ScoreCandidatesTest, BlockedMatchesOneBlockAtEightThreads) {
  runtime::ThreadPool::Global().SetNumThreads(8);
  ExpectSameAsOneBlock(20, 7, 12, BlocksFor(20, 7, 12));
}

TEST_P(ScoreCandidatesTest, DefaultBlockSizeMatchesOneBlock) {
  // 60 * 40 = 2,400 pairs: over kCandidateBlockRows on every blocked path.
  ExpectSameAsOneBlock(60, 40, kCandidateBlockRows,
                       BlocksFor(60, 40, kCandidateBlockRows));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ScoreCandidatesTest, ::testing::ValuesIn(AllKinds()),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

// ---------------------------------------------------------------------------
// Factored MergeLayer scoring: ScoreCandidates finishes the predictor from
// each source's first-layer partial (MergeLayer::ForwardFromPartial); its
// logits must equal the unfactored MergeLayer::Forward over the tiled
// [source | candidate] pairs bit for bit.
// ---------------------------------------------------------------------------

/// Reads TgnnModel's protected predictor: naming the member through a
/// derived class is what grants the access.
struct PredictorAccess : TgnnModel {
  static const tensor::MergeLayer* Of(const TgnnModel& model) {
    return (model.*(&PredictorAccess::predictor_)).get();
  }
};

TEST(ScoreCandidatesFactoredTest, LogitsEqualUnfactoredMergeLayerForward) {
  const TemporalGraph g = MakeGraph();
  const int64_t n = 20;
  const int k = 7;
  std::vector<std::string> merge_models;
  for (const ModelKind kind : AllKinds()) {
    // Two identically warmed-up models: one ranks through ScoreCandidates,
    // the other replays the same embedding calls in the same order and
    // runs the unfactored predictor.
    std::unique_ptr<TgnnModel> models[2];
    NeighborFinder finder(g);
    const Batch batch = EventBatch(g, 100, n);
    for (auto& model : models) {
      model = CreateModel(kind, &g, SmallConfig(), 40);
      model->SetNeighborFinder(&finder);
      model->Reset();
      model->set_training(false);
      model->UpdateState(EventBatch(g, 0, 100));
    }
    const tensor::MergeLayer* predictor = PredictorAccess::Of(*models[1]);
    if (predictor == nullptr) continue;
    merge_models.push_back(ModelKindName(kind));
    std::vector<int32_t> candidates;
    std::vector<int64_t> tile;
    std::vector<double> tiled_ts;
    for (int64_t i = 0; i < n; ++i) {
      for (int j = 0; j < k; ++j) {
        const int64_t node = (i * 7 + j * 13 + 3) % g.num_nodes();
        candidates.push_back(tensor::NarrowId(node, "candidate"));
        tile.push_back(i);
        tiled_ts.push_back(batch.ts[static_cast<size_t>(i)]);
      }
    }
    tensor::kernels::TapeScope scope;
    SetCandidateBlockRowsForTest(kOneBlock);
    const Var got =
        models[0]->ScoreCandidates(batch.srcs, candidates, batch.ts, k);
    SetCandidateBlockRowsForTest(0);
    const Var src_emb = models[1]->ComputeEmbeddings(batch.srcs, batch.ts);
    const Var cand_emb = models[1]->ComputeEmbeddings(candidates, tiled_ts);
    const Var want = predictor->Forward(GatherRows(src_emb, tile), cand_emb);
    EXPECT_EQ(Bits(got), Bits(want)) << ModelKindName(kind);
  }
  // Every model that ranks through a MergeLayer was covered.
  for (const ModelKind kind : {ModelKind::kJodie, ModelKind::kDyRep,
                               ModelKind::kTgn, ModelKind::kTemp,
                               ModelKind::kTgat}) {
    EXPECT_NE(std::find(merge_models.begin(), merge_models.end(),
                        ModelKindName(kind)),
              merge_models.end())
        << ModelKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// End to end: ranking metrics, AUC and the reported state bytes of a whole
// link-prediction job are bit-identical between blocked and one-block
// scoring at pipeline depths {0, 2} and {1, 8} threads.
// ---------------------------------------------------------------------------

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ScoreCandidatesJobTest, RankingBitIdenticalAcrossBlockingDepthsThreads) {
  const int original_threads = runtime::ThreadPool::Global().num_threads();
  const TemporalGraph g = MakeGraph();
  const struct {
    int threads;
    int depth;
  } grid[] = {{1, 0}, {1, 2}, {8, 0}, {8, 2}};
  for (ModelKind kind : PaperModels()) {
    std::vector<uint64_t> reference;
    for (const auto& cell : grid) {
      for (int64_t block_rows : {kOneBlock, int64_t{12}}) {
        runtime::ThreadPool::Global().SetNumThreads(cell.threads);
        SetCandidateBlockRowsForTest(block_rows);
        core::LinkPredictionJob job;
        job.graph = &g;
        job.num_users = 40;
        job.kind = kind;
        job.model_config = SmallConfig();
        job.model_config.num_layers = 1;
        job.train_config.max_epochs = 1;
        job.train_config.batch_size = 100;
        job.train_config.seed = 5;
        job.train_config.pipeline_depth = cell.depth;
        job.train_config.mrr_k = 7;
        const core::LinkPredictionResult result = core::RunLinkPrediction(job);
        SetCandidateBlockRowsForTest(0);
        ASSERT_EQ(result.status, ModelStatus::kOk) << ModelKindName(kind);
        ASSERT_GT(result.test_ranking[0].count, 0) << ModelKindName(kind);
        const std::vector<uint64_t> probe = {
            BitsOf(result.test_ranking[0].mrr),
            BitsOf(result.test_ranking[0].hits_at_10),
            BitsOf(result.val_ranking.mrr),
            BitsOf(result.test[0].auc),
            static_cast<uint64_t>(result.efficiency.state_bytes)};
        if (reference.empty()) reference = probe;
        EXPECT_EQ(probe, reference)
            << ModelKindName(kind) << " threads=" << cell.threads
            << " depth=" << cell.depth << " block_rows=" << block_rows;
      }
    }
  }
  runtime::ThreadPool::Global().SetNumThreads(original_threads);
}

}  // namespace
}  // namespace benchtemp::models
