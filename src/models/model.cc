#include "models/model.h"

#include <algorithm>
#include <atomic>

#include "tensor/kernels/arena.h"
#include "tensor/kernels/kernels.h"

namespace benchtemp::models {

using tensor::Tensor;
using tensor::Var;
namespace kernels = tensor::kernels;

namespace {

// btlint: allow(mutable-static) — atomic test hook, relaxed loads only.
std::atomic<int64_t> g_block_rows_override{0};

int64_t CandidateBlockRows() {
  const int64_t forced = g_block_rows_override.load(std::memory_order_relaxed);
  return forced > 0 ? forced : kCandidateBlockRows;
}

}  // namespace

void SetCandidateBlockRowsForTest(int64_t rows) {
  g_block_rows_override.store(rows, std::memory_order_relaxed);
}

TgnnModel::TgnnModel(const graph::TemporalGraph* graph, ModelConfig config)
    : graph_(graph), config_(config), rng_(config.seed) {
  tensor::CheckOrDie(graph != nullptr, "TgnnModel: null graph");
}

void TgnnModel::InitPredictor(int64_t dim_src, int64_t dim_dst,
                              tensor::Rng& rng) {
  predictor_ = std::make_unique<tensor::MergeLayer>(
      dim_src, dim_dst, config_.embedding_dim, 1, rng);
}

Var TgnnModel::NodeFeatureBlock(const std::vector<int32_t>& nodes) const {
  const Tensor& features = graph_->node_features();
  tensor::CheckOrDie(features.rank() == 2,
                     "NodeFeatureBlock: node features not initialized");
  const int64_t d = features.shape()[1];
  Tensor block({static_cast<int64_t>(nodes.size()), d});
  for (size_t i = 0; i < nodes.size(); ++i) {
    kernels::Set(block.data() + static_cast<int64_t>(i) * d,
                 features.data() + nodes[i] * d, d);
  }
  return tensor::Constant(std::move(block));
}

Var TgnnModel::ScoreEdges(const std::vector<int32_t>& srcs,
                          const std::vector<int32_t>& dsts,
                          const std::vector<double>& ts) {
  tensor::CheckOrDie(predictor_ != nullptr,
                     "ScoreEdges: predictor not initialized");
  Var src_emb = ComputeEmbeddings(srcs, ts);
  Var dst_emb = ComputeEmbeddings(dsts, ts);
  return predictor_->Forward(src_emb, dst_emb);
}

TgnnModel::CandidateScorer TgnnModel::MakeCandidateScorer(
    const std::vector<int32_t>& srcs, const std::vector<double>& ts, int k) {
  if (predictor_ == nullptr) {
    // Pair-feature models: one flat ScoreEdges call over all pairs.
    return {0, [this](const PairBlock& block) {
              return ScoreEdges(block.srcs, block.dsts, block.ts);
            }};
  }
  // MergeLayer models: the sources are embedded, and their half of the
  // predictor's first layer computed, once per call, before the blocks;
  // each block embeds its candidates, tiles the source partials against
  // them with a row gather and finishes the predictor from there.
  Var src_partial = predictor_->SourcePartial(ComputeEmbeddings(srcs, ts));
  return {1, [this, src_partial, k](const PairBlock& block) {
            std::vector<int64_t> tile;
            tile.reserve(block.dsts.size());
            for (int64_t r = block.r0; r < block.r1; ++r) tile.push_back(r / k);
            Var cand_emb = ComputeEmbeddings(block.dsts, block.ts);
            return predictor_->ForwardFromPartial(GatherRows(src_partial, tile),
                                                  cand_emb);
          }};
}

Var TgnnModel::ScoreCandidates(const std::vector<int32_t>& srcs,
                               const std::vector<int32_t>& candidates,
                               const std::vector<double>& ts, int k) {
  tensor::CheckOrDie(k >= 1, "ScoreCandidates: k must be >= 1");
  tensor::CheckOrDie(
      candidates.size() == srcs.size() * static_cast<size_t>(k),
      "ScoreCandidates: candidate row shape mismatch");
  const int64_t rows = static_cast<int64_t>(candidates.size());
  Tensor logits({rows, 1});
  CandidateScorer scorer = MakeCandidateScorer(srcs, ts, k);
  const int64_t step =
      scorer.rows_per_pair > 0
          ? std::max<int64_t>(1, CandidateBlockRows() / scorer.rows_per_pair)
          : rows;
  PairBlock block;
  for (int64_t r0 = 0; r0 < rows; r0 += step) {
    block.r0 = r0;
    block.r1 = std::min(rows, r0 + step);
    block.srcs.clear();
    block.dsts.clear();
    block.ts.clear();
    // Every candidate of row i is scored at the positive's timestamp ts[i].
    for (int64_t r = block.r0; r < block.r1; ++r) {
      block.srcs.push_back(srcs[static_cast<size_t>(r / k)]);
      block.dsts.push_back(candidates[static_cast<size_t>(r)]);
      block.ts.push_back(ts[static_cast<size_t>(r / k)]);
    }
    // Declared first so the block's Vars die before its tape is rewound.
    kernels::TapeScope tape_scope;
    const Var part = scorer.score(block);
    tensor::CheckOrDie(part->value.size() == block.r1 - r0,
                       "ScoreCandidates: block logits shape mismatch");
    kernels::Set(logits.data() + r0, part->value.data(), block.r1 - r0);
  }
  return tensor::Constant(std::move(logits));
}

void TgnnModel::UpdateState(const Batch& batch) { (void)batch; }

int64_t TgnnModel::ParameterBytes() const {
  int64_t total = 0;
  for (const Var& p : Parameters()) total += p->value.size() * 4;
  return total;
}

}  // namespace benchtemp::models
