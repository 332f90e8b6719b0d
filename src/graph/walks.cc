#include "graph/walks.h"

#include <algorithm>
#include <cmath>

#include "runtime/thread_pool.h"
#include "tensor/numeric.h"

namespace benchtemp::graph {

namespace {

/// Decorrelates the per-root seeds derived from one batch seed so adjacent
/// roots don't get adjacent engine states.
uint64_t MixSeed(uint64_t seed, uint64_t index) {
  return tensor::SplitMix64(seed, index);
}

}  // namespace

TemporalWalkSampler::TemporalWalkSampler(WalkBias bias, double alpha)
    : bias_(bias), alpha_(alpha) {}

double TemporalWalkSampler::StepWeight(double t_prev, double t_now) const {
  switch (bias_) {
    case WalkBias::kUniform:
      return 1.0;
    case WalkBias::kExponential:
      // exp(alpha * (t' - t)); t' <= t so the exponent is non-positive, but
      // for large negative exponents this underflows to zero for *all*
      // candidates, and for datasets whose raw timestamps are huge the
      // symmetric form used by the reference code overflows — the issue the
      // paper documents for Enron/CanParl/UNTrade/USLegis/UNVote.
      return std::exp(alpha_ * (t_prev - t_now));
    case WalkBias::kLinearSafe: {
      // Paper Eq. (2): overflow-safe piecewise-linear weight.
      const double dt = t_prev - t_now;
      if (dt > 0.0) return dt;
      if (tensor::IsExactlyZero(dt)) return 1.0;
      return -1.0 / dt;
    }
  }
  return 1.0;
}

TemporalWalk TemporalWalkSampler::SampleWalk(const NeighborFinder& finder,
                                             int32_t node, double ts,
                                             int64_t length,
                                             tensor::Rng& rng) const {
  TemporalWalk walk;
  walk.push_back({node, ts, -1});
  int32_t current = node;
  double now = ts;
  std::vector<double> weights;
  for (int64_t step = 0; step < length; ++step) {
    int64_t count = 0;
    const TemporalNeighbor* history = finder.Before(current, now, &count);
    if (count == 0) break;
    // Cap the candidate set at the 32 most recent events so the categorical
    // draw stays O(1) amortized on high-degree nodes.
    const int64_t window = std::min<int64_t>(count, 32);
    const TemporalNeighbor* base = history + (count - window);
    weights.assign(static_cast<size_t>(window), 0.0);
    for (int64_t i = 0; i < window; ++i) {
      weights[static_cast<size_t>(i)] = StepWeight(base[i].ts, now);
    }
    const int64_t pick = rng.Categorical(weights);
    const TemporalNeighbor& chosen = base[pick];
    walk.push_back({chosen.neighbor, chosen.ts, chosen.edge_idx});
    current = chosen.neighbor;
    now = chosen.ts;
  }
  return walk;
}

std::vector<TemporalWalk> TemporalWalkSampler::SampleWalks(
    const NeighborFinder& finder, int32_t node, double ts, int64_t count,
    int64_t length, tensor::Rng& rng) const {
  std::vector<TemporalWalk> walks;
  walks.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    walks.push_back(SampleWalk(finder, node, ts, length, rng));
  }
  return walks;
}

std::vector<std::vector<TemporalWalk>> TemporalWalkSampler::SampleWalkBatch(
    const NeighborFinder& finder, const std::vector<int32_t>& nodes,
    const std::vector<double>& ts, int64_t count, int64_t length,
    uint64_t seed, uint64_t stream_base) const {
  const int64_t n = static_cast<int64_t>(nodes.size());
  std::vector<std::vector<TemporalWalk>> out(static_cast<size_t>(n));
  // A few roots per chunk amortizes dispatch; chunking is still
  // thread-count independent so the walks stay reproducible.
  runtime::ParallelFor(0, n, /*grain=*/4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      tensor::Rng rng(MixSeed(seed, stream_base + static_cast<uint64_t>(i)));
      out[static_cast<size_t>(i)] =
          SampleWalks(finder, nodes[static_cast<size_t>(i)],
                      ts[static_cast<size_t>(i)], count, length, rng);
    }
  });
  return out;
}

namespace {

void Accumulate(
    const std::vector<TemporalWalk>& walks, int64_t length,
    std::vector<std::pair<int32_t, std::vector<float>>>& table) {
  for (const TemporalWalk& walk : walks) {
    for (size_t pos = 0; pos < walk.size(); ++pos) {
      const int32_t node = walk[pos].node;
      std::vector<float>* counts = nullptr;
      for (auto& entry : table) {
        if (entry.first == node) {
          counts = &entry.second;
          break;
        }
      }
      if (counts == nullptr) {
        table.emplace_back(
            node, std::vector<float>(static_cast<size_t>(length + 1), 0.0f));
        counts = &table.back().second;
      }
      if (pos <= static_cast<size_t>(length)) (*counts)[pos] += 1.0f;
    }
  }
}

}  // namespace

CawAnonymizer::CawAnonymizer(const std::vector<TemporalWalk>& walks_u,
                             const std::vector<TemporalWalk>& walks_v,
                             int64_t length)
    : length_(length),
      inv_walks_u_(walks_u.empty() ? 0.0f
                                   : 1.0f / static_cast<float>(walks_u.size())),
      inv_walks_v_(walks_v.empty()
                       ? 0.0f
                       : 1.0f / static_cast<float>(walks_v.size())) {
  Accumulate(walks_u, length, counts_u_);
  Accumulate(walks_v, length, counts_v_);
}

const std::vector<float>* CawAnonymizer::Find(
    const std::vector<std::pair<int32_t, std::vector<float>>>& table,
    int32_t node) {
  for (const auto& entry : table) {
    if (entry.first == node) return &entry.second;
  }
  return nullptr;
}

std::vector<float> CawAnonymizer::Encode(int32_t node) const {
  std::vector<float> feature(static_cast<size_t>(feature_dim()), 0.0f);
  const std::vector<float>* u = Find(counts_u_, node);
  const std::vector<float>* v = Find(counts_v_, node);
  if (u != nullptr) {
    for (size_t i = 0; i < u->size(); ++i) feature[i] = (*u)[i] * inv_walks_u_;
  }
  if (v != nullptr) {
    const size_t offset = static_cast<size_t>(length_ + 1);
    for (size_t i = 0; i < v->size(); ++i)
      feature[offset + i] = (*v)[i] * inv_walks_v_;
  }
  return feature;
}

}  // namespace benchtemp::graph
