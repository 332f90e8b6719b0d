#ifndef BENCHTEMP_GRAPH_WALKS_H_
#define BENCHTEMP_GRAPH_WALKS_H_

#include <cstdint>
#include <vector>

#include "graph/neighbor_finder.h"
#include "tensor/random.h"

namespace benchtemp::graph {

/// How a temporal walk step weights candidate (earlier-in-time) neighbors.
enum class WalkBias {
  /// Uniform over the temporal neighborhood.
  kUniform,
  /// exp(alpha * (t' - t)) — CAWN/NeurTW's default temporal bias. Later
  /// (closer to t) events get exponentially more weight. Overflows for
  /// datasets with large time granularity, which is exactly the failure the
  /// paper patches with Eq. (2)/(3).
  kExponential,
  /// The paper's overflow-safe piecewise-linear weights (Appendix C,
  /// Eq. 2/3): W = t'-t if t'>t, 1 if t'==t, -1/(t'-t) if t'<t.
  kLinearSafe,
};

/// One step of a temporal walk.
struct WalkStep {
  int32_t node = 0;
  double ts = 0.0;
  int32_t edge_idx = -1;  // -1 for the root step
};

/// A temporal walk: root first, then up to `length` backward-in-time steps.
using TemporalWalk = std::vector<WalkStep>;

/// Samples temporal random walks that move strictly backward in time, the
/// primitive behind CAWN (causal anonymous walks) and NeurTW (spatiotemporal
/// motifs).
class TemporalWalkSampler {
 public:
  explicit TemporalWalkSampler(WalkBias bias, double alpha = 1e-6);

  /// One walk of up to `length` steps starting at (`node`, `ts`). The walk
  /// may stop early when a node has no prior history. `finder` supplies the
  /// temporal adjacency (passed per call so callers can swap between the
  /// masked training index and the full index).
  TemporalWalk SampleWalk(const NeighborFinder& finder, int32_t node,
                          double ts, int64_t length, tensor::Rng& rng) const;

  /// `count` independent walks from the same root.
  std::vector<TemporalWalk> SampleWalks(const NeighborFinder& finder,
                                        int32_t node, double ts,
                                        int64_t count, int64_t length,
                                        tensor::Rng& rng) const;

  /// Batch API: `count` walks from each root (`nodes[i]`, `ts[i]`), sampled
  /// in parallel on the runtime thread pool. Root `i` draws from its own
  /// RNG stream seeded by SplitMix64(seed, stream_base + i), so the returned
  /// walks are identical at any thread count (including 1) and fully
  /// determined by `seed` and each root's stream id. A caller that splits
  /// one batch of roots into sub-ranges passes each range's first index as
  /// `stream_base` and gets exactly the rows of the whole call.
  std::vector<std::vector<TemporalWalk>> SampleWalkBatch(
      const NeighborFinder& finder, const std::vector<int32_t>& nodes,
      const std::vector<double>& ts, int64_t count, int64_t length,
      uint64_t seed, uint64_t stream_base = 0) const;

  /// Exposed for testing: weight of stepping to a neighbor at time t' from
  /// time t (before normalization).
  double StepWeight(double t_prev, double t_now) const;

  WalkBias bias() const { return bias_; }

 private:
  WalkBias bias_;
  double alpha_;
};

/// Set-based anonymization of causal walks (CAWN).
///
/// Each distinct node appearing in a walk set is replaced by its positional
/// count vector g(w, S): how often it appears at each walk position across
/// the set S. For link prediction the identity of a walk node is encoded
/// relative to BOTH endpoints' walk sets, so the anonymized feature of a
/// node is [g(w, S_u); g(w, S_v)], of size 2 * (length + 1).
class CawAnonymizer {
 public:
  /// Builds positional counts for the union of both walk sets.
  CawAnonymizer(const std::vector<TemporalWalk>& walks_u,
                const std::vector<TemporalWalk>& walks_v, int64_t length);

  /// Anonymized feature of `node`: concatenated positional count vectors
  /// relative to S_u then S_v, normalized by the number of walks per set.
  std::vector<float> Encode(int32_t node) const;

  int64_t feature_dim() const { return 2 * (length_ + 1); }

 private:
  int64_t length_;
  float inv_walks_u_;
  float inv_walks_v_;
  // node -> positional counts (size length+1) per set.
  std::vector<std::pair<int32_t, std::vector<float>>> counts_u_;
  std::vector<std::pair<int32_t, std::vector<float>>> counts_v_;

  static const std::vector<float>* Find(
      const std::vector<std::pair<int32_t, std::vector<float>>>& table,
      int32_t node);
};

}  // namespace benchtemp::graph

#endif  // BENCHTEMP_GRAPH_WALKS_H_
