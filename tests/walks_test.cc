#include "graph/walks.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace benchtemp::graph {
namespace {

TemporalGraph MakeChain() {
  // 0-1@1, 1-2@2, 2-3@3, 3-4@4 ... a temporal path.
  TemporalGraph g;
  for (int i = 0; i < 8; ++i) {
    g.AddInteraction(i, i + 1, static_cast<double>(i + 1));
  }
  return g;
}

TEST(WalkTest, WalksMoveBackwardInTime) {
  TemporalGraph g = MakeChain();
  NeighborFinder finder(g);
  TemporalWalkSampler sampler(WalkBias::kUniform);
  tensor::Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    TemporalWalk walk = sampler.SampleWalk(finder, 5, 10.0, 4, rng);
    ASSERT_GE(walk.size(), 1u);
    EXPECT_EQ(walk[0].node, 5);
    EXPECT_EQ(walk[0].edge_idx, -1);
    for (size_t s = 1; s < walk.size(); ++s) {
      EXPECT_LT(walk[s].ts, walk[s - 1].ts);
      EXPECT_GE(walk[s].edge_idx, 0);
    }
  }
}

TEST(WalkTest, WalkStopsWithoutHistory) {
  TemporalGraph g = MakeChain();
  NeighborFinder finder(g);
  TemporalWalkSampler sampler(WalkBias::kUniform);
  tensor::Rng rng(2);
  // Node 0 at t=0.5 has no history: walk is just the root.
  TemporalWalk walk = sampler.SampleWalk(finder, 0, 0.5, 4, rng);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(WalkTest, SampleWalksCount) {
  TemporalGraph g = MakeChain();
  NeighborFinder finder(g);
  TemporalWalkSampler sampler(WalkBias::kExponential, 0.1);
  tensor::Rng rng(3);
  const auto walks = sampler.SampleWalks(finder, 5, 10.0, 7, 3, rng);
  EXPECT_EQ(walks.size(), 7u);
}

TEST(WalkTest, BatchStreamBaseKeysRootsByGlobalIndex) {
  // A dense little graph so roots have several earlier neighbours to pick.
  TemporalGraph g;
  for (int i = 0; i < 240; ++i) {
    const int32_t u = (i * 5) % 12;
    g.AddInteraction(u, (u + 1 + (i * 7) % 11) % 12,
                     static_cast<double>(i + 1));
  }
  NeighborFinder finder(g);
  TemporalWalkSampler sampler(WalkBias::kUniform);
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int i = 0; i < 16; ++i) {
    nodes.push_back((i * 3) % 12);
    ts.push_back(200.0 + i);
  }
  const uint64_t seed = 99;
  const auto full = sampler.SampleWalkBatch(finder, nodes, ts, 3, 3, seed);
  // Sub-ranges sampled under stream_base = their first index are exactly
  // those rows of the full call.
  for (const auto& [a, b] : {std::pair{0, 16}, std::pair{0, 5},
                             std::pair{5, 11}, std::pair{11, 16},
                             std::pair{7, 8}}) {
    const std::vector<int32_t> sub_nodes(nodes.begin() + a, nodes.begin() + b);
    const std::vector<double> sub_ts(ts.begin() + a, ts.begin() + b);
    const auto part = sampler.SampleWalkBatch(finder, sub_nodes, sub_ts, 3, 3,
                                              seed, static_cast<uint64_t>(a));
    ASSERT_EQ(part.size(), static_cast<size_t>(b - a));
    for (int i = a; i < b; ++i) {
      const auto& want = full[static_cast<size_t>(i)];
      const auto& got = part[static_cast<size_t>(i - a)];
      ASSERT_EQ(got.size(), want.size()) << "root " << i;
      for (size_t w = 0; w < want.size(); ++w) {
        ASSERT_EQ(got[w].size(), want[w].size()) << "root " << i;
        for (size_t s = 0; s < want[w].size(); ++s) {
          EXPECT_EQ(got[w][s].node, want[w][s].node);
          EXPECT_EQ(got[w][s].ts, want[w][s].ts);
          EXPECT_EQ(got[w][s].edge_idx, want[w][s].edge_idx);
        }
      }
    }
  }
  // Without the base, a sub-range restarts at stream 0 and differs.
  const std::vector<int32_t> tail_nodes(nodes.begin() + 8, nodes.end());
  const std::vector<double> tail_ts(ts.begin() + 8, ts.end());
  const auto unkeyed =
      sampler.SampleWalkBatch(finder, tail_nodes, tail_ts, 3, 3, seed);
  bool any_diff = false;
  for (size_t i = 0; i < unkeyed.size(); ++i) {
    for (size_t w = 0; w < unkeyed[i].size(); ++w) {
      for (size_t s = 0; s < unkeyed[i][w].size(); ++s) {
        if (s >= full[8 + i][w].size() ||
            unkeyed[i][w][s].edge_idx != full[8 + i][w][s].edge_idx) {
          any_diff = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(WalkTest, LinearSafeWeightsMatchPaperEq2) {
  TemporalWalkSampler sampler(WalkBias::kLinearSafe);
  // W = t'-t if t'>t; 1 if equal; -1/(t'-t) if t'<t. All strictly positive.
  EXPECT_DOUBLE_EQ(sampler.StepWeight(/*t_prev=*/7.0, /*t_now=*/4.0), 3.0);
  EXPECT_DOUBLE_EQ(sampler.StepWeight(4.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.StepWeight(2.0, 4.0), 0.5);
  EXPECT_GT(sampler.StepWeight(-1e9, 1e9), 0.0);
}

TEST(WalkTest, ExponentialWeightPrefersRecent) {
  TemporalWalkSampler sampler(WalkBias::kExponential, 1.0);
  EXPECT_GT(sampler.StepWeight(9.0, 10.0), sampler.StepWeight(1.0, 10.0));
}

TEST(WalkTest, ExponentialWeightUnderflowsOnCoarseGranularity) {
  // The failure mode the paper's Eq. (2)/(3) fixes: with huge raw time
  // gaps every candidate weight collapses to zero.
  TemporalWalkSampler sampler(WalkBias::kExponential, 1.0);
  EXPECT_DOUBLE_EQ(sampler.StepWeight(0.0, 1e6), 0.0);
  TemporalWalkSampler safe(WalkBias::kLinearSafe);
  EXPECT_GT(safe.StepWeight(0.0, 1e6), 0.0);
}

TEST(WalkTest, RecencyBiasObservable) {
  // Node 0 interacts with 1 early and with 2 late, many times each.
  TemporalGraph g;
  for (int i = 0; i < 10; ++i) g.AddInteraction(0, 1, 1.0 + 0.01 * i);
  for (int i = 0; i < 10; ++i) g.AddInteraction(0, 2, 9.0 + 0.01 * i);
  NeighborFinder finder(g);
  TemporalWalkSampler sampler(WalkBias::kExponential, 1.0);
  tensor::Rng rng(4);
  int recent = 0;
  for (int trial = 0; trial < 200; ++trial) {
    TemporalWalk walk = sampler.SampleWalk(finder, 0, 10.0, 1, rng);
    ASSERT_EQ(walk.size(), 2u);
    if (walk[1].node == 2) ++recent;
  }
  EXPECT_GT(recent, 170);  // overwhelmingly the recent partner
}

TEST(CawAnonymizerTest, EncodesPositionalCounts) {
  // Two walks from u: [5, 3], [5, 4]; one walk set reused for v.
  TemporalWalk w1 = {{5, 10.0, -1}, {3, 9.0, 0}};
  TemporalWalk w2 = {{5, 10.0, -1}, {4, 8.0, 1}};
  std::vector<TemporalWalk> walks_u = {w1, w2};
  TemporalWalk w3 = {{6, 10.0, -1}, {3, 7.0, 2}};
  std::vector<TemporalWalk> walks_v = {w3};
  CawAnonymizer anon(walks_u, walks_v, /*length=*/1);
  EXPECT_EQ(anon.feature_dim(), 4);
  // Node 5 appears at position 0 in both u-walks, never in v-walks.
  const auto f5 = anon.Encode(5);
  EXPECT_FLOAT_EQ(f5[0], 1.0f);   // 2/2 at position 0 of S_u
  EXPECT_FLOAT_EQ(f5[1], 0.0f);
  EXPECT_FLOAT_EQ(f5[2], 0.0f);
  EXPECT_FLOAT_EQ(f5[3], 0.0f);
  // Node 3 appears at position 1 in one of two u-walks and in the v-walk.
  const auto f3 = anon.Encode(3);
  EXPECT_FLOAT_EQ(f3[1], 0.5f);
  EXPECT_FLOAT_EQ(f3[3], 1.0f);
  // Unknown node encodes to all zeros.
  const auto f9 = anon.Encode(9);
  for (float x : f9) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(CawAnonymizerTest, AnonymizationHidesIdentity) {
  // Two isomorphic walk sets with different node ids produce identical
  // encodings for corresponding nodes — the motif property CAWN relies on.
  TemporalWalk a = {{1, 5.0, -1}, {2, 4.0, 0}};
  TemporalWalk b = {{7, 5.0, -1}, {8, 4.0, 0}};
  CawAnonymizer anon_a({a}, {a}, 1);
  CawAnonymizer anon_b({b}, {b}, 1);
  EXPECT_EQ(anon_a.Encode(1), anon_b.Encode(7));
  EXPECT_EQ(anon_a.Encode(2), anon_b.Encode(8));
}

}  // namespace
}  // namespace benchtemp::graph
