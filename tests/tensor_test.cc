#include "tensor/tensor.h"

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/random.h"

namespace benchtemp::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor full = Tensor::Full({2, 2}, 3.5f);
  EXPECT_FLOAT_EQ(full.at(1, 1), 3.5f);
  Tensor ones = Tensor::Ones({5});
  EXPECT_FLOAT_EQ(ones.at(4), 1.0f);
  Tensor from = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(from.at(1, 2), 6.0f);
}

TEST(TensorTest, Rank1ViewedAsColumn) {
  Tensor t({7});
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 1);
}

TEST(TensorTest, CopiesAreDeep) {
  Tensor a = Tensor::Full({2}, 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, AddInPlaceAndScale) {
  Tensor a = Tensor::Full({3}, 2.0f);
  Tensor b = Tensor::Full({3}, 0.5f);
  a.AddInPlace(b);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "[2, 3]");
  EXPECT_EQ(Tensor().ShapeString(), "[]");
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(10);
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 10);
  }
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(8);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t x = rng.Zipf(100, 1.2);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 100);
    if (x < 10) ++low;
    if (x >= 90) ++high;
  }
  EXPECT_GT(low, 5 * high);  // heavy head
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(9);
  int64_t low = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Zipf(100, 0.0) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 5000.0, 0.5, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int64_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 8000.0, 0.75, 0.04);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float x = rng.Normal(2.0f, 3.0f);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

// ---------------------------------------------------------------------------
// The lazily-twisted engine against std::mt19937_64.
// ---------------------------------------------------------------------------

/// Draw counts around the lazy first generation's edges: none, one, the
/// middle of the twist (kM = 156), the generation boundary (312), and into
/// the second generation.
const int kDrawCounts[] = {0, 1, 155, 156, 157, 311, 312, 313, 700};

std::vector<uint64_t> EngineSeeds() {
  std::vector<uint64_t> seeds = {0, 1, 5489, 7777, ~uint64_t{0}};
  for (uint64_t i = 0; i < 27; ++i) seeds.push_back(SplitMix64(100, i));
  return seeds;
}

std::string StdText(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

TEST(RngEngineTest, RawStreamAndStateTextMatchStd) {
  for (const uint64_t seed : EngineSeeds()) {
    for (const int count : kDrawCounts) {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " draw " << i;
      }
      const std::string text = rng.SaveState();
      ASSERT_EQ(text, StdText(ref)) << "seed " << seed << " after " << count;
      // Neither writing the state nor copying a pending first generation
      // may disturb the stream.
      Rng copy = rng;
      for (int i = 0; i < 400; ++i) {
        const uint64_t want = ref();
        ASSERT_EQ(rng.engine()(), want) << "seed " << seed << " after "
                                        << count << " + " << i;
        ASSERT_EQ(copy.engine()(), want) << "copy, seed " << seed;
      }
    }
  }
}

TEST(RngEngineTest, StdStateTextLoadsAndContinuesTheStream) {
  for (const uint64_t seed : EngineSeeds()) {
    for (const int count : kDrawCounts) {
      std::mt19937_64 ref(seed);
      ref.discard(static_cast<unsigned long long>(count));
      Rng rng(12345);
      rng.engine()();  // a partial first generation gets overwritten
      ASSERT_TRUE(rng.LoadState(StdText(ref)));
      ASSERT_EQ(rng.SaveState(), StdText(ref));
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " after "
                                         << count << " + " << i;
      }
    }
  }
  Rng rng(3);
  EXPECT_FALSE(rng.LoadState("1 2 3"));
}

TEST(RngEngineTest, DistributionDrawsMatchStd) {
  const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25, 0.25};
  for (const uint64_t seed : EngineSeeds()) {
    for (const int count : kDrawCounts) {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < count; ++i) {
        switch (i % 4) {
          case 0: {
            std::uniform_int_distribution<int64_t> dist(0, 1000002);
            ASSERT_EQ(rng.UniformInt(1000003), dist(ref));
            break;
          }
          case 1: {
            std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
            ASSERT_EQ(rng.UniformReal(-1.0f, 2.0f), dist(ref));
            break;
          }
          case 2: {
            std::normal_distribution<float> dist(0.5f, 2.0f);
            ASSERT_EQ(rng.Normal(0.5f, 2.0f), dist(ref));
            break;
          }
          default: {
            std::uniform_real_distribution<double> dist(0.0, 4.0);
            double r = dist(ref);
            int64_t want = static_cast<int64_t>(weights.size()) - 1;
            for (size_t j = 0; j < weights.size(); ++j) {
              r -= weights[j];
              if (r <= 0.0) {
                want = static_cast<int64_t>(j);
                break;
              }
            }
            ASSERT_EQ(rng.Categorical(weights), want);
            break;
          }
        }
      }
      ASSERT_EQ(rng.SaveState(), StdText(ref))
          << "seed " << seed << " after " << count;
    }
  }
}

}  // namespace
}  // namespace benchtemp::tensor
