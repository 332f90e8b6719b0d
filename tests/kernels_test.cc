// Tests for the kernel layer (src/tensor/kernels/): numerical correctness
// against naive references, the BENCHTEMP_SIMD=0/1 and thread-count
// bit-identity contract, the tape-scoped arena's lifetime rules (including
// the BENCHTEMP_CHECK NaN poison), and the 8-way digest matrix over small
// end-to-end training runs.

#include "tensor/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/debug_check.h"
#include "tensor/expr.h"
#include "tensor/kernels/arena.h"
#include "tensor/kernels/simd.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp {
namespace {

using tensor::Tensor;
namespace kernels = tensor::kernels;

uint32_t BitsOf(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<uint32_t> BitsOf(const std::vector<float>& v) {
  std::vector<uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.Normal(0.0f, 1.0f);
  return v;
}

/// Restores SIMD/arena/debug-check overrides, the thread count, and the
/// metric registry no matter how a test exits.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
  }
  void TearDown() override {
    kernels::SetSimdEnabledForTest(-1);
    kernels::SetGemmPathForTest(kernels::GemmPath::kAuto);
    kernels::SetArenaEnabledForTest(-1);
    tensor::expr::SetFusionEnabledForTest(-1);
    tensor::debug_check::SetEnabledForTest(false);
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
    base::FaultInjector::Global().DisarmAll();
  }
  int original_threads_ = 1;
};

// ---------------------------------------------------------------------------
// Correctness against naive references.
// ---------------------------------------------------------------------------

TEST_F(KernelsTest, GemmMatchesNaiveReference) {
  // Odd sizes exercise the register-tile and k-block remainders.
  const int64_t n = 7, k = 131, m = 13;
  const std::vector<float> a = RandomVec(n * k, 1);
  const std::vector<float> b = RandomVec(k * m, 2);
  std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
  kernels::Gemm(a.data(), b.data(), c.data(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float want = 0.0f;
      for (int64_t p = 0; p < k; ++p) want += a[i * k + p] * b[p * m + j];
      EXPECT_NEAR(c[i * m + j], want, 1e-4) << "at (" << i << "," << j << ")";
    }
  }
}

TEST_F(KernelsTest, GemmBackwardsMatchNaiveReferences) {
  const int64_t n = 9, k = 70, m = 6;
  const std::vector<float> a = RandomVec(n * k, 3);
  const std::vector<float> b = RandomVec(k * m, 4);
  const std::vector<float> dc = RandomVec(n * m, 5);
  std::vector<float> da(static_cast<size_t>(n * k), 0.0f);
  std::vector<float> db(static_cast<size_t>(k * m), 0.0f);
  kernels::GemmNT(dc.data(), b.data(), da.data(), n, k, m);
  kernels::GemmTN(a.data(), dc.data(), db.data(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t l = 0; l < k; ++l) {
      float want = 0.0f;
      for (int64_t j = 0; j < m; ++j) want += dc[i * m + j] * b[l * m + j];
      EXPECT_NEAR(da[i * k + l], want, 1e-4);
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    for (int64_t j = 0; j < m; ++j) {
      float want = 0.0f;
      for (int64_t i = 0; i < n; ++i) want += a[i * k + l] * dc[i * m + j];
      EXPECT_NEAR(db[l * m + j], want, 1e-4);
    }
  }
}

TEST_F(KernelsTest, SoftmaxRowNormalizesAndMasks) {
  const int64_t d = 11;
  const std::vector<float> in = RandomVec(d, 7);
  std::vector<float> mask(static_cast<size_t>(d), 1.0f);
  mask[3] = 0.0f;
  mask[8] = 0.0f;
  std::vector<float> out(static_cast<size_t>(d), -1.0f);
  kernels::SoftmaxRow(in.data(), mask.data(), d, out.data());
  float total = 0.0f;
  for (int64_t i = 0; i < d; ++i) total += out[static_cast<size_t>(i)];
  EXPECT_NEAR(total, 1.0f, 1e-5);
  EXPECT_EQ(BitsOf(out[3]), BitsOf(0.0f));  // masked: exact +0
  EXPECT_EQ(BitsOf(out[8]), BitsOf(0.0f));
  // Fully masked row collapses to all zeros, not NaN.
  std::fill(mask.begin(), mask.end(), 0.0f);
  kernels::SoftmaxRow(in.data(), mask.data(), d, out.data());
  for (float v : out) EXPECT_EQ(BitsOf(v), BitsOf(0.0f));
}

TEST_F(KernelsTest, BceMatchesStableFormula) {
  const int64_t n = 23;
  const std::vector<float> logits = RandomVec(n, 9);
  std::vector<float> targets(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    targets[static_cast<size_t>(i)] = i % 2 == 0 ? 1.0f : 0.0f;
  }
  const float mean = kernels::BceForwardMean(logits.data(), targets.data(), n);
  double want = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = logits[static_cast<size_t>(i)];
    const double t = targets[static_cast<size_t>(i)];
    const double p = 1.0 / (1.0 + std::exp(-x));
    want += -(t * std::log(p) + (1.0 - t) * std::log(1.0 - p));
  }
  EXPECT_NEAR(mean, want / static_cast<double>(n), 1e-4);
}

// ---------------------------------------------------------------------------
// Bit-identity: vector vs scalar path, 1 vs 8 threads.
// ---------------------------------------------------------------------------

TEST_F(KernelsTest, VectorAndScalarPathsBitIdentical) {
  // Sizes with ragged tails (not multiples of kLanes or the GEMM tiles).
  const int64_t n = 37, k = 67, m = 19;
  const std::vector<float> a = RandomVec(n * k, 11);
  const std::vector<float> b = RandomVec(k * m, 12);
  const std::vector<float> x = RandomVec(n * m, 13);
  const std::vector<float> y = RandomVec(n * m, 14);

  auto run_all = [&]() {
    std::vector<float> out;
    std::vector<float> buf(static_cast<size_t>(n * m), 0.0f);
    kernels::Gemm(a.data(), b.data(), buf.data(), n, k, m);
    out.insert(out.end(), buf.begin(), buf.end());
    std::fill(buf.begin(), buf.end(), 0.0f);
    kernels::GemmNT(x.data(), b.data(), buf.data(), n, m, m);
    out.insert(out.end(), buf.begin(), buf.end());
    std::vector<float> db(static_cast<size_t>(m * m), 0.0f);
    kernels::GemmTN(x.data(), y.data(), db.data(), n, m, m);
    out.insert(out.end(), db.begin(), db.end());

    out.push_back(kernels::ReduceSum(x.data(), n * m));
    out.push_back(kernels::Dot(x.data(), y.data(), n * m));

    buf = x;
    kernels::Add(buf.data(), y.data(), n * m);
    kernels::Mul(buf.data(), y.data(), n * m);
    kernels::Sub(buf.data(), y.data(), n * m);
    kernels::MulAdd(buf.data(), x.data(), y.data(), n * m);
    kernels::Axpy(buf.data(), 0.37f, y.data(), n * m);
    kernels::Scale(buf.data(), 1.13f, n * m);
    kernels::AddScalar(buf.data(), -0.21f, n * m);
    out.insert(out.end(), buf.begin(), buf.end());

    kernels::AddOut(buf.data(), x.data(), y.data(), n * m);
    kernels::SubOut(buf.data(), x.data(), y.data(), n * m);
    kernels::MulOut(buf.data(), x.data(), y.data(), n * m);
    kernels::ScaleOut(buf.data(), -2.5f, x.data(), n * m);
    kernels::AddScalarOut(buf.data(), 0.44f, x.data(), n * m);
    out.insert(out.end(), buf.begin(), buf.end());

    std::vector<float> sig(static_cast<size_t>(n * m));
    kernels::SigmoidForward(x.data(), sig.data(), n * m);
    std::vector<float> gx(static_cast<size_t>(n * m), 0.0f);
    kernels::SigmoidBackward(gx.data(), y.data(), sig.data(), n * m);
    out.insert(out.end(), sig.begin(), sig.end());
    out.insert(out.end(), gx.begin(), gx.end());

    std::vector<float> soft(static_cast<size_t>(m));
    kernels::SoftmaxRow(x.data(), nullptr, m, soft.data());
    out.insert(out.end(), soft.begin(), soft.end());

    std::vector<float> targets(static_cast<size_t>(n), 1.0f);
    out.push_back(kernels::BceForwardMean(x.data(), targets.data(), n));
    std::vector<float> g(static_cast<size_t>(n), 0.0f);
    kernels::BceBackward(g.data(), x.data(), targets.data(), 0.5f, n);
    out.insert(out.end(), g.begin(), g.end());
    return out;
  };

  kernels::SetSimdEnabledForTest(1);
  const auto vec = run_all();
  kernels::SetSimdEnabledForTest(0);
  const auto scalar = run_all();
  EXPECT_EQ(BitsOf(vec), BitsOf(scalar));
}

TEST_F(KernelsTest, GemmBitIdenticalAcrossThreadCounts) {
  const int64_t n = 300, k = 40, m = 24;  // big enough to split into chunks
  const std::vector<float> a = RandomVec(n * k, 21);
  const std::vector<float> b = RandomVec(k * m, 22);
  std::vector<std::vector<uint32_t>> per_thread_bits;
  for (const int threads : {1, 8}) {
    runtime::ThreadPool::Global().SetNumThreads(threads);
    std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
    kernels::Gemm(a.data(), b.data(), c.data(), n, k, m);
    std::vector<float> da(static_cast<size_t>(n * k), 0.0f);
    kernels::GemmNT(c.data(), b.data(), da.data(), n, k, m);
    std::vector<float> db(static_cast<size_t>(k * m), 0.0f);
    kernels::GemmTN(a.data(), c.data(), db.data(), n, k, m);
    c.insert(c.end(), da.begin(), da.end());
    c.insert(c.end(), db.begin(), db.end());
    per_thread_bits.push_back(BitsOf(c));
  }
  EXPECT_EQ(per_thread_bits[0], per_thread_bits[1]);
}

// ---------------------------------------------------------------------------
// GEMM ISA paths: every path gives the scalar path's bits.
// ---------------------------------------------------------------------------

struct GemmShape {
  int64_t n, k, m;
};

/// The census shapes the models run, then ragged ones: n % kMr != 0,
/// k = 1, and widths that do not fill whole vectors or tiles.
const GemmShape kGemmShapes[] = {
    {1200, 194, 24}, {6000, 24, 24}, {20000, 48, 24}, {200, 24, 24},
    {203, 37, 24},   {7, 1, 24},     {11, 29, 1},     {13, 29, 16},
    {9, 45, 19},     {6, 3, 24},     {301, 70, 61},
};

/// Runs Gemm, GemmNT and GemmTN at one shape on the current path, each
/// accumulating into a non-zero output, and returns the outputs' bits.
std::vector<uint32_t> GemmFamilyBits(const GemmShape& s) {
  const std::vector<float> a = RandomVec(s.n * s.k, 31);
  const std::vector<float> b = RandomVec(s.k * s.m, 32);
  const std::vector<float> dc = RandomVec(s.n * s.m, 33);
  std::vector<float> c = RandomVec(s.n * s.m, 34);
  std::vector<float> da = RandomVec(s.n * s.k, 35);
  std::vector<float> db = RandomVec(s.k * s.m, 36);
  kernels::Gemm(a.data(), b.data(), c.data(), s.n, s.k, s.m);
  kernels::GemmNT(dc.data(), b.data(), da.data(), s.n, s.k, s.m);
  kernels::GemmTN(a.data(), dc.data(), db.data(), s.n, s.k, s.m);
  c.insert(c.end(), da.begin(), da.end());
  c.insert(c.end(), db.begin(), db.end());
  return BitsOf(c);
}

/// Signed-zero case: every product is -0 (Gemm: 0 * negative) or +0, and
/// every output starts at -0. Gemm keeps -0 (-0 + -0); GemmNT's lanes
/// start at +0, so its dot is +0 and dA becomes +0; GemmTN adds +0
/// products, so dB becomes +0.
std::vector<uint32_t> SignedZeroBits() {
  const int64_t n = 9, k = 13, m = 19;
  const std::vector<float> a(static_cast<size_t>(n * k), 0.0f);
  const std::vector<float> b(static_cast<size_t>(k * m), -1.5f);
  const std::vector<float> dc(static_cast<size_t>(n * m), 0.0f);
  std::vector<float> c(static_cast<size_t>(n * m), -0.0f);
  std::vector<float> da(static_cast<size_t>(n * k), -0.0f);
  std::vector<float> db(static_cast<size_t>(k * m), -0.0f);
  kernels::Gemm(a.data(), b.data(), c.data(), n, k, m);
  kernels::GemmNT(dc.data(), b.data(), da.data(), n, k, m);
  kernels::GemmTN(a.data(), dc.data(), db.data(), n, k, m);
  for (float v : c) EXPECT_EQ(BitsOf(v), BitsOf(-0.0f));
  for (float v : da) EXPECT_EQ(BitsOf(v), BitsOf(0.0f));
  for (float v : db) EXPECT_EQ(BitsOf(v), BitsOf(0.0f));
  c.insert(c.end(), da.begin(), da.end());
  c.insert(c.end(), db.begin(), db.end());
  return BitsOf(c);
}

/// Every shape on `path`, at 1 and 8 threads, against the scalar path at
/// one thread.
void ExpectGemmPathMatchesScalar(kernels::GemmPath path) {
  std::vector<std::vector<uint32_t>> scalar_bits;
  runtime::ThreadPool::Global().SetNumThreads(1);
  ASSERT_TRUE(kernels::SetGemmPathForTest(kernels::GemmPath::kScalar));
  for (const GemmShape& s : kGemmShapes) scalar_bits.push_back(GemmFamilyBits(s));
  const std::vector<uint32_t> scalar_zero_bits = SignedZeroBits();

  ASSERT_TRUE(kernels::SetGemmPathForTest(path));
  for (const int threads : {1, 8}) {
    runtime::ThreadPool::Global().SetNumThreads(threads);
    for (size_t i = 0; i < std::size(kGemmShapes); ++i) {
      const GemmShape& s = kGemmShapes[i];
      EXPECT_EQ(GemmFamilyBits(s), scalar_bits[i])
          << s.n << "x" << s.k << "x" << s.m << " at " << threads
          << " threads";
    }
    EXPECT_EQ(SignedZeroBits(), scalar_zero_bits) << threads << " threads";
  }
}

TEST_F(KernelsTest, GemmSse2PathBitIdenticalToScalar) {
  ExpectGemmPathMatchesScalar(kernels::GemmPath::kSse2);
}

TEST_F(KernelsTest, GemmAvx2PathBitIdenticalToScalar) {
  if (!kernels::SetGemmPathForTest(kernels::GemmPath::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  ExpectGemmPathMatchesScalar(kernels::GemmPath::kAvx2);
}

TEST_F(KernelsTest, GemmAutoPathBitIdenticalToScalar) {
  ExpectGemmPathMatchesScalar(kernels::GemmPath::kAuto);
}

// ---------------------------------------------------------------------------
// Arena lifetime.
// ---------------------------------------------------------------------------

TEST_F(KernelsTest, NewTensorUsesArenaOnlyInsideScope) {
  kernels::SetArenaEnabledForTest(1);
  Tensor outside = kernels::NewTensor({4, 4});
  EXPECT_FALSE(outside.arena_backed());
  {
    kernels::TapeScope scope;
    Tensor inside = kernels::NewTensor({4, 4});
    EXPECT_TRUE(inside.arena_backed());
    EXPECT_GT(kernels::Arena::ThreadLocal().LiveFloats(), 0);
    for (int64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(BitsOf(inside.at(i)), BitsOf(0.0f));  // zero-filled
    }
  }
  EXPECT_EQ(kernels::Arena::ThreadLocal().LiveFloats(), 0);
  // BENCHTEMP_ARENA=0: heap even inside a scope.
  kernels::SetArenaEnabledForTest(0);
  kernels::TapeScope scope;
  Tensor disabled = kernels::NewTensor({4, 4});
  EXPECT_FALSE(disabled.arena_backed());
}

TEST_F(KernelsTest, ScopesNestAndRewindToTheirOwnMark) {
  kernels::SetArenaEnabledForTest(1);
  kernels::TapeScope outer;
  Tensor a = kernels::NewTensor({8});
  const int64_t after_outer = kernels::Arena::ThreadLocal().LiveFloats();
  {
    kernels::TapeScope inner;
    Tensor b = kernels::NewTensor({1024});
    EXPECT_GT(kernels::Arena::ThreadLocal().LiveFloats(), after_outer);
  }
  EXPECT_EQ(kernels::Arena::ThreadLocal().LiveFloats(), after_outer);
  a.at(0) = 3.0f;  // outer-scope storage survives the inner rewind
  EXPECT_EQ(BitsOf(a.at(0)), BitsOf(3.0f));
}

TEST_F(KernelsTest, RewindPoisonsFreedSpanUnderCheck) {
  kernels::SetArenaEnabledForTest(1);
  tensor::debug_check::SetEnabledForTest(true);
  float* span = nullptr;
  {
    kernels::TapeScope scope;
    span = kernels::Arena::ThreadLocal().Alloc(32);
    ASSERT_NE(span, nullptr);
    for (int i = 0; i < 32; ++i) span[i] = 1.0f;
  }
  // The span outlived its scope: every read must be a loud NaN, not the
  // stale (or silently recycled) payload.
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(std::isnan(span[i])) << "offset " << i;
  }
}

TEST_F(KernelsTest, CopiesOfArenaTensorsDetachToHeap) {
  kernels::SetArenaEnabledForTest(1);
  Tensor copy;
  {
    kernels::TapeScope scope;
    Tensor t = kernels::NewTensor({3});
    t.at(0) = 1.0f;
    t.at(1) = 2.0f;
    t.at(2) = 3.0f;
    copy = t;  // deep-copies to heap: this is what Detach/snapshots rely on
    EXPECT_TRUE(t.arena_backed());
    EXPECT_FALSE(copy.arena_backed());
  }
  EXPECT_EQ(BitsOf(copy.at(0)), BitsOf(1.0f));
  EXPECT_EQ(BitsOf(copy.at(1)), BitsOf(2.0f));
  EXPECT_EQ(BitsOf(copy.at(2)), BitsOf(3.0f));
}

// ---------------------------------------------------------------------------
// End-to-end digest matrix: {1,8 threads} x {SIMD 0,1} x {arena 0,1}.
// ---------------------------------------------------------------------------

graph::TemporalGraph MatrixGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 400;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  graph::TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

core::LinkPredictionJob MatrixJob(const graph::TemporalGraph* g,
                                  models::ModelKind kind) {
  core::LinkPredictionJob job;
  job.graph = g;
  job.num_users = 40;
  job.kind = kind;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.model_config.num_neighbors = 4;
  job.model_config.num_layers = 1;
  job.model_config.num_heads = 2;
  job.train_config.max_epochs = 2;
  job.train_config.batch_size = 100;
  job.train_config.seed = 5;
  return job;
}

TEST_F(KernelsTest, TrainingBitIdenticalAcrossSimdThreadsAndArena) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const graph::TemporalGraph g = MatrixGraph();
  for (const models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kTgat}) {
    std::vector<uint64_t> auc_bits;
    // Counter digests are compared within the same arena setting: the
    // arena.bytes/arena.resets counters legitimately differ when the
    // arena is off.
    std::vector<std::string> digests_arena_on;
    std::vector<std::string> digests_arena_off;
    for (const int threads : {1, 8}) {
      for (const int simd : {0, 1}) {
        for (const int arena : {0, 1}) {
          runtime::ThreadPool::Global().SetNumThreads(threads);
          kernels::SetSimdEnabledForTest(simd);
          kernels::SetArenaEnabledForTest(arena);
          registry.Reset();
          const core::LinkPredictionResult result =
              core::RunLinkPrediction(MatrixJob(&g, kind));
          ASSERT_EQ(result.status, models::ModelStatus::kOk)
              << models::ModelKindName(kind) << " threads=" << threads
              << " simd=" << simd << " arena=" << arena;
          auc_bits.push_back(BitsOf(result.val_transductive.auc));
          auc_bits.push_back(BitsOf(result.test[0].auc));
          (arena != 0 ? digests_arena_on : digests_arena_off)
              .push_back(registry.CountersDigest());
        }
      }
    }
    for (size_t i = 2; i < auc_bits.size(); i += 2) {
      EXPECT_EQ(auc_bits[i], auc_bits[0])
          << models::ModelKindName(kind) << " config " << i / 2;
      EXPECT_EQ(auc_bits[i + 1], auc_bits[1])
          << models::ModelKindName(kind) << " config " << i / 2;
    }
    for (size_t i = 1; i < digests_arena_on.size(); ++i) {
      EXPECT_EQ(digests_arena_on[i], digests_arena_on[0])
          << models::ModelKindName(kind);
    }
    for (size_t i = 1; i < digests_arena_off.size(); ++i) {
      EXPECT_EQ(digests_arena_off[i], digests_arena_off[0])
          << models::ModelKindName(kind);
    }
  }
}

TEST_F(KernelsTest, TrainingBitIdenticalFusedVsEager) {
  // BENCHTEMP_FUSION=0/1 must not move a single training bit, at any
  // thread count, either SIMD setting, and with the async pipeline on or
  // off. The model trajectory (AUC/AP bits) is compared across ALL
  // configurations; counter digests are compared within a fusion setting —
  // fusion legitimately changes parallel_for.calls and arena.bytes (fewer,
  // larger passes), which is the point of the optimization.
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const graph::TemporalGraph g = MatrixGraph();
  for (const models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kTgat}) {
    std::vector<uint64_t> auc_bits;
    std::vector<std::string> digests_fused;
    std::vector<std::string> digests_eager;
    for (const int threads : {1, 8}) {
      for (const int simd : {0, 1}) {
        for (const int depth : {0, 2}) {
          for (const int fusion : {0, 1}) {
            runtime::ThreadPool::Global().SetNumThreads(threads);
            kernels::SetSimdEnabledForTest(simd);
            kernels::SetArenaEnabledForTest(1);
            tensor::expr::SetFusionEnabledForTest(fusion);
            registry.Reset();
            core::LinkPredictionJob job = MatrixJob(&g, kind);
            job.train_config.pipeline_depth = depth;
            const core::LinkPredictionResult result =
                core::RunLinkPrediction(job);
            ASSERT_EQ(result.status, models::ModelStatus::kOk)
                << models::ModelKindName(kind) << " threads=" << threads
                << " simd=" << simd << " depth=" << depth
                << " fusion=" << fusion;
            auc_bits.push_back(BitsOf(result.val_transductive.auc));
            auc_bits.push_back(BitsOf(result.test[0].auc));
            auc_bits.push_back(BitsOf(result.test[0].ap));
            (fusion != 0 ? digests_fused : digests_eager)
                .push_back(registry.CountersDigest());
          }
        }
      }
    }
    for (size_t i = 3; i < auc_bits.size(); i += 3) {
      EXPECT_EQ(auc_bits[i], auc_bits[0])
          << models::ModelKindName(kind) << " config " << i / 3;
      EXPECT_EQ(auc_bits[i + 1], auc_bits[1])
          << models::ModelKindName(kind) << " config " << i / 3;
      EXPECT_EQ(auc_bits[i + 2], auc_bits[2])
          << models::ModelKindName(kind) << " config " << i / 3;
    }
    for (size_t i = 1; i < digests_fused.size(); ++i) {
      EXPECT_EQ(digests_fused[i], digests_fused[0])
          << models::ModelKindName(kind) << " fused config " << i;
    }
    for (size_t i = 1; i < digests_eager.size(); ++i) {
      EXPECT_EQ(digests_eager[i], digests_eager[0])
          << models::ModelKindName(kind) << " eager config " << i;
    }
    // Fusion's flop accounting is call-for-call identical to the eager
    // ops', and fewer-but-larger arena allocations must strictly shrink
    // arena.bytes: check both directly rather than whole-digest equality.
    auto counter_of = [](const std::string& digest, const char* name) {
      const size_t pos = digest.find(name);
      EXPECT_NE(pos, std::string::npos) << name;
      return std::strtoll(digest.c_str() + pos + std::strlen(name) + 1,
                          nullptr, 10);
    };
    EXPECT_EQ(counter_of(digests_fused[0], "kernels.flops"),
              counter_of(digests_eager[0], "kernels.flops"))
        << models::ModelKindName(kind);
    EXPECT_LT(counter_of(digests_fused[0], "arena.bytes"),
              counter_of(digests_eager[0], "arena.bytes"))
        << models::ModelKindName(kind);
  }
}

TEST_F(KernelsTest, CheckpointResumeByteIdenticalWithArenaAndCheck) {
  // Arena on + tape validator on: a crash/resume cycle must still replay
  // the exact trajectory (PR2's grad-buffer pre-allocation contract).
  kernels::SetArenaEnabledForTest(1);
  tensor::debug_check::SetEnabledForTest(true);
  const graph::TemporalGraph g = MatrixGraph();
  const std::string path =
      ::testing::TempDir() + "/kernels_arena_resume.ckpt";
  std::remove(path.c_str());

  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  const core::LinkPredictionResult reference = core::RunLinkPrediction(job);
  ASSERT_EQ(reference.status, models::ModelStatus::kOk);

  job.train_config.checkpoint_path = path;
  base::FaultSpec spec;
  spec.at_step = 4;  // mid-epoch-2 (~3 train batches per epoch)
  base::FaultInjector::Global().Arm(base::FaultSite::kThrowForward,
                                          spec);
  EXPECT_THROW(core::RunLinkPrediction(job), std::runtime_error);
  base::FaultInjector::Global().DisarmAll();

  const core::LinkPredictionResult resumed = core::RunLinkPrediction(job);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.status, models::ModelStatus::kOk);
  EXPECT_EQ(BitsOf(resumed.val_transductive.auc),
            BitsOf(reference.val_transductive.auc));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(BitsOf(resumed.test[s].auc), BitsOf(reference.test[s].auc));
    EXPECT_EQ(BitsOf(resumed.test[s].ap), BitsOf(reference.test[s].ap));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace benchtemp
