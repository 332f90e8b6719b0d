#include "tensor/autograd.h"

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "tensor/expr.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor {
namespace {

/// Numerically checks d(loss)/d(param) for every entry of `param`, where
/// `loss_fn` rebuilds the scalar loss from scratch (so perturbed forward
/// passes are consistent).
void CheckGradient(const Var& param, const std::function<Var()>& loss_fn,
                   float tolerance = 2e-2f) {
  Var loss = loss_fn();
  ZeroGrad({param});
  Backward(loss);
  const Tensor analytic = param->grad;
  ASSERT_EQ(analytic.size(), param->value.size());
  const float eps = 1e-3f;
  for (int64_t i = 0; i < param->value.size(); ++i) {
    const float saved = param->value.at(i);
    param->value.at(i) = saved + eps;
    const float up = loss_fn()->value.at(0);
    param->value.at(i) = saved - eps;
    const float down = loss_fn()->value.at(0);
    param->value.at(i) = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic.at(i), numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "entry " << i;
  }
}

TEST(AutogradTest, AddBackward) {
  Rng rng(1);
  Var a = Parameter(Tensor::Randn({3, 4}, rng));
  Var b = Parameter(Tensor::Randn({3, 4}, rng));
  auto loss = [&] { return Sum(Mul(Add(a, b), Add(a, b))); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, AddRowBroadcastBackward) {
  Rng rng(2);
  Var a = Parameter(Tensor::Randn({5, 3}, rng));
  Var bias = Parameter(Tensor::Randn({1, 3}, rng));
  auto loss = [&] { return Sum(Tanh(Add(a, bias))); };
  CheckGradient(bias, loss);
  CheckGradient(a, loss);
}

TEST(AutogradTest, MulColumnBroadcastBackward) {
  Rng rng(3);
  Var a = Parameter(Tensor::Randn({4, 3}, rng));
  Var col = Parameter(Tensor::Randn({4, 1}, rng));
  auto loss = [&] { return Sum(Mul(a, col)); };
  CheckGradient(col, loss);
  CheckGradient(a, loss);
}

TEST(AutogradTest, MatMulBackward) {
  Rng rng(4);
  Var a = Parameter(Tensor::Randn({3, 5}, rng));
  Var b = Parameter(Tensor::Randn({5, 2}, rng));
  auto loss = [&] { return Sum(MatMul(a, b)); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, MatMulValue) {
  Var a = Constant(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Var b = Constant(Tensor::FromVector({2, 2}, {5, 6, 7, 8}));
  Var c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c->value.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c->value.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 1), 50.0f);
}

TEST(AutogradTest, MatMulAccBackward) {
  Rng rng(24);
  Var base = Parameter(Tensor::Randn({3, 2}, rng));
  Var a = Parameter(Tensor::Randn({3, 4}, rng));
  Var w = Parameter(Tensor::Randn({4, 2}, rng));
  auto loss = [&] { return Sum(Mul(MatMulAcc(base, a, w), base)); };
  CheckGradient(base, loss);
  CheckGradient(a, loss);
  CheckGradient(w, loss);
}

/// The factored first layer: a partial product over W's first p rows,
/// finished by MatMulAcc over the rest, is the unsplit product bit for
/// bit — including depths over the GEMM's kKc = 256 depth block.
TEST(AutogradTest, MatMulAccContinuesTheSplitProductBitwise) {
  struct Split {
    int64_t n, p, q, m;
  };
  for (const Split& s : {Split{37, 24, 24, 24}, Split{1, 24, 24, 24},
                         Split{9, 300, 7, 24}, Split{5, 200, 150, 19},
                         Split{13, 3, 290, 17}}) {
    Rng rng(static_cast<uint64_t>(s.n * 1000 + s.p));
    Var x = Constant(Tensor::Randn({s.n, s.p}, rng));
    Var y = Constant(Tensor::Randn({s.n, s.q}, rng));
    Var w = Parameter(Tensor::Randn({s.p + s.q, s.m}, rng));
    const Tensor whole = MatMul(ConcatCols({x, y}), w)->value;
    const Tensor split =
        MatMulAcc(MatMul(x, SliceRows(w, 0, s.p)), y, SliceRows(w, s.p, s.q))
            ->value;
    ASSERT_EQ(whole.size(), split.size());
    EXPECT_EQ(std::memcmp(whole.data(), split.data(),
                          static_cast<size_t>(whole.size()) * sizeof(float)),
              0)
        << s.n << "x(" << s.p << "+" << s.q << ")x" << s.m;
  }
}

TEST(AutogradTest, ConcatSliceBackward) {
  Rng rng(5);
  Var a = Parameter(Tensor::Randn({3, 2}, rng));
  Var b = Parameter(Tensor::Randn({3, 4}, rng));
  auto loss = [&] {
    Var joined = ConcatCols({a, b});
    return Sum(Mul(SliceCols(joined, 1, 3), SliceCols(joined, 2, 3)));
  };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, ConcatRowsBackward) {
  Rng rng(6);
  Var a = Parameter(Tensor::Randn({2, 3}, rng));
  Var b = Parameter(Tensor::Randn({4, 3}, rng));
  auto loss = [&] { return Sum(Tanh(ConcatRows({a, b}))); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, SliceRowsBackward) {
  Rng rng(7);
  Var a = Parameter(Tensor::Randn({5, 3}, rng));
  auto loss = [&] { return Sum(Sigmoid(SliceRows(a, 1, 3))); };
  CheckGradient(a, loss);
}

TEST(AutogradTest, GatherRowsBackwardAccumulatesDuplicates) {
  Rng rng(8);
  Var table = Parameter(Tensor::Randn({4, 2}, rng));
  auto loss = [&] { return Sum(GatherRows(table, {0, 2, 0, 0})); };
  Var l = loss();
  ZeroGrad({table});
  Backward(l);
  EXPECT_FLOAT_EQ(table->grad.at(0, 0), 3.0f);  // row 0 gathered 3 times
  EXPECT_FLOAT_EQ(table->grad.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(table->grad.at(1, 0), 0.0f);
  CheckGradient(table, loss);
}

TEST(AutogradTest, UnaryBackward) {
  Rng rng(9);
  Var a = Parameter(Tensor::Randn({4, 3}, rng, 0.8f));
  CheckGradient(a, [&] { return Sum(Sigmoid(a)); });
  CheckGradient(a, [&] { return Sum(Tanh(a)); });
  CheckGradient(a, [&] { return Sum(Exp(a)); });
  CheckGradient(a, [&] { return Sum(Cos(a)); });
  CheckGradient(a, [&] { return Sum(Sin(a)); });
}

TEST(AutogradTest, ReluBackwardAwayFromKink) {
  // Entries are pushed away from zero so the numeric check is valid.
  Var a = Parameter(Tensor::FromVector({2, 2}, {1.0f, -1.5f, 2.0f, -0.5f}));
  CheckGradient(a, [&] { return Sum(Relu(a)); });
}

TEST(AutogradTest, SoftmaxRowsSumsToOne) {
  Rng rng(10);
  Var a = Constant(Tensor::Randn({6, 5}, rng));
  Var s = SoftmaxRows(a);
  for (int64_t r = 0; r < 6; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 5; ++c) total += s->value.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(AutogradTest, SoftmaxBackward) {
  Rng rng(11);
  Var a = Parameter(Tensor::Randn({3, 4}, rng));
  Var weights = Constant(Tensor::Randn({3, 4}, rng));
  CheckGradient(a, [&] { return Sum(Mul(SoftmaxRows(a), weights)); });
}

TEST(AutogradTest, MaskedSoftmaxZerosMaskedEntries) {
  Var a = Constant(Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
  Tensor mask = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 0, 0});
  Var s = MaskedSoftmaxRows(a, mask);
  EXPECT_FLOAT_EQ(s->value.at(0, 1), 0.0f);
  EXPECT_NEAR(s->value.at(0, 0) + s->value.at(0, 2), 1.0f, 1e-5f);
  // Fully masked row: all zeros, no NaNs.
  for (int64_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(s->value.at(1, c), 0.0f);
}

TEST(AutogradTest, BceWithLogitsMatchesManual) {
  Var logits = Parameter(Tensor::FromVector({2}, {0.3f, -1.2f}));
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  Var loss = BceWithLogits(logits, targets);
  const float expected =
      0.5f * (std::log(1.0f + std::exp(0.3f)) - 0.3f +
              std::log(1.0f + std::exp(-1.2f)));
  EXPECT_NEAR(loss->value.at(0), expected, 1e-5f);
  CheckGradient(logits, [&] { return BceWithLogits(logits, targets); });
}

TEST(AutogradTest, BceWithLogitsStableAtExtremes) {
  Var logits = Constant(Tensor::FromVector({2}, {80.0f, -80.0f}));
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  Var loss = BceWithLogits(logits, targets);
  EXPECT_TRUE(std::isfinite(loss->value.at(0)));
  EXPECT_NEAR(loss->value.at(0), 0.0f, 1e-4f);
}

TEST(AutogradTest, SoftmaxCrossEntropyBackward) {
  Rng rng(12);
  Var logits = Parameter(Tensor::Randn({4, 3}, rng));
  std::vector<int64_t> labels = {0, 2, 1, 2};
  CheckGradient(logits, [&] { return SoftmaxCrossEntropy(logits, labels); });
}

TEST(AutogradTest, MseLossBackward) {
  Rng rng(13);
  Var pred = Parameter(Tensor::Randn({3, 2}, rng));
  Tensor target = Tensor::Randn({3, 2}, rng);
  CheckGradient(pred, [&] { return MseLoss(pred, target); });
}

TEST(AutogradTest, BatchDotBackward) {
  Rng rng(14);
  const int64_t k = 3;
  Var q = Parameter(Tensor::Randn({2, 4}, rng));
  Var keys = Parameter(Tensor::Randn({2 * k, 4}, rng));
  auto loss = [&] { return Sum(Tanh(BatchDot(q, keys, k))); };
  CheckGradient(q, loss);
  CheckGradient(keys, loss);
}

TEST(AutogradTest, BatchWeightedSumBackward) {
  Rng rng(15);
  const int64_t k = 3;
  Var w = Parameter(Tensor::Randn({2, k}, rng));
  Var values = Parameter(Tensor::Randn({2 * k, 4}, rng));
  auto loss = [&] { return Sum(Sigmoid(BatchWeightedSum(w, values, k))); };
  CheckGradient(w, loss);
  CheckGradient(values, loss);
}

TEST(AutogradTest, MeanRowsBackward) {
  Rng rng(16);
  Var a = Parameter(Tensor::Randn({4, 3}, rng));
  CheckGradient(a, [&] { return Sum(Tanh(MeanRows(a))); });
}

TEST(AutogradTest, TransposeBackward) {
  Rng rng(17);
  Var a = Parameter(Tensor::Randn({3, 5}, rng));
  Var b = Constant(Tensor::Randn({5, 3}, rng));
  CheckGradient(a, [&] { return Sum(Mul(Transpose(a), b)); });
}

TEST(AutogradTest, ReshapeBackward) {
  Rng rng(18);
  Var a = Parameter(Tensor::Randn({2, 6}, rng));
  CheckGradient(a, [&] { return Sum(Tanh(Reshape(a, {3, 4}))); });
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // The same parameter feeds two paths; gradients must accumulate once per
  // path (topological, not naive recursive, backprop).
  Var a = Parameter(Tensor::FromVector({1}, {2.0f}));
  Var b = Mul(a, a);     // a^2
  Var c = Add(b, a);     // a^2 + a
  Var loss = Sum(Mul(c, c));  // (a^2 + a)^2, d/da = 2(a^2+a)(2a+1) = 60
  Backward(loss);
  EXPECT_NEAR(a->grad.at(0), 60.0f, 1e-3f);
}

TEST(AutogradTest, NoGradThroughConstants) {
  Var a = Constant(Tensor::FromVector({1}, {3.0f}));
  Var loss = Sum(Mul(a, a));
  EXPECT_FALSE(loss->requires_grad);
  Backward(loss);  // must be a no-op, not a crash
  EXPECT_EQ(a->grad.size(), 0);
}

TEST(AutogradTest, DetachStopsGradient) {
  Var a = Parameter(Tensor::FromVector({1}, {2.0f}));
  Var loss = Sum(Mul(Detach(a), a));  // only the direct path contributes
  Backward(loss);
  EXPECT_NEAR(a->grad.at(0), 2.0f, 1e-5f);
}

TEST(AutogradTest, DeepChainBackwardDoesNotOverflowStack) {
  Var a = Parameter(Tensor::FromVector({1}, {0.5f}));
  Var x = a;
  for (int i = 0; i < 20000; ++i) x = ScalarMul(x, 1.0f);
  Backward(Sum(x));
  EXPECT_NEAR(a->grad.at(0), 1.0f, 1e-5f);
}

// ---------------------------------------------------------------------------
// Numeric goldens for the fused loss prelude. The trainer averages the two
// BCE halves through the expression layer (one fused pass); these pin the
// exact values so a fused-evaluator regression cannot silently shift the
// loss numerics the published tables depend on.
// ---------------------------------------------------------------------------

TEST(AutogradTest, FusedBcePreludeGolden) {
  Var pos = Parameter(Tensor::FromVector({2}, {0.3f, 1.1f}));
  Var neg = Parameter(Tensor::FromVector({2}, {-0.7f, 0.2f}));
  Tensor ones = Tensor::FromVector({2}, {1.0f, 1.0f});
  Tensor zeros = Tensor::FromVector({2}, {0.0f, 0.0f});
  Var loss = expr::ScalarMul(
      expr::Add(expr::Ex(BceWithLogits(pos, ones)),
                expr::Ex(BceWithLogits(neg, zeros))),
      0.5f);
  const double pos_bce = 0.5 * ((std::log(1.0 + std::exp(0.3)) - 0.3) +
                                (std::log(1.0 + std::exp(1.1)) - 1.1));
  const double neg_bce = 0.5 * (std::log(1.0 + std::exp(-0.7)) +
                                std::log(1.0 + std::exp(0.2)));
  EXPECT_NEAR(loss->value.at(0),
              static_cast<float>(0.5 * (pos_bce + neg_bce)), 1e-6f);
  Backward(loss);
  // d loss / d pos_i = 0.5 * (sigmoid(pos_i) - 1) / n.
  EXPECT_NEAR(pos->grad.at(0),
              0.25f * (1.0f / (1.0f + std::exp(-0.3f)) - 1.0f), 1e-6f);
  EXPECT_NEAR(neg->grad.at(1), 0.25f * (1.0f / (1.0f + std::exp(-0.2f))),
              1e-6f);
}

TEST(AutogradTest, FusedBcePreludeMatchesEagerBitwise) {
  Rng rng(40);
  Var pos1 = Parameter(Tensor::Randn({8}, rng));
  Var neg1 = Parameter(Tensor::Randn({8}, rng));
  Var pos2 = Parameter(pos1->value);
  Var neg2 = Parameter(neg1->value);
  Tensor ones = Tensor::Full({8}, 1.0f);
  Tensor zeros = Tensor::Zeros({8});
  Var fused = expr::ScalarMul(
      expr::Add(expr::Ex(BceWithLogits(pos1, ones)),
                expr::Ex(BceWithLogits(neg1, zeros))),
      0.5f);
  Var eager = ScalarMul(
      Add(BceWithLogits(pos2, ones), BceWithLogits(neg2, zeros)), 0.5f);
  ASSERT_EQ(fused->value.size(), 1);
  EXPECT_EQ(std::memcmp(fused->value.data(), eager->value.data(), 4), 0);
  Backward(fused);
  Backward(eager);
  EXPECT_EQ(std::memcmp(pos1->grad.data(), pos2->grad.data(),
                        static_cast<size_t>(pos1->grad.size()) * 4),
            0);
  EXPECT_EQ(std::memcmp(neg1->grad.data(), neg2->grad.data(),
                        static_cast<size_t>(neg1->grad.size()) * 4),
            0);
}

TEST(AutogradTest, SoftmaxRowsGolden) {
  // SoftmaxRows runs Exp / Sum / normalize as one internal kernel pass;
  // pin its exact output for a known row so that path stays put.
  Var a = Constant(Tensor::FromVector({1, 3}, {1.0f, 2.0f, 3.0f}));
  Var s = SoftmaxRows(a);
  const double z = std::exp(1.0 - 3.0) + std::exp(2.0 - 3.0) + 1.0;
  EXPECT_NEAR(s->value.at(0, 0), static_cast<float>(std::exp(-2.0) / z),
              1e-6f);
  EXPECT_NEAR(s->value.at(0, 1), static_cast<float>(std::exp(-1.0) / z),
              1e-6f);
  EXPECT_NEAR(s->value.at(0, 2), static_cast<float>(1.0 / z), 1e-6f);
}

TEST(AutogradTest, MaskedSoftmaxRowsGolden) {
  Var a = Constant(Tensor::FromVector({1, 3}, {2.0f, 5.0f, 4.0f}));
  Tensor mask = Tensor::FromVector({1, 3}, {1.0f, 0.0f, 1.0f});
  Var s = MaskedSoftmaxRows(a, mask);
  const double z = std::exp(2.0 - 4.0) + 1.0;
  EXPECT_NEAR(s->value.at(0, 0), static_cast<float>(std::exp(-2.0) / z),
              1e-6f);
  EXPECT_FLOAT_EQ(s->value.at(0, 1), 0.0f);
  EXPECT_NEAR(s->value.at(0, 2), static_cast<float>(1.0 / z), 1e-6f);
}

}  // namespace
}  // namespace benchtemp::tensor
