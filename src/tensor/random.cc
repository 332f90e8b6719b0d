#include "tensor/random.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "tensor/tensor.h"

namespace benchtemp::tensor {

namespace {

// MT19937-64 parameters (std::mt19937_64).
constexpr size_t kN = Mt19937_64::state_size;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;

/// Words the lazy first generation twists per refill: small enough that a
/// stream of a few draws seeds little more than the 156 words its first
/// outputs need, large enough that longer streams refill rarely.
constexpr size_t kLazyStep = 16;

inline uint64_t TwistWord(uint64_t hi, uint64_t lo, uint64_t far) {
  const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
}

}  // namespace

void Mt19937_64::CopyFrom(const Mt19937_64& other) {
  // Every computed word lies below seeded_ (== kN once the first
  // generation is complete).
  std::copy_n(other.x_.begin(), other.seeded_, x_.begin());
  p_ = other.p_;
  ready_ = other.ready_;
  seeded_ = other.seeded_;
}

void Mt19937_64::SeedTo(size_t n) {
  for (size_t i = seeded_; i < n; ++i) {
    const uint64_t prev = x_[i - 1];
    x_[i] = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
  }
  seeded_ = std::max(seeded_, n);
}

void Mt19937_64::TwistTo(size_t n) {
  // std's in-place order: word k reads seed words k + 1 and k + kM (not
  // yet twisted) below kN - kM, and the already twisted word k + kM - kN
  // above; the last word wraps to the twisted word 0.
  size_t k = ready_;
  for (; k < std::min(n, kN - kM); ++k) {
    x_[k] = TwistWord(x_[k], x_[k + 1], x_[k + kM]);
  }
  for (; k < std::min(n, kN - 1); ++k) {
    x_[k] = TwistWord(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  if (k < n) {
    x_[kN - 1] = TwistWord(x_[kN - 1], x_[0], x_[kM - 1]);
    ++k;
  }
  ready_ = k;
}

void Mt19937_64::Refill() {
  if (ready_ < kN) {
    // Lazy first generation: p_ == ready_ here. Word k needs seed words up
    // to k + kM (k + 1 past the middle), so seed that far, then twist.
    const size_t target = std::min(kN, ready_ + kLazyStep);
    SeedTo(std::min(kN, target + kM));
    TwistTo(target);
    return;
  }
  ready_ = 0;
  TwistTo(kN);
  p_ = 0;
}

void Mt19937_64::Complete() {
  if (ready_ == kN) return;
  SeedTo(kN);
  if (p_ == 0) {
    // No draw yet: std holds the seed words and index kN, and twists on
    // the next draw.
    ready_ = kN;
    p_ = kN;
    return;
  }
  TwistTo(kN);
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  Mt19937_64 full = e;
  full.Complete();
  const std::ios_base::fmtflags flags = os.flags();
  const char fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (size_t i = 0; i < kN; ++i) os << full.x_[i] << ' ';
  os << full.p_;
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  for (size_t i = 0; i < kN; ++i) is >> e.x_[i];
  is >> e.p_;
  is.flags(flags);
  e.seeded_ = kN;
  e.ready_ = kN;
  return is;
}

int64_t Rng::UniformInt(int64_t n) {
  CheckOrDie(n > 0, "UniformInt: n must be positive");
  std::uniform_int_distribution<int64_t> dist(0, n - 1);
  return dist(engine_);
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  CheckOrDie(lo <= hi, "UniformRange: lo > hi");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

float Rng::UniformReal(float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  return dist(engine_);
}

float Rng::Normal(float mean, float stddev) {
  std::normal_distribution<float> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

int64_t Rng::Zipf(int64_t n, double s) {
  CheckOrDie(n > 0, "Zipf: n must be positive");
  if (s <= 0.0 || n == 1) return UniformInt(n);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  if (s > 1.0 + 1e-9) {
    // Exact rejection sampling (Devroye's method); valid only for s > 1
    // where the envelope constant b = 2^(s-1) exceeds 1.
    const double b = std::pow(2.0, s - 1.0);
    for (;;) {
      const double u = uniform(engine_);
      const double v = uniform(engine_);
      const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
      if (x > static_cast<double>(n)) continue;
      const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
      if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
        return static_cast<int64_t>(x) - 1;
      }
    }
  }
  // 0 < s <= 1: continuous inverse-CDF approximation of p(x) ∝ x^{-s}.
  // For s == 1 the CDF is logarithmic (x = (n+1)^u); otherwise it is the
  // truncated power law inversion. Accurate enough for workload skew.
  const double u = uniform(engine_);
  double x;
  if (std::fabs(s - 1.0) < 1e-9) {
    x = std::pow(static_cast<double>(n) + 1.0, u);
  } else {
    const double top = std::pow(static_cast<double>(n) + 1.0, 1.0 - s);
    x = std::pow(1.0 + u * (top - 1.0), 1.0 / (1.0 - s));
  }
  int64_t out = static_cast<int64_t>(std::floor(x)) - 1;
  if (out < 0) out = 0;
  if (out >= n) out = n - 1;
  return out;
}

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

bool Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  Mt19937_64 restored;
  in >> restored;
  if (in.fail()) return false;
  engine_ = restored;
  return true;
}

int64_t Rng::Categorical(const std::vector<double>& weights) {
  CheckOrDie(!weights.empty(), "Categorical: empty weights");
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return UniformInt(static_cast<int64_t>(weights.size()));
  std::uniform_real_distribution<double> dist(0.0, total);
  double r = dist(engine_);
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

}  // namespace benchtemp::tensor
