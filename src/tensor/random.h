#ifndef BENCHTEMP_TENSOR_RANDOM_H_
#define BENCHTEMP_TENSOR_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "base/splitmix.h"

namespace benchtemp::tensor {

/// SplitMix64 finalizer: the repo-wide keying primitive behind every
/// "per-X stream" determinism contract (per-root walk streams, per-batch
/// negative sampling / prefetch seeds): the derived value depends only on
/// (seed, index), never on call order or thread count. The implementation
/// lives in base/splitmix.h (the bottom layer) so the fault injector and
/// I/O shim can draw from the same streams without an upward include.
using base::SplitMix64;

/// MT19937-64 with exactly std::mt19937_64's output stream, whose first
/// generation is seeded and twisted on demand.
///
/// Seeding std's engine runs 311 recurrence steps, and its first draw
/// twists all 312 state words, although output i of the first generation
/// needs only seed words up to i + 156 and twisted words up to i. The
/// per-row and per-root streams (ranking candidates, walk roots) draw a
/// few to a few hundred values each, so they paid for the whole state
/// every time. This engine extends the seeded and twisted prefixes in
/// small steps as draws reach them; once the first generation is complete
/// it twists full generations like std, and a draw costs the same single
/// bounds check.
///
/// The text format (operator<< / operator>>) is libstdc++'s: the 312 state
/// words and the next-word index, space-separated. Writing a stream whose
/// first generation is still partial writes the state std's engine holds
/// at that point — the raw seed words and index 312 before any draw, the
/// fully twisted generation after one — so SaveState strings and the
/// checkpoints that embed them are byte-identical to std's.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type value = default_seed) { seed(value); }
  /// Copies copy only the computed words: the state array is left
  /// uninitialized past a pending first generation's seeded prefix, which
  /// saves clearing 2.5 KB per short stream.
  Mt19937_64(const Mt19937_64& other) { CopyFrom(other); }
  Mt19937_64& operator=(const Mt19937_64& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void seed(result_type value) {
    x_[0] = value;
    seeded_ = 1;
    ready_ = 0;
    p_ = 0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= ready_) Refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  void CopyFrom(const Mt19937_64& other);
  /// Makes x_[p_] available: extends the lazy first generation, or twists
  /// the next full generation once the current one is used up.
  void Refill();
  /// Computes seed words up to (excluding) `n`.
  void SeedTo(size_t n);
  /// Twists words [ready_, n) in place, in std's order, and sets ready_.
  void TwistTo(size_t n);
  /// Brings a partial first generation to the state std's engine holds.
  void Complete();

  std::array<result_type, state_size> x_;
  /// Index of the next output word (std's _M_p, except that it reads 0
  /// rather than 312 while the first generation is pending).
  size_t p_ = 0;
  /// Words [0, ready_) are twisted; draws stop at ready_. After the first
  /// generation ready_ == state_size, so the draw check is std's.
  size_t ready_ = 0;
  /// First generation only: seed words [0, seeded_) are computed.
  size_t seeded_ = 0;
};

/// Deterministic pseudo-random number source.
///
/// Every stochastic component in the library (dataset generation, negative
/// edge sampling, parameter initialization, walk sampling) draws from an
/// explicitly seeded Rng so experiments are reproducible run to run; this is
/// one of the paper's standardization points (seeded edge samplers).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);
  /// Uniform integer in [lo, hi].
  int64_t UniformRange(int64_t lo, int64_t hi);
  /// Uniform real in [lo, hi).
  float UniformReal(float lo, float hi);
  /// Normal with the given mean and stddev.
  float Normal(float mean, float stddev);
  /// Exponential with the given rate.
  double Exponential(double rate);
  /// Bernoulli with probability p of returning true.
  bool Bernoulli(double p);
  /// Zipf-distributed integer in [0, n) with exponent s (s = 0 is uniform).
  /// Implemented by inverse-CDF over precomputed weights is too costly for
  /// large n, so uses rejection sampling.
  int64_t Zipf(int64_t n, double s);
  /// Samples an index proportional to the (non-negative) weights.
  int64_t Categorical(const std::vector<double>& weights);

  /// Serializes the engine state (std::mt19937_64's text format) so a
  /// resumed job replays exactly the draws an uninterrupted run would have
  /// made.
  std::string SaveState() const;
  /// Restores a state produced by SaveState() (or by streaming a
  /// std::mt19937_64). Returns false (engine untouched) when the string
  /// does not parse.
  bool LoadState(const std::string& state);

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_RANDOM_H_
