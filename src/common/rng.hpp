// Deterministic random-number utilities.
//
// Every stochastic component in the system draws from an Rng seeded from the
// experiment configuration, so that all tables and figures are reproducible
// bit-for-bit across runs.
//
// Bit contract.  The engine is MT19937-64 (Mt19937_64 below): the same
// 312-word seeding, twist and tempering as the standard library's
// mt19937_64, so it yields the identical word stream for every seed.  The
// five hot distributions (uniform, normal, bernoulli, exponential, weibull)
// are the detail:: templates in this header: libstdc++ 12's formulas with
// its operand order, over a branch-free, correctly rounded 53-bit canonical
// that equals libstdc++ 12's generate_canonical<double, 53>.  Their values
// therefore no longer depend on the standard library's version.
// uniform_int, poisson and shuffle keep libstdc++'s std:: algorithms, run
// over Mt19937_64; their values depend only on the engine's words and on
// those algorithms.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ecthub {

/// Deterministic stream seed: a splitmix64 finalizer over (base, stream).
/// Distinct stream ids map to well-separated seeds even for adjacent bases —
/// the per-hub seeding primitive of the fleet engine (sim::mix_seed forwards
/// here) and of every metro front stream derived in core.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base_seed,
                                     std::uint64_t stream) noexcept;

/// 64-bit Mersenne Twister whose output equals the standard mt19937_64 word
/// for word (a uniform random bit generator over the full 64-bit range).
/// The twist selects the matrix term with a mask instead of a branch.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    if (pos_ >= kStateWords) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  void twist() noexcept;

  std::array<result_type, kStateWords> state_;
  std::size_t pos_;
};

namespace detail {

/// Requires a generator over the full 64-bit range, which is what lets
/// canonical() skip libstdc++'s `- min()` and `/ (max - min + 1)` terms.
template <class G>
concept FullRange64 = G::min() == 0 && G::max() == ~std::uint64_t{0};

/// Uniform double in [0, 1): libstdc++ 12's generate_canonical<double, 53>
/// on a 64-bit generator, i.e. double(v) / 2^64 rounded to nearest, clamped
/// below 1.  Both halves convert exactly and their sum rounds once, so this
/// is the correctly rounded value without the unsigned conversion's branch.
template <FullRange64 G>
inline double canonical(G& g) {
  const std::uint64_t v = g();
  const double hi = static_cast<double>(static_cast<std::int64_t>(v >> 32));
  const double lo = static_cast<double>(static_cast<std::int64_t>(v & 0xffffffffULL));
  const double r = (hi * 0x1p32 + lo) * 0x1p-64;
  return r >= 1.0 ? std::nextafter(1.0, 0.0) : r;
}

/// std::uniform_real_distribution<double>(lo, hi).
template <FullRange64 G>
inline double uniform(G& g, double lo, double hi) {
  return (canonical(g) * (hi - lo)) + lo;
}

/// std::normal_distribution<double>(mean, stddev) drawn from a fresh
/// distribution: the Marsaglia polar method, returning y * mult and
/// discarding the second value x * mult.
template <FullRange64 G>
inline double normal(G& g, double mean, double stddev) {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * canonical(g) - 1.0;
    y = 2.0 * canonical(g) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return (y * mult) * stddev + mean;
}

/// std::bernoulli_distribution(p): one draw whatever p is.  libstdc++'s
/// adaptor bounds (min 0, max 1) reduce its comparison to u < p.
template <FullRange64 G>
inline bool bernoulli(G& g, double p) {
  return canonical(g) < p;
}

/// std::exponential_distribution<double>(rate).
template <FullRange64 G>
inline double exponential(G& g, double rate) {
  return -std::log(1.0 - canonical(g)) / rate;
}

/// std::weibull_distribution<double>(shape, scale).
template <FullRange64 G>
inline double weibull(G& g, double shape, double scale) {
  return scale * std::pow(-std::log(1.0 - canonical(g)), 1.0 / shape);
}

}  // namespace detail

/// Mt19937_64 with the distributions used across the codebase.  Copyable
/// (copies carry the full engine state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) { return detail::uniform(engine_, lo, hi); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian with the given mean / standard deviation.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return detail::normal(engine_, mean, stddev);
  }

  /// Bernoulli draw; p <= 0 and p >= 1 decide without drawing.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return detail::bernoulli(engine_, p);
  }

  /// Poisson draw with the given mean (mean <= 0 yields 0).
  std::uint64_t poisson(double mean);

  /// Weibull draw with shape k and scale lambda.
  double weibull(double shape, double scale) { return detail::weibull(engine_, shape, scale); }

  /// Exponential draw with the given rate; throws std::invalid_argument
  /// unless rate > 0.
  double exponential(double rate) {
    if (!(rate > 0.0)) throw std::invalid_argument("Rng::exponential: rate must be > 0");
    return detail::exponential(engine_, rate);
  }

  /// A fresh Rng seeded with this stream's next word (so successive forks
  /// differ); used to give each sub-component an independent, reproducible
  /// stream.
  Rng fork() { return Rng(engine_()); }

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  std::size_t categorical(const std::vector<double>& weights);

  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace ecthub
