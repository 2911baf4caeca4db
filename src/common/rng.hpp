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
//
// Episode noise contract.  Rng::normals fills a whole series in one call
// with a 256-layer ziggurat (Marsaglia & Tsang 2000, detail::normals below)
// over the same Mt19937_64 words: one word gives the layer (bits 0-7), the
// sign (bit 8) and a 53-bit uniform (bits 11-63); the tables are checked-in
// literals, and libm is called only in the wedge (exp) and the tail (log),
// on ~1.5% of draws.  Its values are not those of normal(): the episode
// generators (traffic, wind, temperature, solar transmittance and RTP)
// draw their noise through normals() and so define episode series under
// this contract, while every point draw (nn initialisation, the EV
// dataset, spatial placement, ...) stays on normal() and the libstdc++
// contract above.  normals() keeps no state between calls, so one call of
// n draws equals any split of it into consecutive calls.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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

/// Ziggurat tables of normals() for the half-normal density
/// f(x) = exp(-x^2 / 2), 256 layers of area kZigV each.  kZigX[i] is the
/// right edge of layer i, decreasing from kZigX[0] = kZigV / f(kZigR) (the
/// base strip's width including its tail) through kZigX[1] = kZigR to
/// kZigX[256] = 0, and kZigF[i] = f(kZigX[i]).  Layers 1..255 satisfy
/// kZigX[i] * (kZigF[i + 1] - kZigF[i]) = kZigV; the base strip satisfies
/// kZigR * f(kZigR) + (tail area beyond kZigR) = kZigV.  Literals in rng.cpp.
inline constexpr std::size_t kZigLayers = 256;
inline constexpr double kZigR = 0x1.d3bb48209ad33p+1;  // 3.6541528853610088
inline constexpr double kZigV = 0x1.43016a5a43732p-8;  // 0.0049286732339746552
extern const std::array<double, kZigLayers + 1> kZigX;
extern const std::array<double, kZigLayers + 1> kZigF;

/// Uniform in (0, 1) from the top 52 bits of a word; never 0, so its log is
/// finite.
inline double open_unit(std::uint64_t w) {
  return (static_cast<double>(static_cast<std::int64_t>(w >> 12)) + 0.5) * 0x1p-52;
}

/// The ~1.5% of draws whose x falls outside its layer's core rectangle:
/// the base strip samples the tail beyond kZigR (Marsaglia's 1964 exact
/// method) into x and accepts; any other layer draws a uniform height and
/// accepts x only under the density (the wedge test).  Kept out of line so
/// that the fast path stays small enough to inline into normals().
template <FullRange64 G>
[[gnu::noinline]] bool ziggurat_edge(G& g, std::size_t layer, double& x) {
  if (layer == 0) {
    double t = 0.0;
    double e = 0.0;
    do {
      t = -std::log(open_unit(g())) / kZigR;
      e = -std::log(open_unit(g()));
    } while (e + e < t * t);
    x = kZigR + t;
    return true;
  }
  const double unit = static_cast<double>(static_cast<std::int64_t>(g() >> 11)) * 0x1p-53;
  const double y = kZigF[layer] + (kZigF[layer + 1] - kZigF[layer]) * unit;
  return y < std::exp(-0.5 * x * x);
}

/// One standard normal by the ziggurat.  The fast path (x inside its
/// layer's core rectangle, ~98.5% of draws) takes one word and no libm call.
template <FullRange64 G>
inline double ziggurat(G& g) {
  for (;;) {
    const std::uint64_t w = g();
    const std::size_t layer = w & 0xffU;
    double x = static_cast<double>(static_cast<std::int64_t>(w >> 11)) * 0x1p-53 * kZigX[layer];
    if (x < kZigX[layer + 1] || ziggurat_edge(g, layer, x)) {
      // x >= 0, so bit 8 of the word moved to bit 63 is the sign.
      return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) | ((w & 0x100U) << 55));
    }
  }
}

/// Fills `out` with independent normal(mean, stddev) draws by the
/// ziggurat, in index order: out[k] = z_k * stddev + mean.
template <FullRange64 G>
inline void normals(G& g, std::span<double> out, double mean, double stddev) {
  for (double& v : out) v = ziggurat(g) * stddev + mean;
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

  /// Fills `out` with Gaussian draws in one call: the ziggurat of the
  /// episode noise contract (file comment), not normal()'s polar values.
  /// Splitting one call into consecutive calls yields the same values.
  void normals(std::span<double> out, double mean = 0.0, double stddev = 1.0);

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
