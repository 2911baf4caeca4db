#include "common/rng.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

namespace ecthub {

std::uint64_t mix_seed(std::uint64_t base_seed, std::uint64_t stream) noexcept {
  // splitmix64 finalizer over a golden-ratio stride; (stream + 1) keeps
  // stream 0 from collapsing onto the raw base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura), as in the standard
// library's mt19937_64.
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// One twist step: joins the top 33 bits of `upper` to the low 31 bits of
// `lower` and applies the matrix term when the joined word is odd.
constexpr std::uint64_t twisted(std::uint64_t far, std::uint64_t upper,
                                std::uint64_t lower) noexcept {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) noexcept : pos_(kN) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) x[k] = twisted(x[k + kM], x[k], x[k + 1]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = twisted(x[k + kM - kN], x[k], x[k + 1]);
  }
  x[kN - 1] = twisted(x[kM - 1], x[kN - 1], x[0]);
  pos_ = 0;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  std::poisson_distribution<std::uint64_t> d(mean);
  return d(engine_);
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  std::shuffle(idx.begin(), idx.end(), engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("Rng::categorical: weights must sum > 0");
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) throw std::invalid_argument("Rng::categorical: negative weight");
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace ecthub
