// Unit tests for the common substrate: time grid, RNG, statistics, tables.
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/exact_sum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

namespace ecthub {
namespace {

// ---------------------------------------------------------------- TimeGrid

TEST(TimeGrid, SizeAndSlotHours) {
  const TimeGrid grid(30, 24);
  EXPECT_EQ(grid.size(), 720u);
  EXPECT_DOUBLE_EQ(grid.slot_hours(), 1.0);
  const TimeGrid half(2, 48);
  EXPECT_DOUBLE_EQ(half.slot_hours(), 0.5);
}

TEST(TimeGrid, RejectsZeroDays) {
  EXPECT_THROW(TimeGrid(0, 24), std::invalid_argument);
  EXPECT_THROW(TimeGrid(1, 0), std::invalid_argument);
}

TEST(TimeGrid, DayAndSlotDecomposition) {
  const TimeGrid grid(3, 24);
  EXPECT_EQ(grid.day_of(0), 0u);
  EXPECT_EQ(grid.day_of(23), 0u);
  EXPECT_EQ(grid.day_of(24), 1u);
  EXPECT_EQ(grid.slot_of_day(24), 0u);
  EXPECT_EQ(grid.slot_of_day(47), 23u);
}

TEST(TimeGrid, HourOfDay) {
  const TimeGrid grid(2, 48);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(1), 0.5);
  EXPECT_DOUBLE_EQ(grid.hour_of_day(49), 0.5);
}

TEST(TimeGrid, HoursFromStartAccumulates) {
  const TimeGrid grid(2, 24);
  EXPECT_DOUBLE_EQ(grid.hours_from_start(25), 25.0);
}

TEST(TimeGrid, DayOfWeekWrapsAtSeven) {
  const TimeGrid grid(15, 24);
  EXPECT_EQ(grid.day_of_week(0), 0u);
  EXPECT_EQ(grid.day_of_week(7 * 24), 0u);
  EXPECT_EQ(grid.day_of_week(8 * 24), 1u);
}

TEST(TimeGrid, WeekendDetection) {
  const TimeGrid grid(7, 24);
  EXPECT_FALSE(grid.is_weekend(0));
  EXPECT_TRUE(grid.is_weekend(5 * 24));
  EXPECT_TRUE(grid.is_weekend(6 * 24));
}

TEST(TimeGrid, OutOfRangeSlotThrows) {
  const TimeGrid grid(1, 24);
  EXPECT_THROW((void)grid.day_of(24), std::out_of_range);
  EXPECT_THROW((void)grid.day_start(1), std::out_of_range);
}

TEST(TimeGrid, DayStart) {
  const TimeGrid grid(3, 24);
  EXPECT_EQ(grid.day_start(2), 48u);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.uniform() != b.uniform());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats::mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stats::stddev(xs), 2.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, PoissonMean) {
  Rng rng(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(acc / n, 3.0, 0.1);
}

TEST(Rng, PoissonZeroMeanYieldsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Rng rng(5);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::nan("")), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.fork();
  // The fork advanced the parent, so both streams differ from a fresh Rng(42).
  Rng fresh(42);
  EXPECT_NE(child.uniform(), fresh.uniform());
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(13);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<std::size_t> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto copy = idx;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, idx);
}

// ---------------------------------------------------------------- RngTwin
//
// The in-repo engine and distributions against the standard library's: the
// bit contract in rng.hpp.

constexpr std::uint64_t kTop = ~std::uint64_t{0};

// libstdc++'s assertion mode rejects out-of-domain parameters (lo > hi, p
// outside [0, 1]) when a distribution is constructed, so those cases run
// only without it.
#ifdef _GLIBCXX_ASSERTIONS
constexpr bool kStdAssertsParams = true;
#else
constexpr bool kStdAssertsParams = false;
#endif

TEST(RngTwin, EngineMatchesStdOverSeveralTwists) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  std::vector<std::uint64_t> seeds = {0, 1, 5489, kTop};
  for (std::uint64_t s = 0; s < 64; ++s) seeds.push_back(mix_seed(2024, s));
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t k = 0; k < 4 * Mt19937_64::kStateWords; ++k) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " word " << k;
    }
  }
}

// A generator that replays a fixed word list (cyclically) and counts what it
// hands out.
class ReplayWords {
 public:
  using result_type = std::uint64_t;
  explicit ReplayWords(std::vector<std::uint64_t> words) : words_(std::move(words)) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kTop; }
  result_type operator()() { return words_[used_++ % words_.size()]; }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t used_ = 0;
};

// Draws from `ours` and `ref` until they have used all of `words`, checking
// after every draw that both produced the same value bit for bit and used
// the same number of words.
template <class Ours, class Ref>
void expect_twin(const std::vector<std::uint64_t>& words, Ours ours, Ref ref) {
  ReplayWords a(words);
  ReplayWords b(words);
  for (std::size_t draw = 0; a.used() < words.size(); ++draw) {
    const auto x = ours(a);
    const auto y = ref(b);
    ASSERT_EQ(0, std::memcmp(&x, &y, sizeof x)) << "draw " << draw << ": " << x << " vs " << y;
    ASSERT_EQ(a.used(), b.used()) << "draw " << draw;
  }
}

// Conversion boundaries (2^64 - 1 takes the below-one clamp), then a stretch
// of engine words.
std::vector<std::uint64_t> crafted_words() {
  std::vector<std::uint64_t> w = {0,
                                  1,
                                  (std::uint64_t{1} << 53) - 1,
                                  std::uint64_t{1} << 53,
                                  (std::uint64_t{1} << 53) + 1,
                                  std::uint64_t{1} << 63,
                                  kTop - 1023,
                                  kTop - 1024,
                                  kTop};
  std::mt19937_64 eng(99);
  for (int i = 0; i < 2000; ++i) w.push_back(eng());
  return w;
}

TEST(RngTwin, CanonicalMatchesGenerateCanonical) {
  expect_twin(
      crafted_words(), [](ReplayWords& g) { return detail::canonical(g); },
      [](ReplayWords& g) { return std::generate_canonical<double, 53>(g); });
  ReplayWords top({kTop - 1023, kTop});
  EXPECT_EQ(detail::canonical(top), std::nextafter(1.0, 0.0));
  EXPECT_EQ(detail::canonical(top), std::nextafter(1.0, 0.0));
}

TEST(RngTwin, UniformMatchesStdIncludingReversedBounds) {
  std::vector<std::pair<double, double>> bounds = {{0.0, 1.0}, {-3.0, 7.5}};
  if (!kStdAssertsParams) bounds.emplace_back(5.0, -2.0);
  for (const auto& [lo, hi] : bounds) {
    expect_twin(
        crafted_words(), [lo, hi](ReplayWords& g) { return detail::uniform(g, lo, hi); },
        [lo, hi](ReplayWords& g) { return std::uniform_real_distribution<double>(lo, hi)(g); });
  }
}

TEST(RngTwin, NormalMatchesStdThroughPolarRejections) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;  // canonical 0.5, x = 0
  const std::vector<std::uint64_t> rejects = {
      kTop, kTop,            // r2 = 2 > 1
      kHalf, kHalf,          // r2 == 0
      0, kTop,               // r2 ~ 2 > 1
      kHalf + (std::uint64_t{1} << 24), kHalf - (std::uint64_t{1} << 34),  // accepted, tiny r2
  };
  const auto ref = [](double mean, double sd) {
    return [mean, sd](ReplayWords& g) { return std::normal_distribution<double>(mean, sd)(g); };
  };
  expect_twin(rejects, [](ReplayWords& g) { return detail::normal(g, 0.0, 1.0); }, ref(0.0, 1.0));
  std::vector<std::uint64_t> words = rejects;
  const std::vector<std::uint64_t> crafted = crafted_words();
  words.insert(words.end(), crafted.begin() + 9, crafted.end());
  expect_twin(words, [](ReplayWords& g) { return detail::normal(g, 4.0, 2.5); }, ref(4.0, 2.5));
}

TEST(RngTwin, BernoulliMatchesStdAtEdgeProbabilities) {
  std::vector<double> probabilities = {0.0, 1e-300, 0.5, 1.0};
  if (!kStdAssertsParams) probabilities.insert(probabilities.end(), {-0.1, std::nan("")});
  for (const double p : probabilities) {
    expect_twin(
        crafted_words(), [p](ReplayWords& g) { return detail::bernoulli(g, p); },
        [p](ReplayWords& g) { return std::bernoulli_distribution(p)(g); });
  }
}

TEST(RngTwin, ExponentialAndWeibullMatchStd) {
  for (const double rate : {0.5, 1.0, 1.0 / 150.0}) {
    expect_twin(
        crafted_words(), [rate](ReplayWords& g) { return detail::exponential(g, rate); },
        [rate](ReplayWords& g) { return std::exponential_distribution<double>(rate)(g); });
  }
  for (const auto& [shape, scale] : {std::pair{2.0, 7.0}, std::pair{0.7, 1.0}}) {
    expect_twin(
        crafted_words(),
        [shape, scale](ReplayWords& g) { return detail::weibull(g, shape, scale); },
        [shape, scale](ReplayWords& g) {
          return std::weibull_distribution<double>(shape, scale)(g);
        });
  }
}

// Rng's own methods, interleaved, against fresh std distributions over the
// standard engine: a saved polar value or a different fork would show here.
TEST(RngTwin, RngMethodsMatchStdDistributionsOverStdEngine) {
  for (const std::uint64_t seed : {std::uint64_t{7}, mix_seed(11, 3)}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(same(rng.normal(1.0, 0.3), std::normal_distribution<double>(1.0, 0.3)(ref)));
      ASSERT_TRUE(same(rng.normal(), std::normal_distribution<double>()(ref)));
      ASSERT_TRUE(same(rng.uniform(2.0, 5.0), std::uniform_real_distribution<double>(2.0, 5.0)(ref)));
      ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      ASSERT_TRUE(same(rng.exponential(0.2), std::exponential_distribution<double>(0.2)(ref)));
      ASSERT_TRUE(same(rng.weibull(2.0, 3.0), std::weibull_distribution<double>(2.0, 3.0)(ref)));
      ASSERT_EQ(rng.uniform_int(-5, 1000), std::uniform_int_distribution<std::int64_t>(-5, 1000)(ref));
      ASSERT_EQ(rng.poisson(3.5), std::poisson_distribution<std::uint64_t>(3.5)(ref));
      ASSERT_EQ(rng.poisson(40.0), std::poisson_distribution<std::uint64_t>(40.0)(ref));
    }
    Rng child = rng.fork();
    std::mt19937_64 ref_child(ref());
    for (int i = 0; i < 3 * 312; ++i) ASSERT_EQ(child.engine()(), ref_child());
    ASSERT_EQ(rng.engine()(), ref());
  }
}

TEST(RngTwin, IntegerPathsMatchStdOverStdEngine) {
  Rng rng(31);
  std::mt19937_64 ref(31);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(rng.uniform_int(0, 3), std::uniform_int_distribution<std::int64_t>(0, 3)(ref));
    ASSERT_EQ(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()),
              std::uniform_int_distribution<std::int64_t>(
                  std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max())(ref));
    ASSERT_EQ(rng.poisson(0.25), std::poisson_distribution<std::uint64_t>(0.25)(ref));
    ASSERT_EQ(rng.poisson(1e4), std::poisson_distribution<std::uint64_t>(1e4)(ref));
  }
  std::vector<std::size_t> ours(257);
  std::iota(ours.begin(), ours.end(), std::size_t{0});
  std::vector<std::size_t> theirs = ours;
  for (int round = 0; round < 4; ++round) {
    rng.shuffle(ours);
    std::shuffle(theirs.begin(), theirs.end(), ref);
    ASSERT_EQ(ours, theirs) << "round " << round;
  }
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndVariance) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(v), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(v), 1.25);
}

TEST(Stats, EmptyMeanIsZero) { EXPECT_DOUBLE_EQ(stats::mean({}), 0.0); }

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(x, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::pearson(x, c), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  EXPECT_THROW(stats::pearson({1, 2}, {1}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 20.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 25), 10.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(stats::percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(stats::percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, MovingAverageSmoothes) {
  const std::vector<double> v = {0, 10, 0, 10, 0, 10};
  const auto ma = stats::moving_average(v, 3);
  EXPECT_EQ(ma.size(), v.size());
  // Interior points average their neighbourhood.
  EXPECT_NEAR(ma[2], (10.0 + 0.0 + 10.0) / 3.0, 1e-12);
}

TEST(Stats, MovingAverageEvenWindowIsExactlyThatWide) {
  // Regression: w=4 used to average 2*(4/2)+1 = 5 elements, so no even
  // request ever got its own width.  The contract is exactly w interior
  // elements, the extra one on the newer side: out[i] = mean(v[i-1..i+2]).
  const std::vector<double> v = {1, 2, 4, 8, 16, 32};
  const auto ma = stats::moving_average(v, 4);
  ASSERT_EQ(ma.size(), v.size());
  EXPECT_NEAR(ma[2], (2.0 + 4.0 + 8.0 + 16.0) / 4.0, 1e-12);
  EXPECT_NEAR(ma[3], (4.0 + 8.0 + 16.0 + 32.0) / 4.0, 1e-12);
  // Edges clamp to what exists: out[0] spans v[0..2], out[5] spans v[4..5].
  EXPECT_NEAR(ma[0], (1.0 + 2.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(ma[5], (16.0 + 32.0) / 2.0, 1e-12);
}

TEST(Stats, MovingAverageWidthOneIsIdentityAndOddStaysSymmetric) {
  const std::vector<double> v = {3, 1, 4, 1, 5};
  EXPECT_EQ(stats::moving_average(v, 1), v);
  const auto ma2 = stats::moving_average(v, 2);  // out[i] = mean(v[i..i+1])
  EXPECT_NEAR(ma2[0], 2.0, 1e-12);
  EXPECT_NEAR(ma2[3], 3.0, 1e-12);
  EXPECT_NEAR(ma2[4], 5.0, 1e-12);  // clamped: only v[4] remains
  EXPECT_THROW((void)stats::moving_average(v, 0), std::invalid_argument);
}

TEST(Stats, HistogramCountsAndClamps) {
  const std::vector<double> v = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = stats::histogram(v, 0.0, 1.0, 2);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], v.size());
  EXPECT_EQ(h[0], 2u);  // -1 clamped into bin 0, plus 0.1; 0.5/0.9/2.0 land in bin 1
}

TEST(Stats, AutocorrelationOfPeriodicSignal) {
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(stats::autocorrelation(v, 2), 0.9);
  EXPECT_LT(stats::autocorrelation(v, 1), -0.9);
}

// ---------------------------------------------------------------- TextTable

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"Method", "Reward"});
  t.begin_row().add("Ours").add_double(12.345, 2);
  t.begin_row().add("OR").add_int(7);
  const std::string s = t.str();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("OR"), std::string::npos);
}

TEST(TextTable, IncompleteRowThrowsOnRender) {
  TextTable t({"a", "b"});
  t.begin_row().add("only-one");
  EXPECT_THROW(t.str(), std::logic_error);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"a"});
  t.begin_row().add("x");
  EXPECT_THROW(t.add("y"), std::logic_error);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.begin_row().add("1").add("2");
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

// ---------------------------------------------------------------- CliFlags

TEST(CliFlags, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "--flag"};
  const CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_string("beta", ""), "hello");
  EXPECT_TRUE(flags.get_bool("flag"));
}

TEST(CliFlags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.get_bool("missing"));
}

TEST(CliFlags, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n", "abc"};
  const CliFlags flags(3, argv);
  EXPECT_THROW((void)flags.get_int("n", 0), std::invalid_argument);
}

TEST(CliFlags, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--k", "v", "pos2"};
  const CliFlags flags(5, argv);
  // "pos2" follows a consumed flag value, so only pos1 is positional... or
  // both: --k consumes "v", then pos2 is positional.
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "pos2");
}

// ---------------------------------------------------------------- ExactSum

TEST(ExactSum, SumsExactlyAndRoundsOnce) {
  ExactSum s;
  s += 0.1;
  s += 0.2;
  // 0.1 + 0.2 in exact arithmetic rounds to the double nearest the true
  // sum — the same 0x3FD3333333333334 the hardware add produces.
  EXPECT_EQ(s.value(), 0.1 + 0.2);
  ExactSum t;
  t += 1.0;
  t += 2.0;
  t += 3.0;
  EXPECT_EQ(t.value(), 6.0);
  EXPECT_EQ(ExactSum{}.value(), 0.0);
}

TEST(ExactSum, OrderAndGroupingIndependent) {
  // The addends are chosen so plain double folds disagree between orders
  // (1e16 + 1 + ... loses the 1s); the exact register cannot.
  const std::vector<double> xs = {1e16, 1.0, -1e16, 1.0, 3.5e-10, -7.25, 1e16, 1.0};
  ExactSum forward;
  for (const double x : xs) forward += x;
  ExactSum backward;
  for (std::size_t i = xs.size(); i-- > 0;) backward += xs[i];
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.value(), backward.value());
  // Any binary partition merged limb-wise equals the sequential fold.
  for (std::size_t cut = 0; cut <= xs.size(); ++cut) {
    ExactSum left;
    ExactSum right;
    for (std::size_t i = 0; i < cut; ++i) left += xs[i];
    for (std::size_t i = cut; i < xs.size(); ++i) right += xs[i];
    left += right;
    EXPECT_EQ(left, forward) << "cut " << cut;
  }
}

TEST(ExactSum, ExactCancellationAndNegatives) {
  ExactSum s;
  s += 1e308;
  s += -1e308;
  EXPECT_EQ(s, ExactSum{});
  EXPECT_EQ(s.value(), 0.0);
  ExactSum neg;
  neg += -2.5;
  neg += -0.25;
  EXPECT_EQ(neg.value(), -2.75);
  // A transiently negative register recovers exactly.
  ExactSum swing;
  swing += -1e20;
  swing += 1e20;
  swing += 0.5;
  EXPECT_EQ(swing.value(), 0.5);
}

TEST(ExactSum, RoundsTiesToEven) {
  const double big = 9007199254740992.0;  // 2^53
  ExactSum tie_down;                      // 2^53 + 1 is a tie -> stays 2^53 (even)
  tie_down += big;
  tie_down += 1.0;
  EXPECT_EQ(tie_down.value(), big);
  ExactSum tie_up;  // 2^53 + 2 + 1 is a tie -> rounds to 2^53 + 4 (even)
  tie_up += big;
  tie_up += 2.0;
  tie_up += 1.0;
  EXPECT_EQ(tie_up.value(), big + 4.0);
  ExactSum above;  // 2^53 + 1 + tiny is above the tie -> rounds up
  above += big;
  above += 1.0;
  above += 1e-30;
  EXPECT_EQ(above.value(), big + 2.0);
}

TEST(ExactSum, HandlesSubnormalsAndZeroes) {
  const double denorm_min = 4.9406564584124654e-324;  // 2^-1074
  ExactSum s;
  s += denorm_min;
  s += denorm_min;
  EXPECT_EQ(s.value(), 2.0 * denorm_min);
  s += -denorm_min;
  s += -denorm_min;
  EXPECT_EQ(s.value(), 0.0);
  s += 0.0;
  s += -0.0;
  EXPECT_EQ(s, ExactSum{});
  EXPECT_FALSE(std::signbit(s.value()));
}

TEST(ExactSum, RejectsNonFiniteAddends) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(s.add(-std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(s, ExactSum{});  // failed adds leave the register untouched
}

TEST(ExactSum, LimbsRoundTrip) {
  ExactSum s;
  s += 123.456;
  s += -0.001;
  s += 9.875e12;
  const ExactSum restored = ExactSum::from_limbs(s.limbs());
  EXPECT_EQ(restored, s);
  EXPECT_EQ(restored.value(), s.value());
}

// ---------------------------------------------------------------- write_csv

TEST(WriteCsv, RoundTripsColumns) {
  const std::string path = testing::TempDir() + "/ecthub_test.csv";
  write_csv(path, {"x", "y"}, {{1.0, 2.0}, {3.0, 4.0}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,3");
  std::remove(path.c_str());
}

TEST(WriteCsv, RejectsRaggedColumns) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {1.0, 2.0}}), std::runtime_error);
}

}  // namespace
}  // namespace ecthub
