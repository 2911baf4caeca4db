// Tests for the pricing substrate: RTP generator, TOU tariff, selling policy.
#include "common/stats.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"
#include "pricing/tariff.hpp"

#include <gtest/gtest.h>

namespace ecthub::pricing {
namespace {

// ---------------------------------------------------------------- RTP

TEST(RtpGenerator, PricesAboveFloor) {
  RtpGenerator gen(RtpConfig{}, Rng(1));
  const TimeGrid grid(30, 24);
  const auto price = gen.generate(grid);
  ASSERT_EQ(price.size(), grid.size());
  for (double p : price) EXPECT_GE(p, RtpConfig{}.floor_price);
}

TEST(RtpGenerator, EveningPeakExceedsNightTrough) {
  RtpConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.spike_prob = 0.0;
  RtpGenerator gen(cfg, Rng(2));
  const TimeGrid grid(1, 24);
  const auto price = gen.generate(grid);
  EXPECT_GT(price[20], price[4]);
  EXPECT_GT(price[20], cfg.base_price);
  EXPECT_LT(price[4], cfg.base_price);
}

TEST(RtpGenerator, DiurnalComponentShape) {
  RtpGenerator gen(RtpConfig{}, Rng(3));
  EXPECT_GT(gen.diurnal_component(20.0), gen.diurnal_component(12.0));
  EXPECT_LT(gen.diurnal_component(4.0), 0.0);
}

TEST(RtpGenerator, LoadCouplingRaisesPrices) {
  RtpConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.spike_prob = 0.0;
  cfg.load_coupling = 50.0;
  const TimeGrid grid(2, 24);
  const std::vector<double> full_load(grid.size(), 1.0);
  const std::vector<double> no_load(grid.size(), 0.0);
  const auto hi = RtpGenerator(cfg, Rng(4)).generate(grid, full_load);
  const auto lo = RtpGenerator(cfg, Rng(4)).generate(grid, no_load);
  for (std::size_t t = 0; t < grid.size(); ++t) EXPECT_NEAR(hi[t] - lo[t], 50.0, 1e-9);
}

TEST(RtpGenerator, CorrelatesWithCoupledLoad) {
  // The Fig. 5 observation: price and load positively correlated.
  RtpConfig cfg;
  const TimeGrid grid(30, 24);
  std::vector<double> load(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) {
    // Evening-peaking load, in phase with the paper's Fig. 5 measurement.
    load[t] = 0.5 + 0.5 * std::sin(2.0 * 3.14159 * (grid.hour_of_day(t) - 14.0) / 24.0);
  }
  const auto price = RtpGenerator(cfg, Rng(5)).generate(grid, load);
  EXPECT_GT(stats::pearson(price, load), 0.2);
}

TEST(RtpGenerator, SpikesRaiseExtremes) {
  RtpConfig no_spike;
  no_spike.spike_prob = 0.0;
  RtpConfig spiky;
  spiky.spike_prob = 0.2;
  spiky.spike_scale = 100.0;
  const TimeGrid grid(60, 24);
  const auto calm = RtpGenerator(no_spike, Rng(6)).generate(grid);
  const auto wild = RtpGenerator(spiky, Rng(6)).generate(grid);
  EXPECT_GT(stats::max(wild), stats::max(calm));
}

TEST(RtpGenerator, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  const auto fresh = RtpGenerator(RtpConfig{}, Rng(41)).generate(grid);

  RtpGenerator gen(RtpConfig{}, Rng(41));
  std::vector<double> reused;
  gen.generate_into(grid, {}, reused);
  EXPECT_EQ(reused, fresh);

  // A second pass must reuse the buffer (no realloc) and draw a fresh
  // stochastic stream, not replay the first.
  const double* buf = reused.data();
  const double first_p0 = reused[0];
  gen.generate_into(grid, {}, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_EQ(reused.size(), grid.size());
  EXPECT_NE(reused[0], first_p0);
}

TEST(RtpGenerator, LoadLengthMismatchThrows) {
  RtpGenerator gen(RtpConfig{}, Rng(7));
  const TimeGrid grid(2, 24);
  EXPECT_THROW(gen.generate(grid, std::vector<double>(5, 0.5)), std::invalid_argument);
}

TEST(RtpGenerator, RejectsBadConfig) {
  RtpConfig bad;
  bad.base_price = 0.0;
  EXPECT_THROW(RtpGenerator(bad, Rng(1)), std::invalid_argument);
  RtpConfig bad2;
  bad2.spike_prob = 2.0;
  EXPECT_THROW(RtpGenerator(bad2, Rng(1)), std::invalid_argument);
}

TEST(RtpGenerator, RejectsScalelessSpikesAndNegativeNoiseAtConstruction) {
  // A zero spike scale used to pass construction and throw from
  // Rng::exponential at the first spike, mid-episode.
  RtpConfig no_scale;
  no_scale.spike_scale = 0.0;
  EXPECT_THROW(RtpGenerator(no_scale, Rng(1)), std::invalid_argument);
  no_scale.spike_scale = -5.0;
  EXPECT_THROW(RtpGenerator(no_scale, Rng(1)), std::invalid_argument);
  no_scale.spike_prob = 0.0;  // spikes off: the scale is never used
  EXPECT_NO_THROW(RtpGenerator(no_scale, Rng(1)));
  RtpConfig negative_noise;
  negative_noise.noise_sigma = -1.0;
  EXPECT_THROW(RtpGenerator(negative_noise, Rng(1)), std::invalid_argument);
}

// Property sweep: determinism and floor invariants across seeds.
class RtpSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtpSeedSweep, DeterministicAndFloored) {
  const std::uint64_t seed = GetParam();
  const TimeGrid grid(10, 24);
  const auto a = RtpGenerator(RtpConfig{}, Rng(seed)).generate(grid);
  const auto b = RtpGenerator(RtpConfig{}, Rng(seed)).generate(grid);
  EXPECT_EQ(a, b);
  for (double p : a) EXPECT_GE(p, RtpConfig{}.floor_price);
  // Diurnal structure survives every seed: evening mean above night mean.
  double evening = 0, night = 0;
  std::size_t ne = 0, nn = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double h = grid.hour_of_day(t);
    if (h >= 19 && h <= 21) {
      evening += a[t];
      ++ne;
    }
    if (h >= 3 && h <= 5) {
      night += a[t];
      ++nn;
    }
  }
  EXPECT_GT(evening / static_cast<double>(ne), night / static_cast<double>(nn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtpSeedSweep, ::testing::Values(1u, 17u, 123u, 9999u));

// ---------------------------------------------------------------- TOU

TEST(TouTariff, TypicalTariffWindows) {
  const TouTariff t = TouTariff::typical();
  EXPECT_DOUBLE_EQ(t.price_at_hour(3.0), 45.0);    // off-peak (wraps midnight)
  EXPECT_DOUBLE_EQ(t.price_at_hour(23.5), 45.0);   // off-peak
  EXPECT_DOUBLE_EQ(t.price_at_hour(18.0), 110.0);  // peak
  EXPECT_DOUBLE_EQ(t.price_at_hour(12.0), 75.0);   // shoulder
}

TEST(TouTariff, NegativeHourWraps) {
  const TouTariff t = TouTariff::typical();
  EXPECT_DOUBLE_EQ(t.price_at_hour(-1.0), t.price_at_hour(23.0));
}

TEST(TouTariff, RejectsInvalidPeriods) {
  EXPECT_THROW(TouTariff({{25.0, 3.0, 10.0}}, 5.0), std::invalid_argument);
  EXPECT_THROW(TouTariff({{1.0, 3.0, -10.0}}, 5.0), std::invalid_argument);
  EXPECT_THROW(TouTariff({}, -5.0), std::invalid_argument);
}

// ---------------------------------------------------------------- selling

TEST(DiscountSchedule, DefaultsToZero) {
  const DiscountSchedule s(10);
  for (std::size_t t = 0; t < 10; ++t) EXPECT_DOUBLE_EQ(s.at(t), 0.0);
  EXPECT_EQ(s.num_discounted(), 0u);
}

TEST(DiscountSchedule, FromFlags) {
  const std::vector<bool> flags = {true, false, true};
  const auto s = DiscountSchedule::from_flags(flags, 0.25);
  EXPECT_DOUBLE_EQ(s.at(0), 0.25);
  EXPECT_DOUBLE_EQ(s.at(1), 0.0);
  EXPECT_EQ(s.num_discounted(), 2u);
}

TEST(DiscountSchedule, RejectsBadFraction) {
  EXPECT_THROW(DiscountSchedule::from_flags({true}, 1.0), std::invalid_argument);
  DiscountSchedule s(3);
  EXPECT_THROW(s.set(0, -0.1), std::invalid_argument);
  EXPECT_THROW(s.set(5, 0.1), std::out_of_range);
}

TEST(SellingPricePolicy, AppliesMarkupAndDiscount) {
  DiscountSchedule sched(2);
  sched.set(1, 0.5);
  SellingConfig cfg;
  cfg.markup = 2.0;
  cfg.floor = 0.0;
  const SellingPricePolicy policy(cfg, sched);
  EXPECT_DOUBLE_EQ(policy.srtp(0, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(policy.srtp(1, 100.0), 100.0);
}

TEST(SellingPricePolicy, EnforcesFloor) {
  DiscountSchedule sched(1);
  SellingConfig cfg;
  cfg.markup = 1.0;
  cfg.floor = 30.0;
  const SellingPricePolicy policy(cfg, sched);
  EXPECT_DOUBLE_EQ(policy.srtp(0, 10.0), 30.0);
}

TEST(SellingPricePolicy, SeriesMatchesPerSlot) {
  DiscountSchedule sched(3);
  sched.set(2, 0.2);
  const SellingPricePolicy policy(SellingConfig{}, sched);
  const std::vector<double> rtp = {50.0, 60.0, 70.0};
  const auto series = policy.series(rtp);
  ASSERT_EQ(series.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) EXPECT_DOUBLE_EQ(series[t], policy.srtp(t, rtp[t]));
}

TEST(SellingPricePolicy, SeriesLengthMismatchThrows) {
  const SellingPricePolicy policy(SellingConfig{}, DiscountSchedule(3));
  EXPECT_THROW(policy.series({1.0}), std::invalid_argument);
}

TEST(SellingPricePolicy, SeriesIntoMatchesSeriesAndReusesBuffers) {
  DiscountSchedule schedule(4);
  schedule.set(2, 0.2);
  const SellingPricePolicy policy(SellingConfig{}, schedule);
  const std::vector<double> rtp = {40.0, 80.0, 120.0, 60.0};
  const std::vector<double> fresh = policy.series(rtp);

  std::vector<double> reused;
  policy.series_into(rtp, reused);
  EXPECT_EQ(reused, fresh);

  const double* buf = reused.data();
  policy.series_into(rtp, reused);
  EXPECT_EQ(reused.data(), buf);
  EXPECT_EQ(reused, fresh);
  EXPECT_THROW(policy.series_into({1.0}, reused), std::invalid_argument);
}

TEST(SellingPricePolicy, UndiscountedSellAboveBuy) {
  // Economic sanity: with the default markup, selling undiscounted energy is
  // profitable per-unit at any grid price.
  const SellingPricePolicy policy(SellingConfig{}, DiscountSchedule(1));
  for (double rtp : {20.0, 60.0, 140.0}) EXPECT_GT(policy.srtp(0, rtp), rtp);
}

}  // namespace
}  // namespace ecthub::pricing
