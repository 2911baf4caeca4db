// Tests for the core hub: configuration, environment (Eqs. 1-12 wired
// together), profit ledger, and the policy execution path.
#include "common/stats.hpp"
#include "core/fleet.hpp"
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "core/policy_runner.hpp"
#include "core/profit.hpp"
#include "policy/rule_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ecthub::core {
namespace {

HubEnvConfig small_env(std::size_t days = 3) {
  HubEnvConfig cfg;
  cfg.episode_days = days;
  return cfg;
}

// ---------------------------------------------------------------- config

TEST(HubConfig, UrbanPresetHasPvOnly) {
  const HubConfig cfg = HubConfig::urban("u", 1);
  EXPECT_TRUE(cfg.plant.pv.has_value());
  EXPECT_FALSE(cfg.plant.wt.has_value());
  EXPECT_EQ(cfg.site, HubSite::kUrban);
}

TEST(HubConfig, RuralPresetHasWind) {
  const HubConfig cfg = HubConfig::rural("r", 2);
  EXPECT_TRUE(cfg.plant.wt.has_value());
  EXPECT_EQ(cfg.site, HubSite::kRural);
}

TEST(DefaultFleet, TwelveHeterogeneousHubs) {
  const auto fleet = default_fleet();
  ASSERT_EQ(fleet.size(), 12u);
  std::size_t rural = 0;
  for (const auto& hub : fleet) {
    if (hub.site == HubSite::kRural) ++rural;
  }
  EXPECT_GT(rural, 0u);
  EXPECT_LT(rural, 12u);
  // Seeds and names unique.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_NE(fleet[i].seed, fleet[j].seed);
      EXPECT_NE(fleet[i].name, fleet[j].name);
    }
  }
}

// ---------------------------------------------------------------- profit

TEST(Profit, SlotEconomicsDollarConversion) {
  // 10 kW for 1 h at 100 $/MWh = 1 $.
  const SlotEconomics e = slot_economics(10.0, 10.0, 100.0, 100.0, 0.05, 1.0);
  EXPECT_NEAR(e.revenue, 1.0, 1e-12);
  EXPECT_NEAR(e.grid_cost, 1.0, 1e-12);
  EXPECT_NEAR(e.profit(), -0.05, 1e-12);
}

TEST(Profit, SlotEconomicsValidation) {
  EXPECT_THROW((void)slot_economics(1.0, 1.0, 10.0, 10.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)slot_economics(-1.0, 1.0, 10.0, 10.0, 0.0, 1.0), std::invalid_argument);
}

TEST(Profit, LedgerAggregatesByDay) {
  ProfitLedger ledger(2);  // 2 slots per day
  SlotEconomics e;
  e.revenue = 1.0;
  ledger.record(e);
  ledger.record(e);
  ledger.record(e);
  ASSERT_EQ(ledger.daily_profit().size(), 2u);
  EXPECT_NEAR(ledger.daily_profit()[0], 2.0, 1e-12);
  EXPECT_NEAR(ledger.daily_profit()[1], 1.0, 1e-12);
  EXPECT_NEAR(ledger.total_profit(), 3.0, 1e-12);
  EXPECT_EQ(ledger.slots_recorded(), 3u);
}

TEST(Profit, LedgerTracksComponents) {
  ProfitLedger ledger(24);
  SlotEconomics e;
  e.revenue = 5.0;
  e.grid_cost = 2.0;
  e.bp_cost = 0.5;
  ledger.record(e);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(), 5.0);
  EXPECT_DOUBLE_EQ(ledger.total_grid_cost(), 2.0);
  EXPECT_DOUBLE_EQ(ledger.total_bp_cost(), 0.5);
  EXPECT_DOUBLE_EQ(ledger.total_profit(), 2.5);
}

// ---------------------------------------------------------------- env

TEST(EctHubEnv, ResetProducesStateOfDeclaredDim) {
  EctHubEnv env(HubConfig::urban("t", 3), small_env());
  const auto state = env.reset();
  EXPECT_EQ(state.size(), env.state_dim());
  EXPECT_EQ(env.action_count(), 3u);
}

TEST(EctHubEnv, EpisodeTerminatesAtHorizon) {
  EctHubEnv env(HubConfig::urban("t", 4), small_env(2));
  env.reset();
  std::size_t steps = 0;
  bool done = false;
  while (!done) {
    done = env.step(0).done;
    ++steps;
  }
  EXPECT_EQ(steps, 48u);
}

TEST(EctHubEnv, StepBeforeResetThrows) {
  EctHubEnv env(HubConfig::urban("t", 5), small_env());
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(EctHubEnv, BadActionThrows) {
  EctHubEnv env(HubConfig::urban("t", 6), small_env());
  env.reset();
  EXPECT_THROW(env.step(3), std::invalid_argument);
}

TEST(EctHubEnv, SocStaysWithinBoundsUnderRandomActions) {
  EctHubEnv env(HubConfig::rural("t", 7), small_env(5));
  env.reset();
  Rng rng(8);
  bool done = false;
  while (!done) {
    done = env.step(static_cast<std::size_t>(rng.uniform_int(0, 2))).done;
    if (!done) {
      EXPECT_GE(env.soc_frac(), env.hub().battery.soc_min_frac - 1e-9);
      EXPECT_LE(env.soc_frac(), env.hub().battery.soc_max_frac + 1e-9);
    }
  }
}

TEST(EctHubEnv, ReserveFloorCoversBlackoutWindow) {
  // Eq. 6: stored reserve energy (discounted by efficiency) must cover the
  // worst BS draw over the recovery window.
  HubConfig hub = HubConfig::urban("t", 9);
  hub.recovery_hours = 6.0;
  EctHubEnv env(hub, small_env(4));
  env.reset();
  const auto& bs = env.bs_power_series();
  double worst = 0.0;
  for (std::size_t t = 0; t + 6 <= bs.size(); ++t) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 6; ++k) acc += bs[t + k];
    worst = std::max(worst, acc);
  }
  const double deliverable =
      env.pack().reserve_floor_kwh() * hub.battery.discharge_efficiency;
  EXPECT_GE(deliverable + 1e-6, std::min(worst, deliverable));  // floor clamped to soc_max
  EXPECT_GE(env.pack().reserve_floor_kwh(), env.pack().soc_min_kwh() - 1e-9);
}

TEST(EctHubEnv, UnshapedRewardMatchesLedger) {
  HubEnvConfig cfg = small_env(2);
  cfg.shaped_reward = false;
  EctHubEnv env(HubConfig::urban("t", 10), cfg);
  env.reset();
  double acc = 0.0;
  bool done = false;
  while (!done) {
    const auto r = env.step(1);
    acc += r.reward;
    done = r.done;
  }
  EXPECT_NEAR(acc, env.ledger().total_profit(), 1e-9);
}

TEST(EctHubEnv, ShapedRewardIsProfitDeltaVsIdle) {
  // Shaped episode return == true profit minus the profit an idle policy
  // would have earned on the same exogenous series.  Run the same seed twice.
  const HubConfig hub = HubConfig::urban("t", 1010);
  HubEnvConfig cfg = small_env(2);
  EctHubEnv env_active(hub, cfg);
  EctHubEnv env_idle(hub, cfg);
  env_active.reset();
  env_idle.reset();
  double shaped_acc = 0.0;
  bool done = false;
  while (!done) {
    const auto r = env_active.step(2);  // discharge whenever possible
    shaped_acc += r.reward;
    done = env_idle.step(0).done && r.done;
  }
  const double true_delta =
      env_active.ledger().total_profit() - env_idle.ledger().total_profit();
  EXPECT_NEAR(shaped_acc, true_delta, 1e-9);
}

TEST(EctHubEnv, IdleShapedRewardIsZero) {
  EctHubEnv env(HubConfig::rural("t", 1011), small_env(1));
  env.reset();
  bool done = false;
  while (!done) {
    const auto r = env.step(0);
    EXPECT_DOUBLE_EQ(r.reward, 0.0);
    done = r.done;
  }
}

TEST(EctHubEnv, DiscountsIncreaseChargingRevenue) {
  // Same hub/seed: an evening-discount schedule must attract more EV revenue
  // than no discounts (Incentive stratum only charges when discounted).
  HubConfig hub = HubConfig::urban("t", 11);
  hub.ev_evening_sensitivity = 0.9;

  HubEnvConfig no_disc = small_env(20);
  EctHubEnv env_a(hub, no_disc);
  env_a.reset();
  bool done = false;
  while (!done) done = env_a.step(0).done;
  const double revenue_no = env_a.ledger().total_revenue();

  HubEnvConfig with_disc = small_env(20);
  with_disc.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) with_disc.discount_by_hour[h] = true;
  EctHubEnv env_b(hub, with_disc);
  env_b.reset();
  done = false;
  while (!done) done = env_b.step(0).done;
  const double revenue_disc = env_b.ledger().total_revenue();

  EXPECT_GT(revenue_disc, revenue_no);
}

TEST(EctHubEnv, StateChannelsAreNormalized) {
  EctHubEnv env(HubConfig::rural("t", 12), small_env());
  const auto state = env.reset();
  for (double s : state) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, -2.0);
    EXPECT_LE(s, 3.0);
  }
}

TEST(EctHubEnv, ConfigValidation) {
  HubEnvConfig bad = small_env();
  bad.discount_by_hour.assign(100, true);  // wrong length
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad), std::invalid_argument);
  HubEnvConfig bad2 = small_env();
  bad2.discount_fraction = 1.0;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad2), std::invalid_argument);
  HubEnvConfig bad3 = small_env();
  bad3.episode_days = 0;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad3), std::invalid_argument);
  HubEnvConfig bad4 = small_env();
  bad4.init_soc_lo = 0.9;
  bad4.init_soc_hi = 0.3;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad4), std::invalid_argument);
}

// ------------------------------------------------------- determinism (golden)

// Golden values generated from the pinned episode generator (urban hub,
// seed 4242, 3-day episode).  If any of these change, episode generation has
// drifted: every stored scenario, fleet comparison and figure changes with
// it.  Regenerate deliberately (print the series at %.17g) or fix the drift.
TEST(EctHubEnvGolden, FixedSeedPinsEpisodeSeries) {
  HubEnvConfig cfg;
  cfg.episode_days = 3;
  EctHubEnv env(HubConfig::urban("golden", 4242), cfg);
  env.reset();
  ASSERT_EQ(env.slots_per_episode(), 72u);

  double rtp_sum = 0.0;
  for (std::size_t t = 0; t < 72; ++t) rtp_sum += env.rtp_at(t);
  EXPECT_EQ(env.rtp_at(0), 73.523843581901588);
  EXPECT_EQ(env.rtp_at(71), 92.379437347852715);
  EXPECT_EQ(rtp_sum, 6490.3151203255802);

  const auto& renew = env.renewable_series();
  ASSERT_EQ(renew.size(), 72u);
  double renew_sum = 0.0;
  for (const double r : renew) renew_sum += r;
  EXPECT_EQ(renew.front(), 0.0);  // midnight: no PV
  EXPECT_EQ(renew[12], 2.1879144406926456);
  EXPECT_EQ(renew_sum, 52.532058697937451);

  const auto& bs = env.bs_power_series();
  ASSERT_EQ(bs.size(), 72u);
  double bs_sum = 0.0;
  for (const double b : bs) bs_sum += b;
  EXPECT_EQ(bs.front(), 1.5191806369449494);
  EXPECT_EQ(bs.back(), 1.6696044809281072);
  EXPECT_EQ(bs_sum, 157.96698188832352);

  EXPECT_EQ(env.soc_frac(), 0.61776257063720164);
}

// Bit-exact fingerprints of every stage series and of the observation at the
// first, middle and final slot.  A fingerprint is FNV-1a over the values' bit
// patterns, so a one-ULP drift anywhere in an episode fails the test (the
// sums above would absorb it).  The cases cover both plant types, a
// fractional-hour grid (5 slots/day: 4.8 h steps), a fine grid (96
// slots/day), a weekend (8-day episodes) and a metro-fronted coupled hub.
// On a deliberate generation change the failure message prints the new
// table row.
template <typename T>
std::uint64_t bit_fingerprint(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const T x : v) {
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      bits = std::bit_cast<std::uint64_t>(static_cast<double>(x));
    } else {
      bits = static_cast<std::uint64_t>(x);
    }
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct EpisodeFingerprints {
  std::uint64_t load, ghi, wind, temp, rtp, srtp, vehicles, cs_kw, through, outage;
  std::uint64_t obs_first, obs_mid, obs_final;
  friend bool operator==(const EpisodeFingerprints&, const EpisodeFingerprints&) = default;
};

std::string to_row(const EpisodeFingerprints& f) {
  std::string row = "{";
  for (const std::uint64_t v :
       {f.load, f.ghi, f.wind, f.temp, f.rtp, f.srtp, f.vehicles, f.cs_kw, f.through,
        f.outage, f.obs_first, f.obs_mid, f.obs_final}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ", static_cast<unsigned long long>(v));
    row += buf;
  }
  row.resize(row.size() - 2);
  return row + "}";
}

EpisodeFingerprints fingerprint_episode(const HubConfig& hub, const HubEnvConfig& cfg) {
  EctHubEnv env(hub, cfg);
  std::vector<double> obs(env.state_dim());
  env.reset_into(obs);
  EpisodeFingerprints f{};
  f.obs_first = bit_fingerprint(obs);
  std::vector<double> rtp, srtp;
  for (std::size_t t = 0; t < env.slots_per_episode(); ++t) {
    rtp.push_back(env.rtp_at(t));
    srtp.push_back(env.srtp_at(t));
  }
  f.load = bit_fingerprint(env.traffic_trace().load_rate);
  f.ghi = bit_fingerprint(env.weather_series().ghi_wm2);
  f.wind = bit_fingerprint(env.weather_series().wind_speed_ms);
  f.temp = bit_fingerprint(env.weather_series().temperature_c);
  f.rtp = bit_fingerprint(rtp);
  f.srtp = bit_fingerprint(srtp);
  f.vehicles = bit_fingerprint(env.occupancy_series().vehicles);
  f.cs_kw = bit_fingerprint(env.cs_power_series());
  f.through = bit_fingerprint(env.through_series());
  f.outage = bit_fingerprint(env.outage_series());
  const std::size_t mid = env.slots_per_episode() / 2;
  for (std::size_t t = 0; t < env.slots_per_episode(); ++t) {
    env.step_into(t % 3, obs);
    if (t + 1 == mid) f.obs_mid = bit_fingerprint(obs);
  }
  f.obs_final = bit_fingerprint(obs);
  return f;
}

TEST(EctHubEnvGolden, StageSeriesAndObservationsArePinnedToTheBit) {
  struct Case {
    const char* name;
    HubConfig hub;
    HubEnvConfig cfg;
    EpisodeFingerprints expected;
  };
  const auto env_cfg = [](std::size_t slots_per_day) {
    HubEnvConfig cfg;
    cfg.episode_days = 8;
    cfg.slots_per_day = slots_per_day;
    cfg.discount_by_hour.assign(24, false);
    for (std::size_t h = 10; h < 16; ++h) cfg.discount_by_hour[h] = true;
    return cfg;
  };
  HubEnvConfig coupled = env_cfg(24);
  coupled.coupling.enabled = true;
  coupled.coupling.through_rate = 2.0;
  coupled.coupling.front_seed = 0x5eedf407ULL;
  coupled.coupling.outage = OutageModel{12.0, 2.0, 6.0};
  const Case cases[] = {
      {"urban-24", HubConfig::urban("bits", 4242), env_cfg(24),
       {0xfee94254ecf36d57ULL, 0x704b4d31fd890d19ULL, 0x3eeba408febefa6bULL,
        0xf104242173b72952ULL, 0xa26d727f1835b0cdULL, 0x1d479013f4e53bdcULL,
        0x9a3c8a2d45c2d384ULL, 0xb4a31ea95e3a6e50ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0xe833fab05b25ef8aULL, 0xc2eeed0e88ab57f4ULL,
        0xfe945c18a01b7c10ULL}},
      {"rural-24", HubConfig::rural("bits", 4243), env_cfg(24),
       {0x1335f0b8f9699279ULL, 0x1d89a4339f44aeccULL, 0x7ca2166a8df0316bULL,
        0xa7a7e4e180ae9c44ULL, 0xdd99ae7d70144ca7ULL, 0x71b96588cb3babdcULL,
        0xfeaf3c3f0b8e6786ULL, 0xce69a1a26361c395ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0xb9436b43b114340dULL, 0xbf6000b324115b74ULL,
        0x16607074f42ecc11ULL}},
      {"rural-96", HubConfig::rural("bits", 4244), env_cfg(96),
       {0xa6039197da990f2eULL, 0x573ace80553e7636ULL, 0x5ca8cf59fbbe7a14ULL,
        0x90d6ddf7399fd98cULL, 0xebcb7cad7f218f88ULL, 0xb619e2342c117e15ULL,
        0xd76f7ecd96ae4726ULL, 0x3c178d80f8a82615ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0x3822f714c07ce136ULL, 0xcdf27fdce4c4468fULL,
        0x84b050b37cb5032dULL}},
      {"rural-5", HubConfig::rural("bits", 4245), env_cfg(5),
       {0x591d087943d596d0ULL, 0x19c353d1a10a2e90ULL, 0x9bf72a0b1e9daed3ULL,
        0x79249a696ff12443ULL, 0x617dbb9e6793a104ULL, 0xae39ee9bfd20f350ULL,
        0xb537a80629740b06ULL, 0xe5758b8a9fdb2d95ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0x29ac69c8b4e9e190ULL, 0x85565f3e3c678044ULL,
        0x983a85b2c121cd24ULL}},
      {"urban-coupled", HubConfig::urban("bits", 4246), coupled,
       {0xc417cd04054e894dULL, 0xc1ce38fc4c3badc5ULL, 0xbf56d57b9e9d9cc3ULL,
        0xd715d79adcaec04eULL, 0x24d7e425dbc5e96fULL, 0xa125e0cac3e2b194ULL,
        0x1380fc6e205df1e5ULL, 0x85db16d109c99b35ULL, 0xd3d1a38c4aab1c1aULL,
        0xb8f28a3ac998cce4ULL, 0x18008abe6a764c89ULL, 0x0bd12e1f2c4f2d91ULL,
        0xa63ebfba50f28869ULL}},
  };
  for (const Case& c : cases) {
    const EpisodeFingerprints got = fingerprint_episode(c.hub, c.cfg);
    EXPECT_EQ(got, c.expected) << c.name << " now fingerprints as " << to_row(got);
  }
  // The coupled case must actually exercise the outage front.
  EctHubEnv fronted(HubConfig::urban("bits", 4246), coupled);
  fronted.reset();
  EXPECT_NE(std::count(fronted.outage_series().begin(), fronted.outage_series().end(), 1), 0);
}

TEST(EctHubEnvGolden, TwoEnvsSameSeedProduceIdenticalEpisodes) {
  HubEnvConfig cfg;
  cfg.episode_days = 2;
  const HubConfig hub = HubConfig::rural("twin", 777);
  EctHubEnv a(hub, cfg);
  EctHubEnv b(hub, cfg);
  const auto sa = a.reset();
  const auto sb = b.reset();
  EXPECT_EQ(sa, sb);
  for (std::size_t t = 0; t < a.slots_per_episode(); ++t) {
    ASSERT_EQ(a.rtp_at(t), b.rtp_at(t)) << "slot " << t;
    ASSERT_EQ(a.srtp_at(t), b.srtp_at(t)) << "slot " << t;
  }
  EXPECT_EQ(a.renewable_series(), b.renewable_series());
  EXPECT_EQ(a.bs_power_series(), b.bs_power_series());
  EXPECT_EQ(a.cs_power_series(), b.cs_power_series());
  EXPECT_EQ(a.soc_frac(), b.soc_frac());
}

TEST(EctHubEnvGolden, SuccessiveResetsDrawFreshEpisodes) {
  // Buffer reuse across resets must not replay the previous episode.
  HubEnvConfig cfg;
  cfg.episode_days = 2;
  EctHubEnv env(HubConfig::urban("fresh", 31), cfg);
  env.reset();
  const double first_rtp0 = env.rtp_at(0);
  env.reset();
  EXPECT_NE(env.rtp_at(0), first_rtp0);
}

// ---------------------------------------------------------------- edge cases

TEST(EctHubEnv, EmptyDiscountScheduleMatchesAllFalse) {
  // An empty discount_by_hour means "no discounts" and must behave exactly
  // like an explicit all-false 24-entry schedule.
  const HubConfig hub = HubConfig::urban("nodisc", 55);
  HubEnvConfig empty_cfg = small_env(2);
  HubEnvConfig false_cfg = small_env(2);
  false_cfg.discount_by_hour.assign(24, false);
  EctHubEnv env_empty(hub, empty_cfg);
  EctHubEnv env_false(hub, false_cfg);
  env_empty.reset();
  env_false.reset();
  for (std::size_t t = 0; t < env_empty.slots_per_episode(); ++t) {
    ASSERT_EQ(env_empty.srtp_at(t), env_false.srtp_at(t)) << "slot " << t;
  }
  EXPECT_EQ(env_empty.cs_power_series(), env_false.cs_power_series());
  EXPECT_NO_THROW(env_empty.step(1));
}

TEST(EctHubEnv, PoliciesRunOnEmptyDiscountEnv) {
  EctHubEnv env(HubConfig::rural("nodisc", 56), small_env(2));
  policy::TouPolicy tou;
  policy::GreedyPricePolicy greedy;
  policy::ForecastPolicy forecast;
  for (policy::Policy* pol :
       {static_cast<policy::Policy*>(&tou), static_cast<policy::Policy*>(&greedy),
        static_cast<policy::Policy*>(&forecast)}) {
    const auto profits = run_policy(env, *pol, 1);
    ASSERT_EQ(profits.size(), 1u);
    EXPECT_TRUE(std::isfinite(profits[0])) << pol->name();
  }
}

TEST(EctHubEnv, ZeroCapacityBatteryThrowsAtConstruction) {
  HubConfig hub = HubConfig::urban("dead-batt", 57);
  hub.battery.capacity_kwh = 0.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
  hub.battery.capacity_kwh = -5.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, BadGeneratorConfigThrowsAtConstruction) {
  // Generators are rebuilt at every reset; a bad config must still fail
  // here, not at the first reset inside a fleet worker.
  HubConfig bad_rtp = HubConfig::urban("bad-rtp", 60);
  bad_rtp.rtp.spike_scale = 0.0;
  EXPECT_THROW(EctHubEnv(bad_rtp, small_env()), std::invalid_argument);
  HubConfig bad_weather = HubConfig::rural("bad-wx", 60);
  bad_weather.weather.temp_noise_sigma = -1.0;
  EXPECT_THROW(EctHubEnv(bad_weather, small_env()), std::invalid_argument);
  HubConfig bad_traffic = HubConfig::urban("bad-traffic", 60);
  bad_traffic.traffic.noise_sigma = -1.0;
  EXPECT_THROW(EctHubEnv(bad_traffic, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, NegativeRecoveryHoursThrowsAtConstruction) {
  HubConfig hub = HubConfig::urban("bad-recovery", 58);
  hub.recovery_hours = -1.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, StepPastEpisodeEndThrows) {
  EctHubEnv env(HubConfig::urban("overrun", 59), small_env(1));
  env.reset();
  bool done = false;
  while (!done) done = env.step(0).done;
  EXPECT_THROW(env.step(0), std::logic_error);
  // A reset re-arms the episode.
  env.reset();
  EXPECT_NO_THROW(env.step(0));
}

TEST(EctHubEnv, IntoOverloadsAreBitIdenticalToAllocatingPath) {
  // Two identically-seeded envs: one driven through reset()/step(), the
  // other through the allocation-free reset_into()/step_into() fast path.
  // Observations, rewards and ledger totals must match to the last bit.
  EctHubEnv alloc_env(HubConfig::urban("into-a", 61), small_env(2));
  EctHubEnv into_env(HubConfig::urban("into-a", 61), small_env(2));

  std::vector<double> alloc_state = alloc_env.reset();
  std::vector<double> into_state(into_env.state_dim());
  into_env.reset_into(into_state);
  ASSERT_EQ(into_state, alloc_state);

  bool done = false;
  std::size_t t = 0;
  while (!done) {
    const std::size_t action = t++ % 3;
    rl::StepResult sr = alloc_env.step(action);
    const StepOutcome out = into_env.step_into(action, into_state);
    EXPECT_EQ(out.reward, sr.reward);
    EXPECT_EQ(out.done, sr.done);
    EXPECT_EQ(into_state, sr.next_state);
    done = sr.done;
  }
  EXPECT_EQ(into_env.ledger().total_profit(), alloc_env.ledger().total_profit());
  EXPECT_EQ(into_env.ledger().total_revenue(), alloc_env.ledger().total_revenue());
}

TEST(EctHubEnv, IntoOverloadsValidateBufferSize) {
  EctHubEnv env(HubConfig::urban("into-b", 62), small_env(1));
  std::vector<double> wrong(env.state_dim() + 1);
  std::vector<double> right(env.state_dim());
  EXPECT_THROW(env.reset_into(wrong), std::invalid_argument);
  EXPECT_THROW(env.observe_into(right), std::logic_error);  // before reset
  env.reset_into(right);
  EXPECT_THROW(env.observe_into(wrong), std::invalid_argument);
  EXPECT_THROW(env.step_into(0, wrong), std::invalid_argument);
  EXPECT_NO_THROW(env.step_into(0, right));
}

TEST(EctHubEnv, ObserveIntoMatchesResetObservation) {
  EctHubEnv env(HubConfig::urban("into-c", 63), small_env(1));
  const std::vector<double> from_reset = env.reset();
  std::vector<double> observed(env.state_dim());
  env.observe_into(observed);
  EXPECT_EQ(observed, from_reset);
}

TEST(Profit, LedgerResetClearsTotalsAndDays) {
  ProfitLedger ledger(2);
  SlotEconomics e;
  e.revenue = 3.0;
  ledger.record(e);
  ledger.record(e);
  ledger.reset();
  EXPECT_EQ(ledger.slots_recorded(), 0u);
  EXPECT_DOUBLE_EQ(ledger.total_profit(), 0.0);
  EXPECT_TRUE(ledger.daily_profit().empty());
  // Still aggregates with the original day length after reset.
  ledger.record(e);
  ledger.record(e);
  ledger.record(e);
  EXPECT_EQ(ledger.daily_profit().size(), 2u);
}

// ------------------------------------------------------------------ policies
//
// The rule-based policies read the shared observation vector, never the env:
// these tests drive them exactly the way run_policy / the fleet engine does,
// tracking the state returned by reset()/step().

TEST(Policies, NoBatteryAlwaysIdles) {
  EctHubEnv env(HubConfig::urban("t", 14), small_env());
  const std::vector<double> state = env.reset();
  policy::NoBatteryPolicy pol;
  EXPECT_EQ(pol.decide(state), 0u);
}

TEST(Policies, TouChargesOffPeakDischargesPeak) {
  EctHubEnv env(HubConfig::urban("t", 15), small_env());
  std::vector<double> state = env.reset();
  policy::TouPolicy pol(env.observation_layout());
  // Walk the first day and collect decisions by hour.
  std::vector<std::size_t> by_hour(24, 99);
  bool done = false;
  while (!done && env.current_slot() < 24) {
    const auto hour = static_cast<std::size_t>(env.hour_of_day(env.current_slot()));
    by_hour[hour] = pol.decide(state);
    rl::StepResult r = env.step(0);
    state = std::move(r.next_state);
    done = r.done;
  }
  EXPECT_EQ(by_hour[2], 1u);   // off-peak charge
  EXPECT_EQ(by_hour[18], 2u);  // peak discharge
  EXPECT_EQ(by_hour[12], 0u);  // shoulder idle
}

TEST(Policies, GreedyArbitrageBeatsNoBatteryOnAverage) {
  HubConfig hub = HubConfig::urban("t", 16);
  EctHubEnv env_a(hub, small_env(10));
  EctHubEnv env_b(hub, small_env(10));
  policy::GreedyPricePolicy greedy;
  policy::NoBatteryPolicy none;
  const auto greedy_profit = run_policy(env_a, greedy, 5);
  const auto none_profit = run_policy(env_b, none, 5);
  double mg = 0, mn = 0;
  for (double p : greedy_profit) mg += p;
  for (double p : none_profit) mn += p;
  // Arbitrage should not be catastrophically worse; typically better.
  EXPECT_GT(mg, mn - 1.0);
}

TEST(Policies, ForecastChargesCheapHoursDischargesExpensive) {
  EctHubEnv env(HubConfig::urban("t", 21), small_env(10));
  policy::ForecastPolicy pol(env.observation_layout());
  // Walk several days so the seasonal price curve is learned, then check the
  // decisions: early-morning trough hours should charge, evening peak hours
  // should discharge.
  std::vector<double> state = env.reset();
  pol.begin_episode();
  std::vector<std::size_t> last_day_decision(24, 99);
  bool done = false;
  while (!done) {
    const std::size_t t = env.current_slot();
    const auto hour = static_cast<std::size_t>(env.hour_of_day(t));
    const std::size_t a = pol.decide(state);
    if (t >= 9 * 24) last_day_decision[hour] = a;
    rl::StepResult r = env.step(a);
    state = std::move(r.next_state);
    done = r.done;
  }
  EXPECT_EQ(last_day_decision[3], 1u);   // night trough: charge
  EXPECT_EQ(last_day_decision[20], 2u);  // evening peak: discharge
}

TEST(Policies, ForecastBeatsNoBattery) {
  HubConfig hub = HubConfig::rural("t", 22);
  EctHubEnv env_a(hub, small_env(15));
  EctHubEnv env_b(hub, small_env(15));
  policy::ForecastPolicy fc;
  policy::NoBatteryPolicy none;
  const double fc_profit = stats::mean(run_policy(env_a, fc, 4));
  const double none_profit = stats::mean(run_policy(env_b, none, 4));
  EXPECT_GT(fc_profit, none_profit);
}

TEST(Policies, ForecastRejectsBadBands) {
  EXPECT_THROW(policy::ForecastPolicy({}, 0.8, 0.2), std::invalid_argument);
}

TEST(Policies, RandomIsDeterministicPerSeed) {
  EctHubEnv env(HubConfig::urban("t", 17), small_env());
  const std::vector<double> state = env.reset();
  policy::RandomPolicy a(5), b(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.decide(state), b.decide(state));
}

TEST(Policies, RunPolicyReturnsPerEpisodeProfits) {
  EctHubEnv env(HubConfig::urban("t", 18), small_env(2));
  policy::TouPolicy pol;
  const auto profits = run_policy(env, pol, 3);
  EXPECT_EQ(profits.size(), 3u);
  for (double p : profits) EXPECT_TRUE(std::isfinite(p));
}

// ---------------------------------------------------------------- fleet

TEST(Fleet, ExportedActorMatchesTrainingPolicyDecisions) {
  // DrlPolicy mirrors the actor path of rl::ActorCritic (same layer shapes,
  // names *and* activations).  The two definitions live in different modules,
  // so pin their functional parity: if either side's architecture drifts,
  // the deployed greedy decisions stop matching the training-time ones here
  // instead of silently skewing every fleet sweep.
  rl::ActorCriticConfig ac_cfg;
  ac_cfg.state_dim = 33;
  ac_cfg.trunk_dim = 16;
  ac_cfg.head_dim = 8;
  nn::Rng init_rng(77);
  rl::ActorCritic trained(ac_cfg, init_rng);
  policy::DrlPolicy deployed(export_actor_checkpoint(trained));
  Rng obs_rng(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> state(ac_cfg.state_dim);
    for (double& x : state) x = obs_rng.uniform(0.0, 1.5);
    EXPECT_EQ(deployed.decide(state), trained.act_greedy(state)) << "state " << i;
  }
}

TEST(Fleet, AverageDailyReward) {
  EXPECT_NEAR(average_daily_reward({{1.0, 2.0}, {3.0}}), 2.0, 1e-12);
  EXPECT_THROW((void)average_daily_reward({}), std::invalid_argument);
}

TEST(Fleet, RunHubExperimentSmoke) {
  core::DrlExperimentConfig cfg;
  cfg.env.episode_days = 2;
  cfg.ppo.episodes_per_iteration = 1;
  cfg.train_iterations = 1;
  cfg.test_episodes = 1;
  const auto result = run_hub_experiment(HubConfig::urban("smoke", 19),
                                         std::vector<bool>(24, false), cfg, "Test");
  EXPECT_EQ(result.method, "Test");
  EXPECT_EQ(result.daily_rewards.size(), 2u);
  EXPECT_EQ(result.train_curve.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.avg_daily_reward));
}

TEST(EctHubEnv, HorizonEndIsTruncatedWithRealObservation) {
  // The horizon is a time limit, not a terminal state: the last step must
  // flag truncated alongside done and hand back a real (finite, in-range)
  // final observation for the critic bootstrap — not a zeroed buffer.
  EctHubEnv env(HubConfig::urban("trunc", 64), small_env(1));
  env.reset();
  rl::StepResult last;
  bool done = false;
  while (!done) {
    last = env.step(1);
    done = last.done;
  }
  EXPECT_TRUE(last.truncated);
  ASSERT_EQ(last.next_state.size(), env.state_dim());
  double magnitude = 0.0;
  for (const double x : last.next_state) {
    EXPECT_TRUE(std::isfinite(x));
    magnitude += std::abs(x);
  }
  EXPECT_GT(magnitude, 0.0);
}

TEST(EctHubEnv, MidEpisodeStepsAreNotTruncated) {
  EctHubEnv env(HubConfig::urban("trunc2", 65), small_env(1));
  env.reset();
  const rl::StepResult first = env.step(0);
  EXPECT_FALSE(first.done);
  EXPECT_FALSE(first.truncated);
}

TEST(VecCollectorFleet, CheckpointBlobIdenticalAcrossCollectorThreads) {
  // train_drl_checkpoint routes through the vectorized collector; the crew
  // size must not leak into the trained weights.
  const auto train = [](std::size_t collector_threads) {
    DrlFleetTrainConfig cfg;
    cfg.env.episode_days = 1;
    cfg.ppo.episodes_per_iteration = 2;
    cfg.iterations = 2;
    cfg.train_hubs = 3;
    cfg.collector_threads = collector_threads;
    return train_drl_checkpoint(HubConfig::urban("vec", 21), cfg);
  };
  const policy::DrlCheckpoint one = train(1);
  const policy::DrlCheckpoint four = train(4);
  EXPECT_EQ(one.blob, four.blob);
  EXPECT_FALSE(one.blob.empty());
}

TEST(VecCollectorFleet, MultiLaneTrainingValidates) {
  DrlFleetTrainConfig cfg;
  EXPECT_THROW((void)train_drl_checkpoint(std::vector<DrlTrainLane>{}, cfg),
               std::invalid_argument);
  cfg.train_hubs = 0;
  EXPECT_THROW((void)train_drl_checkpoint(HubConfig::urban("bad", 22), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::core
