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
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace ecthub::core {
namespace {

HubEnvConfig small_env(std::size_t days = 3) {
  HubEnvConfig cfg;
  cfg.episode_days = days;
  return cfg;
}

// The env steps only through caller-owned buffers (reset_into/step_into).
// Call sites that read just the initial observation or a step's outcome go
// through these helpers, which hand each call a fresh buffer.
std::vector<double> reset(EctHubEnv& env) {
  std::vector<double> state(env.state_dim());
  env.reset_into(state);
  return state;
}

StepOutcome step(EctHubEnv& env, std::size_t action) {
  std::vector<double> next_state(env.state_dim());
  return env.step_into(action, next_state);
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
  const auto state = reset(env);
  EXPECT_EQ(state.size(), env.state_dim());
  EXPECT_EQ(env.action_count(), 3u);
}

TEST(EctHubEnv, EpisodeTerminatesAtHorizon) {
  EctHubEnv env(HubConfig::urban("t", 4), small_env(2));
  reset(env);
  std::size_t steps = 0;
  bool done = false;
  while (!done) {
    done = step(env, 0).done;
    ++steps;
  }
  EXPECT_EQ(steps, 48u);
}

TEST(EctHubEnv, StepBeforeResetThrows) {
  EctHubEnv env(HubConfig::urban("t", 5), small_env());
  EXPECT_THROW(step(env, 0), std::logic_error);
}

TEST(EctHubEnv, BadActionThrows) {
  EctHubEnv env(HubConfig::urban("t", 6), small_env());
  reset(env);
  EXPECT_THROW(step(env, 3), std::invalid_argument);
}

TEST(EctHubEnv, SocStaysWithinBoundsUnderRandomActions) {
  EctHubEnv env(HubConfig::rural("t", 7), small_env(5));
  reset(env);
  Rng rng(8);
  bool done = false;
  while (!done) {
    done = step(env, static_cast<std::size_t>(rng.uniform_int(0, 2))).done;
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
  reset(env);
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
  reset(env);
  double acc = 0.0;
  bool done = false;
  while (!done) {
    const auto r = step(env, 1);
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
  reset(env_active);
  reset(env_idle);
  double shaped_acc = 0.0;
  bool done = false;
  while (!done) {
    const auto r = step(env_active, 2);  // discharge whenever possible
    shaped_acc += r.reward;
    done = step(env_idle, 0).done && r.done;
  }
  const double true_delta =
      env_active.ledger().total_profit() - env_idle.ledger().total_profit();
  EXPECT_NEAR(shaped_acc, true_delta, 1e-9);
}

TEST(EctHubEnv, ObservationWindowsReadTheScaledSeriesAtEverySlot) {
  // Every window of every observation, the final one included, equals the
  // episode series divided by its channel scale, start-padded with slot 0
  // and clamped to the last slot — also when the lookback outruns the
  // whole episode.
  for (const auto& [slots_per_day, lookback] :
       {std::pair<std::size_t, std::size_t>{24, 6}, {5, 8}}) {
    HubEnvConfig cfg = small_env(1);
    cfg.slots_per_day = slots_per_day;
    cfg.lookback = lookback;
    EctHubEnv env(HubConfig::rural("win", 17), cfg);
    std::vector<double> obs(env.state_dim());
    env.reset_into(obs);
    const std::size_t n = env.slots_per_episode();
    std::vector<double> rtp(n), srtp(n);
    for (std::size_t t = 0; t < n; ++t) {
      rtp[t] = env.rtp_at(t);
      srtp[t] = env.srtp_at(t);
    }
    const std::pair<const std::vector<double>*, double> channels[] = {
        {&rtp, policy::ObservationLayout::kPriceScale},
        {&env.weather_series().ghi_wm2, policy::ObservationLayout::kGhiScale},
        {&env.weather_series().wind_speed_ms, policy::ObservationLayout::kWindScale},
        {&env.traffic_trace().load_rate, 1.0},
        {&srtp, policy::ObservationLayout::kPriceScale}};
    for (std::size_t t = 0; t <= n; ++t) {
      for (std::size_t c = 0; c < std::size(channels); ++c) {
        const auto& [series, scale] = channels[c];
        for (std::size_t j = 0; j < lookback; ++j) {
          const std::size_t k = lookback - 1 - j;  // slots back from t
          const std::size_t idx = std::min(t >= k ? t - k : 0, n - 1);
          ASSERT_EQ(obs[c * lookback + j], (*series)[idx] / scale)
              << "slot " << t << " channel " << c << " position " << j;
        }
      }
      if (t < n) env.step_into(t % 3, obs);
    }
  }
}

TEST(EctHubEnv, IdleShapedRewardIsZero) {
  EctHubEnv env(HubConfig::rural("t", 1011), small_env(1));
  reset(env);
  bool done = false;
  while (!done) {
    const auto r = step(env, 0);
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
  reset(env_a);
  bool done = false;
  while (!done) done = step(env_a, 0).done;
  const double revenue_no = env_a.ledger().total_revenue();

  HubEnvConfig with_disc = small_env(20);
  with_disc.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) with_disc.discount_by_hour[h] = true;
  EctHubEnv env_b(hub, with_disc);
  reset(env_b);
  done = false;
  while (!done) done = step(env_b, 0).done;
  const double revenue_disc = env_b.ledger().total_revenue();

  EXPECT_GT(revenue_disc, revenue_no);
}

TEST(EctHubEnv, StateChannelsAreNormalized) {
  EctHubEnv env(HubConfig::rural("t", 12), small_env());
  const auto state = reset(env);
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

TEST(EctHubEnv, DiscountFractionRejectsNan) {
  // `--discount nan` parses as a double; the range check must not let it by.
  HubEnvConfig bad = small_env();
  bad.discount_fraction = std::nan("");
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad), std::invalid_argument);
}

TEST(EctHubEnv, ThroughRateRejectsNan) {
  HubEnvConfig bad = small_env();
  bad.coupling.enabled = true;
  bad.coupling.through_rate = std::nan("");
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad), std::invalid_argument);
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
  reset(env);
  ASSERT_EQ(env.slots_per_episode(), 72u);

  double rtp_sum = 0.0;
  for (std::size_t t = 0; t < 72; ++t) rtp_sum += env.rtp_at(t);
  EXPECT_EQ(env.rtp_at(0), 68.843570488755006);
  EXPECT_EQ(env.rtp_at(71), 97.998539543458449);
  EXPECT_EQ(rtp_sum, 6590.3177053429263);

  const auto& renew = env.renewable_series();
  ASSERT_EQ(renew.size(), 72u);
  double renew_sum = 0.0;
  for (const double r : renew) renew_sum += r;
  EXPECT_EQ(renew.front(), 0.0);  // midnight: no PV
  EXPECT_EQ(renew[12], 4.4550361011746293);
  EXPECT_EQ(renew_sum, 80.717757007045989);

  const auto& bs = env.bs_power_series();
  ASSERT_EQ(bs.size(), 72u);
  double bs_sum = 0.0;
  for (const double b : bs) bs_sum += b;
  EXPECT_EQ(bs.front(), 1.4919219601240743);
  EXPECT_EQ(bs.back(), 1.6633118961072428);
  EXPECT_EQ(bs_sum, 163.30018743074231);

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
       {0xb6bac231e3536fa2ULL, 0x3fd88240c4c8ccebULL, 0xeab849b1d406840fULL,
        0xf761e7909e874572ULL, 0x3198874f3227e0d5ULL, 0xaa68f922168d6791ULL,
        0x9a3c8a2d45c2d384ULL, 0xb4a31ea95e3a6e50ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0xfdffa5c59be31e62ULL, 0x68625283d9c900f1ULL,
        0xac4f59be29058714ULL}},
      {"rural-24", HubConfig::rural("bits", 4243), env_cfg(24),
       {0xd6fae2c1f75cfc56ULL, 0xe12ff48098ff4410ULL, 0x0048f7974537c25fULL,
        0x835df4ddc7cfbd1fULL, 0x065b67eec92c57ccULL, 0xe84f7365c8a65d3eULL,
        0xfeaf3c3f0b8e6786ULL, 0xce69a1a26361c395ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0x3b8b917b42da7dc9ULL, 0x315db3b8261105e5ULL,
        0x5b51563c5a9d52e5ULL}},
      {"rural-96", HubConfig::rural("bits", 4244), env_cfg(96),
       {0x77b2195ea3bfb746ULL, 0x5c272d72ed99ff8cULL, 0xe49e7de266b8f664ULL,
        0x71874f22ff4f6ab9ULL, 0x654c93488fae44d1ULL, 0x04095b8e14527246ULL,
        0xd76f7ecd96ae4726ULL, 0x3c178d80f8a82615ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0x655c0f5d92f4070eULL, 0xb891f2d8eb69f861ULL,
        0xb5076216c6e976d1ULL}},
      {"rural-5", HubConfig::rural("bits", 4245), env_cfg(5),
       {0xd29d68a16212f4c3ULL, 0xa8d036e600a7c2e1ULL, 0x49fadc217ec90434ULL,
        0xaabd2e3b7e277ba6ULL, 0x5cf9cc78233d46baULL, 0x0dbb9107075cb5edULL,
        0xb537a80629740b06ULL, 0xe5758b8a9fdb2d95ULL, 0xcbf29ce484222325ULL,
        0xcbf29ce484222325ULL, 0xa607e3672072e7fcULL, 0xe4a708563fc638f7ULL,
        0x68e1667392d80440ULL}},
      {"urban-coupled", HubConfig::urban("bits", 4246), coupled,
       {0x88d26066b1939defULL, 0x731868f17b81dc57ULL, 0xe7416da81c7cf93eULL,
        0x8623e62c2b06b1b3ULL, 0xb5ef2c79c7c8b624ULL, 0x59dd487d3916f0e7ULL,
        0x1380fc6e205df1e5ULL, 0x85db16d109c99b35ULL, 0x47ad90eb2ad5f437ULL,
        0xb8f28a3ac998cce4ULL, 0x23c6cf11bafd11adULL, 0x33562f23ab2950c1ULL,
        0xd7ccc4f6d55ada35ULL}},
  };
  for (const Case& c : cases) {
    const EpisodeFingerprints got = fingerprint_episode(c.hub, c.cfg);
    EXPECT_EQ(got, c.expected) << c.name << " now fingerprints as " << to_row(got);
  }
  // The coupled case must actually exercise the outage front.
  EctHubEnv fronted(HubConfig::urban("bits", 4246), coupled);
  reset(fronted);
  EXPECT_NE(std::count(fronted.outage_series().begin(), fronted.outage_series().end(), 1), 0);
}

TEST(EctHubEnvGolden, TwoEnvsSameSeedProduceIdenticalEpisodes) {
  HubEnvConfig cfg;
  cfg.episode_days = 2;
  const HubConfig hub = HubConfig::rural("twin", 777);
  EctHubEnv a(hub, cfg);
  EctHubEnv b(hub, cfg);
  const auto sa = reset(a);
  const auto sb = reset(b);
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
  reset(env);
  const double first_rtp0 = env.rtp_at(0);
  reset(env);
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
  reset(env_empty);
  reset(env_false);
  for (std::size_t t = 0; t < env_empty.slots_per_episode(); ++t) {
    ASSERT_EQ(env_empty.srtp_at(t), env_false.srtp_at(t)) << "slot " << t;
  }
  EXPECT_EQ(env_empty.cs_power_series(), env_false.cs_power_series());
  EXPECT_NO_THROW(step(env_empty, 1));
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

TEST(EctHubEnv, NanGeneratorConfigThrowsAtConstruction) {
  // The env checks the generator configs through their static validators,
  // so NaN fails here as it does in the generators' own constructors.
  const double nan = std::nan("");
  HubConfig bad_traffic = HubConfig::urban("nan-traffic", 61);
  bad_traffic.traffic.noise_persistence = nan;
  EXPECT_THROW(EctHubEnv(bad_traffic, small_env()), std::invalid_argument);
  HubConfig bad_rtp = HubConfig::urban("nan-rtp", 61);
  bad_rtp.rtp.base_price = nan;
  EXPECT_THROW(EctHubEnv(bad_rtp, small_env()), std::invalid_argument);
  HubConfig bad_weather = HubConfig::rural("nan-wx", 61);
  bad_weather.weather.temp_noise_sigma = nan;
  EXPECT_THROW(EctHubEnv(bad_weather, small_env()), std::invalid_argument);
  HubConfig bad_solar = HubConfig::rural("nan-solar", 61);
  bad_solar.weather.solar.cloud_switch_prob = nan;
  EXPECT_THROW(EctHubEnv(bad_solar, small_env()), std::invalid_argument);
  HubConfig bad_wind = HubConfig::rural("nan-wind", 61);
  bad_wind.weather.wind.reversion_rate = nan;
  EXPECT_THROW(EctHubEnv(bad_wind, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, NegativeRecoveryHoursThrowsAtConstruction) {
  HubConfig hub = HubConfig::urban("bad-recovery", 58);
  hub.recovery_hours = -1.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, StepPastEpisodeEndThrows) {
  EctHubEnv env(HubConfig::urban("overrun", 59), small_env(1));
  reset(env);
  bool done = false;
  while (!done) done = step(env, 0).done;
  EXPECT_THROW(step(env, 0), std::logic_error);
  // A reset re-arms the episode.
  reset(env);
  EXPECT_NO_THROW(step(env, 0));
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
  const std::vector<double> from_reset = reset(env);
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
// through one state buffer that reset_into()/step_into() write.

TEST(Policies, NoBatteryAlwaysIdles) {
  EctHubEnv env(HubConfig::urban("t", 14), small_env());
  const std::vector<double> state = reset(env);
  policy::NoBatteryPolicy pol;
  EXPECT_EQ(pol.decide(state), 0u);
}

TEST(Policies, TouChargesOffPeakDischargesPeak) {
  EctHubEnv env(HubConfig::urban("t", 15), small_env());
  std::vector<double> state(env.state_dim());
  env.reset_into(state);
  policy::TouPolicy pol(env.observation_layout());
  // Walk the first day and collect decisions by hour.
  std::vector<std::size_t> by_hour(24, 99);
  bool done = false;
  while (!done && env.current_slot() < 24) {
    const auto hour = static_cast<std::size_t>(env.hour_of_day(env.current_slot()));
    by_hour[hour] = pol.decide(state);
    done = env.step_into(0, state).done;
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
  std::vector<double> state(env.state_dim());
  env.reset_into(state);
  pol.begin_episode();
  std::vector<std::size_t> last_day_decision(24, 99);
  bool done = false;
  while (!done) {
    const std::size_t t = env.current_slot();
    const auto hour = static_cast<std::size_t>(env.hour_of_day(t));
    const std::size_t a = pol.decide(state);
    if (t >= 9 * 24) last_day_decision[hour] = a;
    done = env.step_into(a, state).done;
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
  const std::vector<double> state = reset(env);
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

// ------------------------------------------------- run_policy (golden)

// run_policy pinned to the bit: for every rule policy on an urban and a rural
// hub (3 episodes of 8 days with an hourly discount window), the FNV
// fingerprint of the per-episode profits and of the last episode's ledger
// daily profits.  The examples print profits to two decimals, so only this
// table catches a one-ULP drift in the policy loop.  On a deliberate change
// the failure prints the new pair.
std::unique_ptr<policy::Policy> make_rule_policy(const std::string& name,
                                                 const policy::ObservationLayout& layout) {
  if (name == "NoBattery") return std::make_unique<policy::NoBatteryPolicy>();
  if (name == "TOU") return std::make_unique<policy::TouPolicy>(layout);
  if (name == "GreedyPrice") return std::make_unique<policy::GreedyPricePolicy>(layout);
  if (name == "Forecast") return std::make_unique<policy::ForecastPolicy>(layout);
  return std::make_unique<policy::RandomPolicy>(31);
}

std::string hex_pair(std::uint64_t a, std::uint64_t b) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "0x%016llxULL, 0x%016llxULL", static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

TEST(RunPolicyGolden, RulePoliciesArePinnedToTheBit) {
  struct Case {
    const char* hub;
    const char* policy;
    std::uint64_t profits, daily;
  };
  const Case cases[] = {
      {"urban-24", "NoBattery", 0xf4fd99e87b7f0c87ULL, 0xa90cc35d8e4a1dc0ULL},
      {"urban-24", "TOU", 0xbcdf9b6cffb87149ULL, 0xb6e686de3500186cULL},
      {"urban-24", "GreedyPrice", 0xc21da9366d401da6ULL, 0xe91c5cbea5d8626eULL},
      {"urban-24", "Forecast", 0x4b7340215f4d8043ULL, 0xefc3c7e6f69e14adULL},
      {"urban-24", "Random", 0x2f82ae209c181e7cULL, 0x5f678ff588960108ULL},
      {"rural-24", "NoBattery", 0x1df3d997d369e303ULL, 0x4513debd48becf02ULL},
      {"rural-24", "TOU", 0xa58cc6c3e5b6f7b0ULL, 0xebea08fed37b2968ULL},
      {"rural-24", "GreedyPrice", 0x81d13a8cd245edbfULL, 0x2530b7a75bc9e5fdULL},
      {"rural-24", "Forecast", 0xa7b35af18336b0b4ULL, 0x3f821aa53cb565d1ULL},
      {"rural-24", "Random", 0xde9d4eb0dc91ea69ULL, 0xd0a7a875e757b5e0ULL},
  };
  HubEnvConfig cfg;
  cfg.episode_days = 8;
  cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 10; h < 16; ++h) cfg.discount_by_hour[h] = true;
  for (const Case& c : cases) {
    const bool urban = std::string(c.hub) == "urban-24";
    EctHubEnv env(urban ? HubConfig::urban("run", 5150) : HubConfig::rural("run", 5151), cfg);
    const auto pol = make_rule_policy(c.policy, env.observation_layout());
    const std::vector<double> profits = run_policy(env, *pol, 3);
    ASSERT_EQ(profits.size(), 3u);
    const std::uint64_t got_profits = bit_fingerprint(profits);
    const std::uint64_t got_daily = bit_fingerprint(env.ledger().daily_profit());
    EXPECT_EQ(got_profits, c.profits) << c.hub << " " << c.policy << " now fingerprints as "
                                      << hex_pair(got_profits, got_daily);
    EXPECT_EQ(got_daily, c.daily) << c.hub << " " << c.policy << " now fingerprints as "
                                  << hex_pair(got_profits, got_daily);
  }
}

TEST(RunPolicyGolden, ReducedHubExperimentIsPinnedToTheBit) {
  // run_hub_experiment tests the deployed actor through run_policy; a
  // reduced Table III cell pins that path end to end.
  DrlExperimentConfig cfg;
  cfg.train.env.episode_days = 2;
  cfg.train.ppo.episodes_per_iteration = 1;
  cfg.train.iterations = 2;
  cfg.train.train_hubs = 2;
  cfg.test_episodes = 3;
  std::vector<bool> discount(24, false);
  for (std::size_t h = 18; h < 24; ++h) discount[h] = true;
  const HubMethodResult result =
      run_hub_experiment(HubConfig::urban("pinned", 5152), discount, cfg, "Pinned");
  const std::uint64_t avg_bits = std::bit_cast<std::uint64_t>(result.avg_daily_reward);
  const std::uint64_t daily = bit_fingerprint(result.daily_rewards);
  EXPECT_EQ(avg_bits, 0x4012bdfe9dc80cefULL) << "now " << hex_pair(avg_bits, daily);
  EXPECT_EQ(daily, 0x897992b85861eb15ULL) << "now " << hex_pair(avg_bits, daily);
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
  cfg.train.env.episode_days = 2;
  cfg.train.ppo.episodes_per_iteration = 1;
  cfg.train.iterations = 1;
  cfg.test_episodes = 1;
  const auto result = run_hub_experiment(HubConfig::urban("smoke", 19),
                                         std::vector<bool>(24, false), cfg, "Test");
  EXPECT_EQ(result.method, "Test");
  EXPECT_EQ(result.daily_rewards.size(), 2u);
  EXPECT_EQ(result.train_curve.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.avg_daily_reward));
}

TEST(Fleet, RunHubExperimentIsTheFleetRecipe) {
  // Table III / Fig. 13 numbers come from the same recipe a fleet sweep
  // deploys: train_drl_checkpoint on replicas of the hub, then the exported
  // actor tested on the hub's own stream.
  core::DrlExperimentConfig cfg;
  cfg.train.env.episode_days = 2;
  cfg.train.ppo.episodes_per_iteration = 1;
  cfg.train.iterations = 2;
  cfg.train.train_hubs = 2;
  cfg.test_episodes = 2;
  const HubConfig hub = HubConfig::urban("recipe", 23);
  std::vector<bool> discount(24, false);
  for (std::size_t h = 18; h < 24; ++h) discount[h] = true;

  const auto result = run_hub_experiment(hub, discount, cfg, "Recipe");
  ASSERT_EQ(result.train_curve.size(), cfg.train.iterations);

  DrlFleetTrainConfig train = cfg.train;
  train.env.discount_by_hour = discount;
  policy::DrlPolicy deployed(train_drl_checkpoint(hub, train));
  EctHubEnv env(hub, train.env);
  std::vector<std::vector<double>> daily_per_ep;
  for (std::size_t e = 0; e < cfg.test_episodes; ++e) {
    (void)run_policy(env, deployed, 1);
    daily_per_ep.push_back(env.ledger().daily_profit());
  }
  EXPECT_EQ(result.avg_daily_reward, average_daily_reward(daily_per_ep));
  EXPECT_EQ(result.daily_rewards, daily_per_ep.front());
}

TEST(EctHubEnv, HorizonEndIsTruncatedWithRealObservation) {
  // The horizon is a time limit, not a terminal state: the last step must
  // flag truncated alongside done and hand back a real (finite, in-range)
  // final observation for the critic bootstrap — not a zeroed buffer.
  EctHubEnv env(HubConfig::urban("trunc", 64), small_env(1));
  std::vector<double> final_state(env.state_dim());
  env.reset_into(final_state);
  StepOutcome last;
  bool done = false;
  while (!done) {
    last = env.step_into(1, final_state);
    done = last.done;
  }
  EXPECT_TRUE(last.truncated);
  ASSERT_EQ(final_state.size(), env.state_dim());
  double magnitude = 0.0;
  for (const double x : final_state) {
    EXPECT_TRUE(std::isfinite(x));
    magnitude += std::abs(x);
  }
  EXPECT_GT(magnitude, 0.0);
}

TEST(EctHubEnv, MidEpisodeStepsAreNotTruncated) {
  EctHubEnv env(HubConfig::urban("trunc2", 65), small_env(1));
  reset(env);
  const StepOutcome first = step(env, 0);
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
