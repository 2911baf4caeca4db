#include "core/hub_env.hpp"

#include "battery/reserve.hpp"
#include "power/balance.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::core {

// Normalization scales live on the shared ObservationLayout so the policies
// decode exactly what this file encodes.
using policy::ObservationLayout;

namespace {
// Coupled-mode side streams are seeded from pure hashes — never from rng_ —
// so turning coupling on cannot perturb the uncoupled fork sequence
// (traffic -> weather -> rtp -> ev -> init SoC) that the golden-checksum
// tests pin.  Each stream mixes its tag with the episode index so every
// episode draws fresh, reproducible values.
constexpr std::uint64_t kWeatherFrontStream = 0x7778'66726f6e74ULL;  // "wxfront"
constexpr std::uint64_t kOutageFrontStream = 0x6f75'74667274ULL;     // "outfrt"
constexpr std::uint64_t kThroughStream = 0x7468'72753030ULL;         // "thru"
}  // namespace

HubEnvConfig EctHubEnv::validated(HubEnvConfig cfg) {
  if (cfg.episode_days == 0) throw std::invalid_argument("HubEnvConfig: episode_days == 0");
  if (cfg.slots_per_day == 0) throw std::invalid_argument("HubEnvConfig: slots_per_day == 0");
  if (cfg.lookback == 0) throw std::invalid_argument("HubEnvConfig: lookback == 0");
  if (!cfg.discount_by_hour.empty() && cfg.discount_by_hour.size() != 24) {
    throw std::invalid_argument("HubEnvConfig: discount_by_hour must have 24 entries");
  }
  // Range checks are written as !(in range) so that NaN fails them.
  if (!(cfg.discount_fraction >= 0.0 && cfg.discount_fraction < 1.0)) {
    throw std::invalid_argument("HubEnvConfig: discount_fraction out of [0, 1)");
  }
  if (!(0.0 <= cfg.init_soc_lo && cfg.init_soc_lo <= cfg.init_soc_hi &&
        cfg.init_soc_hi <= 1.0)) {
    throw std::invalid_argument("HubEnvConfig: bad init SoC range");
  }
  if (cfg.coupling.enabled) {
    if (!(std::isfinite(cfg.coupling.through_rate) && cfg.coupling.through_rate >= 0.0)) {
      throw std::invalid_argument("HubCouplingConfig: through_rate not finite and >= 0");
    }
    if (!(cfg.coupling.outage.rate_per_month >= 0.0 &&
          cfg.coupling.outage.min_duration_h >= 0.0 &&
          cfg.coupling.outage.max_duration_h >= cfg.coupling.outage.min_duration_h)) {
      throw std::invalid_argument("HubCouplingConfig: bad OutageModel");
    }
  }
  return cfg;
}

EctHubEnv::EctHubEnv(HubConfig hub, HubEnvConfig env_cfg)
    : hub_(std::move(hub)),
      cfg_(validated(std::move(env_cfg))),
      rng_(hub_.seed),
      ledger_(cfg_.slots_per_day) {
  // Fail on a bad battery (e.g. zero capacity) at construction, not at the
  // first reset deep inside a worker thread.
  hub_.battery.validate();
  if (hub_.recovery_hours < 0.0) {
    throw std::invalid_argument("HubConfig: recovery_hours < 0");
  }
  // Likewise the configs of the episode generators, which every reset builds
  // afresh.
  traffic::TrafficGenerator::validate(hub_.traffic);
  weather::WeatherGenerator::validate(hub_.weather);
  pricing::RtpGenerator::validate(hub_.rtp);
  // The station's behaviour profile is a pure function of the hub config, so
  // it is built once here (also validating it eagerly) rather than per reset.
  station_.emplace(hub_.station,
                   ev::StrataProfile(hub_.ev_popularity, hub_.ev_evening_sensitivity,
                                     hub_.ev_evening_commuter));
  // The observation's hour-of-day phase depends on the slot of day only.
  hour_phase_.resize(2 * cfg_.slots_per_day);
  for (std::size_t s = 0; s < cfg_.slots_per_day; ++s) {
    const double hour =
        static_cast<double>(s) * (24.0 / static_cast<double>(cfg_.slots_per_day));
    hour_phase_[2 * s] = std::sin(2.0 * std::numbers::pi * hour / 24.0);
    hour_phase_[2 * s + 1] = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  }
}

std::size_t EctHubEnv::state_dim() const { return observation_layout().dim(); }

double EctHubEnv::hour_of_day(std::size_t t) const {
  const TimeGrid grid(cfg_.episode_days, cfg_.slots_per_day);
  return grid.hour_of_day(t);
}

void EctHubEnv::generate_episode() {
  const TimeGrid grid(cfg_.episode_days, cfg_.slots_per_day);
  const std::size_t episode = episode_index_++;
  const HubCouplingConfig& coupling = cfg_.coupling;
  const bool fronted = coupling.enabled && coupling.front_seed != 0;

  // Traffic drives both BS power (Eq. 1) and the RTP load coupling (Fig. 5).
  // The generators write into the episode buffers in place, so the buffers'
  // capacity is reused across resets and regeneration is allocation-free.
  traffic::TrafficGenerator traffic_gen(hub_.traffic, rng_.fork());
  traffic_gen.generate_into(grid, traffic_);
  const std::vector<double>& load_rate = traffic_.load_rate;
  const power::BaseStation bs(hub_.bs);
  bs_kw_.resize(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) bs_kw_[t] = bs.power_kw(load_rate[t]);

  // Weather -> renewables, regenerated into the reused episode buffers.
  // The fork is drawn unconditionally so the uncoupled stream sequence never
  // shifts; a metro front then *replaces* the forked stream with the shared
  // front stream, correlating weather across every hub of the metro.
  Rng wx_rng = rng_.fork();
  if (fronted) {
    wx_rng = Rng(mix_seed(mix_seed(coupling.front_seed, kWeatherFrontStream), episode));
  }
  weather::WeatherGenerator wx_gen(hub_.weather, wx_rng);
  wx_gen.generate_into(grid, wx_);
  const renewables::RenewablePlant plant(hub_.plant);
  plant.generate_into(wx_, gen_);
  pv_kw_.resize(grid.size());
  wt_kw_.resize(grid.size());
  renewable_kw_.resize(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) {
    // Plant model reports watts; the hub works in kW.
    pv_kw_[t] = gen_.pv_w[t] / 1000.0;
    wt_kw_[t] = gen_.wt_w[t] / 1000.0;
    renewable_kw_[t] = pv_kw_[t] + wt_kw_[t];
  }

  // Prices (coupled to system load) and the discounted selling price.
  pricing::RtpGenerator rtp_gen(hub_.rtp, rng_.fork());
  rtp_gen.generate_into(grid, load_rate, rtp_);

  // The discount flags depend only on the grid and the (fixed) hour
  // schedule, so the flags and the selling-price policy are built once at
  // the first reset and reused for every later episode.
  if (!selling_) {
    discounted_.assign(grid.size(), false);
    if (!cfg_.discount_by_hour.empty()) {
      for (std::size_t t = 0; t < grid.size(); ++t) {
        const auto hour = static_cast<std::size_t>(grid.hour_of_day(t));
        discounted_[t] = cfg_.discount_by_hour[hour % 24];
      }
    }
    selling_.emplace(hub_.selling, pricing::DiscountSchedule::from_flags(
                                       discounted_, cfg_.discount_fraction));
  }
  selling_->series_into(rtp_, srtp_);

  // EV occupancy under the discount schedule.
  Rng ev_rng = rng_.fork();
  station_->simulate_into(grid, discounted_, ev_rng, occ_);

  // Coupled-mode side streams: through-traffic demand (passing EVs that can
  // overflow the plugs and be exported to neighbors) and the shared outage
  // front.  Both are seeded from pure hashes, so the uncoupled fork sequence
  // above is untouched, and both regenerate into reused buffers.
  if (coupling.enabled) {
    through_kw_.resize(grid.size());
    Rng through_rng(mix_seed(mix_seed(hub_.seed, kThroughStream), episode));
    const double plug_kw = hub_.station.plug_rate_kw;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      through_kw_[t] = plug_kw * static_cast<double>(through_rng.poisson(
                                     coupling.through_rate * traffic_.load_rate[t]));
    }
    outage_.resize(grid.size());
    std::fill(outage_.begin(), outage_.end(), std::uint8_t{0});
    if (fronted && coupling.outage.rate_per_month > 0.0) {
      // The draw_outages sampling loop, inlined to write reused flags instead
      // of allocating an event vector (the zero-alloc episode contract).
      Rng outage_rng(
          mix_seed(mix_seed(coupling.front_seed, kOutageFrontStream), episode));
      const double dt = grid.slot_hours();
      const double horizon_months =
          static_cast<double>(grid.size()) * dt / (30.0 * 24.0);
      const std::uint64_t count =
          outage_rng.poisson(coupling.outage.rate_per_month * horizon_months);
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto start = static_cast<std::size_t>(
            outage_rng.uniform_int(0, static_cast<std::int64_t>(grid.size()) - 1));
        const double dur_h = outage_rng.uniform(coupling.outage.min_duration_h,
                                                coupling.outage.max_duration_h);
        const auto dur =
            std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(dur_h / dt)));
        const std::size_t end = std::min(grid.size(), start + dur);
        for (std::size_t s = start; s < end; ++s) outage_[s] = 1;
      }
    }
  }

  // Battery with the Eq. 6 blackout reserve floor, re-emplaced in place (no
  // per-reset heap allocation).
  pack_.emplace(hub_.battery, rng_.uniform(cfg_.init_soc_lo, cfg_.init_soc_hi));
  const auto recovery_slots = static_cast<std::size_t>(
      std::ceil(hub_.recovery_hours / grid.slot_hours()));
  if (recovery_slots > 0) {
    const double reserve_kwh = battery::reserve_energy_worst_window(
        bs_kw_, std::min(recovery_slots, bs_kw_.size()), grid.slot_hours());
    const double floor_frac = battery::reserve_floor_fraction(
        reserve_kwh, hub_.battery.capacity_kwh, hub_.battery.discharge_efficiency);
    const double floor_kwh =
        std::clamp(floor_frac * hub_.battery.capacity_kwh, pack_->soc_min_kwh(),
                   pack_->soc_max_kwh());
    pack_->set_reserve_floor_kwh(floor_kwh);
  }

  scale_channels();
  ledger_.reset();
  t_ = 0;
  episode_ready_ = true;
}

void EctHubEnv::scale_channels() {
  // Channel c occupies [c * stride, (c + 1) * stride): lookback - 1 copies
  // of slot 0 (the episode-start pad), the n scaled slots, then one copy of
  // the last slot (the horizon clamp of the final observation).  Window
  // position j of slot t therefore reads slot clamp(t - (lookback-1) + j).
  const std::size_t n = slots_per_episode();
  const std::size_t pad = cfg_.lookback - 1;
  const std::size_t stride = n + cfg_.lookback;
  obs_channels_.resize(ObservationLayout::kChannels * stride);
  std::size_t c = 0;
  const auto fill = [&](const std::vector<double>& series, double scale) {
    double* p = obs_channels_.data() + (c++ * stride);
    std::fill_n(p, pad, series.front() / scale);
    for (std::size_t t = 0; t < n; ++t) p[pad + t] = series[t] / scale;
    p[pad + n] = series.back() / scale;
  };
  // Channel order and scales are the ObservationLayout contract; policies
  // decode through the same struct.
  fill(rtp_, ObservationLayout::kPriceScale);
  fill(wx_.ghi_wm2, ObservationLayout::kGhiScale);
  fill(wx_.wind_speed_ms, ObservationLayout::kWindScale);
  fill(traffic_.load_rate, 1.0);
  fill(srtp_, ObservationLayout::kPriceScale);
}

void EctHubEnv::observe_into(std::span<double> out) const {
  if (!episode_ready_) throw std::logic_error("EctHubEnv::observe_into before reset");
  if (out.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::observe_into: buffer size != state_dim()");
  }
  // Each window is one contiguous run of its padded channel buffer (see
  // scale_channels): slots t-lookback+1 .. t, start-padded and clamped at
  // the horizon by construction.
  const std::size_t lookback = cfg_.lookback;
  const std::size_t stride = slots_per_episode() + lookback;
  std::size_t pos = 0;
  for (std::size_t c = 0; c < ObservationLayout::kChannels; ++c, pos += lookback) {
    std::copy_n(obs_channels_.begin() + static_cast<std::ptrdiff_t>(c * stride + t_), lookback,
                out.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  out[pos++] = pack_->soc_frac();
  // Wrapping by hand keeps the final observation (t_ == size) on the same
  // 24 h phase.
  const std::size_t slot_of_day = t_ % cfg_.slots_per_day;
  out[pos++] = hour_phase_[2 * slot_of_day];
  out[pos] = hour_phase_[2 * slot_of_day + 1];
}

void EctHubEnv::reset_into(std::span<double> state) {
  if (state.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::reset_into: buffer size != state_dim()");
  }
  generate_episode();
  observe_into(state);
}

StepOutcome EctHubEnv::step_into(std::size_t action, std::span<double> next_state) {
  SlotCoupling coupling;  // zero import, outputs discarded
  return step_into(action, next_state, coupling);
}

StepOutcome EctHubEnv::step_into(std::size_t action, std::span<double> next_state,
                                 SlotCoupling& coupling) {
  if (!episode_ready_) throw std::logic_error("EctHubEnv::step_into before reset_into");
  if (action >= action_count()) throw std::invalid_argument("EctHubEnv::step_into: bad action");
  if (t_ >= slots_per_episode()) throw std::logic_error("EctHubEnv::step_into after episode end");
  if (next_state.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::step_into: buffer size != state_dim()");
  }

  const TimeGrid grid(cfg_.episode_days, cfg_.slots_per_day);
  const double dt = grid.slot_hours();

  auto bp_action = battery::BpAction::kIdle;
  if (action == 1) bp_action = battery::BpAction::kCharge;
  if (action == 2) bp_action = battery::BpAction::kDischarge;
  // Coupled demand resolution: resident EVs occupy their plugs first, then
  // the slot's through traffic, then imports routed here by neighbors; the
  // unserved through demand becomes the export the CouplingBus routes onward
  // (unserved imports are dropped — a one-hop bound, so demand cannot
  // ping-pong around the metro forever).  Uncoupled hubs skip all of it and
  // the slot is bit-identical to the pre-coupling step.
  double cs_kw = occ_.power_kw[t_];
  coupling.export_kw = 0.0;
  coupling.served_import_kw = 0.0;
  coupling.dropped_import_kw = 0.0;
  coupling.through_kw = 0.0;
  coupling.outage = false;
  if (cfg_.coupling.enabled) {
    const double through = through_kw_[t_];
    coupling.through_kw = through;
    if (outage_[t_] != 0) {
      // Front outage: the station shuts down (the ride_through contract) —
      // resident demand and imports are lost, through traffic drives on.
      coupling.outage = true;
      coupling.export_kw = through;
      coupling.dropped_import_kw = coupling.import_kw;
      cs_kw = 0.0;
    } else {
      const double cap_kw =
          static_cast<double>(hub_.station.num_plugs) * hub_.station.plug_rate_kw;
      const double free_kw = std::max(0.0, cap_kw - cs_kw);
      const double served_through = std::min(through, free_kw);
      const double served_import =
          std::min(coupling.import_kw, free_kw - served_through);
      cs_kw += served_through + served_import;
      coupling.served_import_kw = served_import;
      coupling.dropped_import_kw = coupling.import_kw - served_import;
      coupling.export_kw = through - served_through;
    }
  }
  // Discharge is throttled to the hub's net load: the DC bus cannot absorb
  // more than BS + CS demand net of renewables, and there is no grid feed-in.
  const double net_load_kw =
      std::max(0.0, bs_kw_[t_] + cs_kw - wt_kw_[t_] - pv_kw_[t_]);
  const battery::BpStepResult bp = pack_->step(bp_action, dt, net_load_kw);

  const power::PowerFlow flow{bs_kw_[t_], cs_kw, bp.bus_power_kw, wt_kw_[t_], pv_kw_[t_]};
  const SlotEconomics econ =
      slot_economics(flow.cs_kw, flow.grid_kw(), srtp_[t_], rtp_[t_], bp.op_cost, dt);
  ledger_.record(econ);

  double reward = econ.profit();
  if (cfg_.shaped_reward) {
    const power::PowerFlow idle_flow{bs_kw_[t_], cs_kw, 0.0, wt_kw_[t_], pv_kw_[t_]};
    const SlotEconomics idle_econ =
        slot_economics(idle_flow.cs_kw, idle_flow.grid_kw(), srtp_[t_], rtp_[t_], 0.0, dt);
    reward = econ.profit() - idle_econ.profit();
  }

  ++t_;
  StepOutcome outcome;
  outcome.reward = reward;
  outcome.done = t_ >= slots_per_episode();
  // The horizon is the env's only end condition — a time-limit truncation of
  // the paper's infinite-horizon MDP, not a terminal state — so the final
  // observation is emitted for critic bootstrapping before the episode
  // closes (observe_into clamps its windows at the horizon).
  outcome.truncated = outcome.done;
  observe_into(next_state);
  if (outcome.done) episode_ready_ = false;
  return outcome;
}

}  // namespace ecthub::core
