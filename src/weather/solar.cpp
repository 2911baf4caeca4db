#include "weather/solar.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

ClearSkyDay clear_sky_day(const SolarConfig& cfg, std::size_t day_of_year) {
  // Day length varies sinusoidally over the year around the mean; peak GHI
  // scales with relative day length as a season proxy.
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>((day_of_year + 365 - 172) % 365) / 365.0;
  const double daylength =
      cfg.mean_daylength_h + 0.5 * cfg.season_daylength_swing_h * std::cos(phase);
  return ClearSkyDay{daylength, 12.0 - daylength / 2.0, 12.0 + daylength / 2.0,
                     cfg.peak_ghi * (daylength / (cfg.mean_daylength_h +
                                                  0.5 * cfg.season_daylength_swing_h))};
}

double clear_sky_ghi(const ClearSkyDay& day, double hour_of_day) {
  if (hour_of_day <= day.sunrise_h || hour_of_day >= day.sunset_h) return 0.0;
  const double x = (hour_of_day - day.sunrise_h) / day.daylength_h;  // in (0, 1)
  return day.peak_ghi * std::sin(std::numbers::pi * x);
}

double clear_sky_ghi(const SolarConfig& cfg, std::size_t day_of_year, double hour_of_day) {
  return clear_sky_ghi(clear_sky_day(cfg, day_of_year), hour_of_day);
}

void SolarModel::validate(const SolarConfig& cfg) {
  if (!(std::isfinite(cfg.peak_ghi) && cfg.peak_ghi > 0.0)) {
    throw std::invalid_argument("SolarConfig: peak_ghi not finite and > 0");
  }
  if (!std::isfinite(cfg.season_daylength_swing_h)) {
    throw std::invalid_argument("SolarConfig: season_daylength_swing_h not finite");
  }
  if (!std::isfinite(cfg.mean_daylength_h)) {
    throw std::invalid_argument("SolarConfig: mean_daylength_h not finite");
  }
  if (!(cfg.cloud_switch_prob >= 0.0 && cfg.cloud_switch_prob <= 1.0)) {
    throw std::invalid_argument("SolarConfig: cloud_switch_prob out of [0, 1]");
  }
  if (!(cfg.cloudy_transmittance >= 0.0 && cfg.cloudy_transmittance <= 1.0)) {
    throw std::invalid_argument("SolarConfig: cloudy_transmittance out of [0, 1]");
  }
  if (!(std::isfinite(cfg.transmittance_sigma) && cfg.transmittance_sigma >= 0.0)) {
    throw std::invalid_argument("SolarConfig: transmittance_sigma not finite and >= 0");
  }
}

SolarModel::SolarModel(SolarConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { validate(cfg_); }

std::vector<double> SolarModel::generate(const TimeGrid& grid) {
  std::vector<double> ghi;
  generate_into(grid, ghi);
  return ghi;
}

void SolarModel::generate_into(const TimeGrid& grid, std::vector<double>& out_ghi) {
  out_ghi.resize(grid.size());
  bool cloudy = rng_.bernoulli(0.5);
  // One standard normal per slot, drawn in one call into the output; each
  // slot reads its own before it writes its GHI.
  rng_.normals(out_ghi);
  for (std::size_t d = 0; d < grid.num_days(); ++d) {
    const ClearSkyDay day = clear_sky_day(cfg_, (cfg_.start_day_of_year + d) % 365);
    const std::size_t first = grid.day_start(d);
    for (std::size_t t = first; t < first + grid.slots_per_day(); ++t) {
      if (rng_.bernoulli(cfg_.cloud_switch_prob)) cloudy = !cloudy;
      const double clear = clear_sky_ghi(day, grid.hour_of_day(t));
      const double z = out_ghi[t];
      double trans = 1.0;
      if (cloudy) {
        trans = std::clamp(cfg_.cloudy_transmittance + z * cfg_.transmittance_sigma, 0.05, 1.0);
      } else {
        // Even "clear" slots see small high-cirrus variation.
        trans = std::clamp(1.0 - std::abs(z * 0.03), 0.8, 1.0);
      }
      out_ghi[t] = clear * trans;
    }
  }
}

}  // namespace ecthub::weather
