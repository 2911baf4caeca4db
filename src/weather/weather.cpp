#include "weather/weather.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

void WeatherGenerator::validate(const WeatherConfig& cfg) {
  if (!std::isfinite(cfg.mean_temperature_c)) {
    throw std::invalid_argument("WeatherConfig: mean_temperature_c not finite");
  }
  if (!std::isfinite(cfg.diurnal_temp_swing_c)) {
    throw std::invalid_argument("WeatherConfig: diurnal_temp_swing_c not finite");
  }
  if (!(std::isfinite(cfg.temp_noise_sigma) && cfg.temp_noise_sigma >= 0.0)) {
    throw std::invalid_argument("WeatherConfig: temp_noise_sigma not finite and >= 0");
  }
  // The solar and wind models are built per generate(); check their configs
  // now.
  SolarModel::validate(cfg.solar);
  WindModel::validate(cfg.wind);
}

WeatherGenerator::WeatherGenerator(WeatherConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  validate(cfg_);
}

WeatherSeries WeatherGenerator::generate(const TimeGrid& grid) {
  WeatherSeries series;
  generate_into(grid, series);
  return series;
}

void WeatherGenerator::generate_into(const TimeGrid& grid, WeatherSeries& series) {
  SolarModel solar(cfg_.solar, rng_.fork());
  WindModel wind(cfg_.wind, rng_.fork());
  solar.generate_into(grid, series.ghi_wm2);
  wind.generate_into(grid, series.wind_speed_ms);
  series.temperature_c.resize(grid.size());
  // Noise pass in one call.
  Rng temp_rng = rng_.fork();
  temp_rng.normals(series.temperature_c, 0.0, cfg_.temp_noise_sigma);
  // Shape pass: mean plus the diurnal swing, under the noise.  Temperature
  // lags solar noon by ~2h; peak mid-afternoon.
  grid.combine_by_slot_of_day(
      series.temperature_c,
      [this](double hour) {
        return cfg_.mean_temperature_c + 0.5 * cfg_.diurnal_temp_swing_c *
                                             std::sin(2.0 * std::numbers::pi * (hour - 8.0) / 24.0);
      },
      [](double shape, double noise) { return shape + noise; });
}

}  // namespace ecthub::weather
