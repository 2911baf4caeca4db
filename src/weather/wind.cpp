#include "weather/wind.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::weather {

void WindModel::validate(const WindConfig& cfg) {
  if (cfg.mean_speed_ms < 0.0) throw std::invalid_argument("WindConfig: mean_speed_ms < 0");
  if (cfg.reversion_rate <= 0.0 || cfg.reversion_rate >= 1.0) {
    throw std::invalid_argument("WindConfig: reversion_rate must be in (0, 1)");
  }
  if (cfg.volatility < 0.0) throw std::invalid_argument("WindConfig: volatility < 0");
  if (cfg.max_speed_ms < 0.0) throw std::invalid_argument("WindConfig: max_speed_ms < 0");
}

WindModel::WindModel(WindConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { validate(cfg_); }

std::vector<double> WindModel::generate(const TimeGrid& grid) {
  std::vector<double> speed;
  generate_into(grid, speed);
  return speed;
}

void WindModel::generate_into(const TimeGrid& grid, std::vector<double>& out_speed) {
  out_speed.resize(grid.size());
  // Shape pass: the diurnal modulation factor, written into the output.
  grid.fill_by_slot_of_day(out_speed, [this](double hour) {
    return 1.0 + cfg_.diurnal_amplitude * std::sin(2.0 * std::numbers::pi * (hour - 9.0) / 24.0);
  });
  // Noise pass: the OU state, scaled by the factor.
  double x = cfg_.mean_speed_ms;  // OU state
  for (std::size_t t = 0; t < grid.size(); ++t) {
    x += cfg_.reversion_rate * (cfg_.mean_speed_ms - x) +
         rng_.normal(0.0, cfg_.volatility);
    x = std::clamp(x, 0.0, cfg_.max_speed_ms);
    out_speed[t] = std::clamp(x * out_speed[t], 0.0, cfg_.max_speed_ms);
  }
}

}  // namespace ecthub::weather
