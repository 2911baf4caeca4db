#include "renewables/wind_turbine.hpp"

#include <cmath>
#include <stdexcept>

namespace ecthub::renewables {

WindTurbine::WindTurbine(WindTurbineConfig cfg)
    : cfg_(cfg),
      cut_in_cubed_(std::pow(cfg_.cut_in_ms, 3.0)),
      ramp_den_(std::pow(cfg_.rated_speed_ms, 3.0) - cut_in_cubed_) {
  if (!(0.0 < cfg_.cut_in_ms && cfg_.cut_in_ms < cfg_.rated_speed_ms &&
        cfg_.rated_speed_ms < cfg_.cut_out_ms)) {
    throw std::invalid_argument(
        "WindTurbineConfig: need 0 < cut_in < rated_speed < cut_out");
  }
  if (cfg_.rated_power_w <= 0.0) {
    throw std::invalid_argument("WindTurbineConfig: rated_power_w must be > 0");
  }
}

double WindTurbine::power_w(double v) const {
  if (v < cfg_.cut_in_ms || v >= cfg_.cut_out_ms) return 0.0;
  if (v >= cfg_.rated_speed_ms) return cfg_.rated_power_w;
  // Cubic interpolation between cut-in and rated speed (P ~ v^3 physics).
  const double num = std::pow(v, 3.0) - cut_in_cubed_;
  return cfg_.rated_power_w * num / ramp_den_;
}

std::vector<double> WindTurbine::series(const weather::WeatherSeries& wx) const {
  std::vector<double> out(wx.size());
  for (std::size_t t = 0; t < wx.size(); ++t) out[t] = power_w(wx.wind_speed_ms[t]);
  return out;
}

}  // namespace ecthub::renewables
