#include "traffic/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::traffic {

void TrafficGenerator::validate(const TrafficConfig& cfg) {
  if (!(std::isfinite(cfg.weekend_factor) && cfg.weekend_factor >= 0.0)) {
    throw std::invalid_argument("TrafficConfig: weekend_factor not finite and >= 0");
  }
  if (!(cfg.noise_persistence >= 0.0 && cfg.noise_persistence < 1.0)) {
    throw std::invalid_argument("TrafficConfig: noise_persistence must be in [0, 1)");
  }
  if (!(std::isfinite(cfg.noise_sigma) && cfg.noise_sigma >= 0.0)) {
    throw std::invalid_argument("TrafficConfig: noise_sigma not finite and >= 0");
  }
  if (!(std::isfinite(cfg.peak_volume_gb) && cfg.peak_volume_gb >= 0.0)) {
    throw std::invalid_argument("TrafficConfig: peak_volume_gb not finite and >= 0");
  }
  if (!(cfg.min_load >= 0.0 && cfg.min_load <= 1.0)) {
    throw std::invalid_argument("TrafficConfig: min_load out of [0, 1]");
  }
}

TrafficGenerator::TrafficGenerator(TrafficConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  validate(cfg_);
}

TrafficTrace TrafficGenerator::generate(const TimeGrid& grid) {
  TrafficTrace trace;
  generate_into(grid, trace);
  return trace;
}

void TrafficGenerator::generate_into(const TimeGrid& grid, TrafficTrace& trace) {
  const DiurnalProfile profile = DiurnalProfile::for_area(cfg_.area);
  trace.load_rate.resize(grid.size());
  trace.volume_gb.resize(grid.size());

  // Shape pass: the diurnal envelope, written into the load buffer.
  std::vector<double>& load = trace.load_rate;
  grid.combine_by_slot_of_day(
      load, [&](double hour) { return profile.at_hour(hour); },
      [](double envelope, double /*previous episode*/) { return envelope; });

  // Noise pass over the envelope, in slot order.  The AR(1) innovations
  // are drawn in one call into the volume buffer, which each slot reads
  // before it writes its volume.
  std::vector<double>& volume = trace.volume_gb;
  rng_.normals(volume, 0.0, cfg_.noise_sigma);
  double ar = 0.0;  // AR(1) log-multiplier state
  for (std::size_t d = 0; d < grid.num_days(); ++d) {
    const std::size_t first = grid.day_start(d);
    const double weekend = grid.is_weekend(first) ? cfg_.weekend_factor : 1.0;
    for (std::size_t t = first; t < first + grid.slots_per_day(); ++t) {
      ar = cfg_.noise_persistence * ar + volume[t];
      load[t] = std::clamp(load[t] * weekend * std::exp(ar), cfg_.min_load, 1.0);
      volume[t] = load[t] * cfg_.peak_volume_gb;
    }
  }
}

}  // namespace ecthub::traffic
