#include "traffic/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::traffic {

TrafficGenerator::TrafficGenerator(TrafficConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  if (cfg_.noise_persistence < 0.0 || cfg_.noise_persistence >= 1.0) {
    throw std::invalid_argument("TrafficConfig: noise_persistence must be in [0, 1)");
  }
  if (cfg_.noise_sigma < 0.0) throw std::invalid_argument("TrafficConfig: noise_sigma < 0");
  if (cfg_.min_load < 0.0 || cfg_.min_load > 1.0) {
    throw std::invalid_argument("TrafficConfig: min_load out of [0, 1]");
  }
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
  grid.fill_by_slot_of_day(load, [&](double hour) { return profile.at_hour(hour); });

  // Noise pass over the envelope, in slot order.
  double ar = 0.0;  // AR(1) log-multiplier state
  for (std::size_t d = 0; d < grid.num_days(); ++d) {
    const std::size_t first = grid.day_start(d);
    const double weekend = grid.is_weekend(first) ? cfg_.weekend_factor : 1.0;
    for (std::size_t t = first; t < first + grid.slots_per_day(); ++t) {
      ar = cfg_.noise_persistence * ar + rng_.normal(0.0, cfg_.noise_sigma);
      load[t] = std::clamp(load[t] * weekend * std::exp(ar), cfg_.min_load, 1.0);
      trace.volume_gb[t] = load[t] * cfg_.peak_volume_gb;
    }
  }
}

}  // namespace ecthub::traffic
