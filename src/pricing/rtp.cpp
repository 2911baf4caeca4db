#include "pricing/rtp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::pricing {

void RtpGenerator::validate(const RtpConfig& cfg) {
  if (!(std::isfinite(cfg.base_price) && cfg.base_price > 0.0)) {
    throw std::invalid_argument("RtpConfig: base_price not finite and > 0");
  }
  if (!std::isfinite(cfg.diurnal_amplitude)) {
    throw std::invalid_argument("RtpConfig: diurnal_amplitude not finite");
  }
  if (!std::isfinite(cfg.load_coupling)) {
    throw std::invalid_argument("RtpConfig: load_coupling not finite");
  }
  if (!(std::isfinite(cfg.noise_sigma) && cfg.noise_sigma >= 0.0)) {
    throw std::invalid_argument("RtpConfig: noise_sigma not finite and >= 0");
  }
  if (!(cfg.noise_persistence >= 0.0 && cfg.noise_persistence < 1.0)) {
    throw std::invalid_argument("RtpConfig: noise_persistence out of [0, 1)");
  }
  if (!(cfg.spike_prob >= 0.0 && cfg.spike_prob <= 1.0)) {
    throw std::invalid_argument("RtpConfig: spike_prob out of [0, 1]");
  }
  if (cfg.spike_prob > 0.0 && !(std::isfinite(cfg.spike_scale) && cfg.spike_scale > 0.0)) {
    throw std::invalid_argument(
        "RtpConfig: spike_scale must be finite and > 0 when spike_prob > 0");
  }
  if (!std::isfinite(cfg.floor_price)) {
    throw std::invalid_argument("RtpConfig: floor_price not finite");
  }
}

RtpGenerator::RtpGenerator(RtpConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) { validate(cfg_); }

double RtpGenerator::diurnal_component(double hour_of_day) const {
  // Two-bump day: a morning shoulder around 9h and the dominant evening peak
  // around 20h, with a deep trough in the small hours — the Fig. 5 shape.
  const double morning =
      0.45 * std::exp(-0.5 * std::pow((hour_of_day - 9.0) / 2.5, 2.0));
  const double evening =
      1.00 * std::exp(-0.5 * std::pow((hour_of_day - 20.0) / 2.8, 2.0));
  const double trough =
      -0.55 * std::exp(-0.5 * std::pow((hour_of_day - 4.0) / 2.5, 2.0));
  return cfg_.diurnal_amplitude * (morning + evening + trough);
}

std::vector<double> RtpGenerator::generate(const TimeGrid& grid,
                                           const std::vector<double>& system_load) {
  std::vector<double> price;
  generate_into(grid, system_load, price);
  return price;
}

void RtpGenerator::generate_into(const TimeGrid& grid, const std::vector<double>& system_load,
                                 std::vector<double>& price_out) {
  if (!system_load.empty() && system_load.size() != grid.size()) {
    throw std::invalid_argument("RtpGenerator: system_load length must match grid");
  }
  price_out.resize(grid.size());
  // Noise pass: the AR(1) innovations in one call, then the AR(1) state in
  // place.
  rng_.normals(price_out, 0.0, cfg_.noise_sigma);
  double ar = 0.0;
  for (double& price : price_out) {
    ar = cfg_.noise_persistence * ar + price;
    price = ar;
  }
  // Shape pass: the deterministic daily curve under the AR(1) noise.
  grid.combine_by_slot_of_day(
      price_out, [this](double hour) { return cfg_.base_price + diurnal_component(hour); },
      [](double curve, double noise) { return curve + noise; });
  // Load coupling and spikes on top, in slot order.
  for (std::size_t t = 0; t < grid.size(); ++t) {
    double p = price_out[t];
    if (!system_load.empty()) p += cfg_.load_coupling * system_load[t];
    if (rng_.bernoulli(cfg_.spike_prob)) p += rng_.exponential(1.0 / cfg_.spike_scale);
    price_out[t] = std::max(p, cfg_.floor_price);
  }
}

}  // namespace ecthub::pricing
