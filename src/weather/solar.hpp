// Solar irradiance model — the NSRDB substitute.
//
// The paper feeds NSRDB solar-radiation data to the PV plant model; offline we
// synthesize global horizontal irradiance (GHI) with the two features the
// downstream models rely on: a deterministic diurnal/seasonal clear-sky
// envelope and stochastic cloud attenuation that makes generation volatile
// and hard to predict (paper Fig. 2).
#pragma once

#include "common/rng.hpp"
#include "common/time_grid.hpp"

#include <vector>

namespace ecthub::weather {

struct SolarConfig {
  /// Peak clear-sky GHI at solar noon on the summer solstice, W/m^2.
  double peak_ghi = 1000.0;
  /// Site latitude proxy: seasonal swing of day length in hours (0 = equator).
  double season_daylength_swing_h = 3.0;
  /// Mean day length, hours.
  double mean_daylength_h = 12.0;
  /// Cloud process: probability per slot of switching between clear/cloudy.
  double cloud_switch_prob = 0.08;
  /// Mean transmittance when cloudy (fraction of clear-sky GHI).
  double cloudy_transmittance = 0.35;
  /// Jitter of the transmittance around its mean.
  double transmittance_sigma = 0.10;
  /// Day-of-year the horizon starts at (0..364); controls the season.
  std::size_t start_day_of_year = 172;  // summer solstice by default
};

/// The per-day part of the clear-sky envelope: day length, sunrise/sunset
/// and the seasonal peak GHI of one day of year.
struct ClearSkyDay {
  double daylength_h;
  double sunrise_h;
  double sunset_h;
  double peak_ghi;
};

[[nodiscard]] ClearSkyDay clear_sky_day(const SolarConfig& cfg, std::size_t day_of_year);

/// The per-slot part: clear-sky GHI (W/m^2) at an hour of `day`.  Zero
/// outside daylight; half-sine inside.
[[nodiscard]] double clear_sky_ghi(const ClearSkyDay& day, double hour_of_day);

/// Clear-sky GHI (W/m^2) at a given hour of day for a given day of year.
[[nodiscard]] double clear_sky_ghi(const SolarConfig& cfg, std::size_t day_of_year,
                                   double hour_of_day);

/// Generates a GHI series over `grid` with a two-state (clear/cloudy) Markov
/// cloud process modulating the clear-sky envelope.
class SolarModel {
 public:
  /// Throws std::invalid_argument on an out-of-range config.
  SolarModel(SolarConfig cfg, Rng rng);

  /// The constructor's config check, for owners that build models lazily.
  static void validate(const SolarConfig& cfg);

  [[nodiscard]] std::vector<double> generate(const TimeGrid& grid);

  /// Allocation-free variant: writes the series into `ghi_wm2` in place,
  /// reusing its capacity.  Draws the identical stochastic stream as
  /// generate() — EctHubEnv regenerates episodes through this overload
  /// without touching the heap.
  void generate_into(const TimeGrid& grid, std::vector<double>& out_ghi_wm2);

  [[nodiscard]] const SolarConfig& config() const noexcept { return cfg_; }

 private:
  SolarConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::weather
