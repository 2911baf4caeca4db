// Small statistics helpers used by generators, evaluators and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::stats {

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double>& v);

/// Population variance; 0 for fewer than 2 elements.
double variance(const std::vector<double>& v);

/// Population standard deviation.
double stddev(const std::vector<double>& v);

/// Pearson correlation coefficient; 0 if either side is constant or empty.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Linearly-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// percentile() of an already ascending-sorted vector: no copy, no sort —
/// for hot paths that keep their window sorted incrementally.
double percentile_sorted(const std::vector<double>& sorted, double p);

double min(const std::vector<double>& v);
double max(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Centered moving average over a window of exactly `w` elements in the
/// interior: out[i] averages v[i - (w-1)/2 .. i + w/2], so odd widths are
/// symmetric and even widths take the extra element on the newer (higher-
/// index) side.  Near the edges the window clamps to the available range
/// (fewer than `w` elements).  (Pre-fix, an even `w` silently widened to the
/// next odd width: w=4 averaged 5 elements.)
std::vector<double> moving_average(const std::vector<double>& v, std::size_t w);

/// Histogram over [lo, hi) with `bins` equal-width buckets; values outside
/// the range are clamped into the first/last bucket.
std::vector<std::size_t> histogram(const std::vector<double>& v, double lo, double hi,
                                   std::size_t bins);

/// Lag-k autocorrelation; 0 when undefined.
double autocorrelation(const std::vector<double>& v, std::size_t lag);

}  // namespace ecthub::stats
