#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ecthub::stats {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("pearson: size mismatch");
  if (x.size() < 2) return 0.0;
  const double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty vector");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of [0,100]");
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double min(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("min: empty vector");
  return *std::min_element(v.begin(), v.end());
}

double max(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("max: empty vector");
  return *std::max_element(v.begin(), v.end());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<double> moving_average(const std::vector<double>& v, std::size_t w) {
  if (w == 0) throw std::invalid_argument("moving_average: window must be >= 1");
  std::vector<double> out(v.size(), 0.0);
  // Exactly w interior elements: (w-1)/2 older plus w/2 newer neighbours —
  // the symmetric [i-half, i+half] for odd w, one extra on the newer side
  // for even w ([i-half, i+half] with half = w/2 was 2*(w/2)+1 wide, so an
  // even request never got its own width).
  const auto half_older = static_cast<std::ptrdiff_t>((w - 1) / 2);
  const auto half_newer = static_cast<std::ptrdiff_t>(w / 2);
  const auto n = static_cast<std::ptrdiff_t>(v.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half_older);
    const std::ptrdiff_t hi = std::min(n - 1, i + half_newer);
    double acc = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) acc += v[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = acc / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<std::size_t> histogram(const std::vector<double>& v, double lo, double hi,
                                   std::size_t bins) {
  if (bins == 0) throw std::invalid_argument("histogram: bins must be >= 1");
  if (hi <= lo) throw std::invalid_argument("histogram: hi must be > lo");
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : v) {
    auto b = static_cast<std::ptrdiff_t>((x - lo) / width);
    b = std::clamp<std::ptrdiff_t>(b, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(b)];
  }
  return counts;
}

double autocorrelation(const std::vector<double>& v, std::size_t lag) {
  if (v.size() <= lag + 1) return 0.0;
  const double m = mean(v);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    den += (v[i] - m) * (v[i] - m);
    if (i + lag < v.size()) num += (v[i] - m) * (v[i + lag] - m);
  }
  if (den <= 0.0) return 0.0;
  return num / den;
}

}  // namespace ecthub::stats
