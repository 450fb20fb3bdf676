#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace csaw {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::sample_variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected_probability) {
  CSAW_CHECK(observed.size() == expected_probability.size());
  std::uint64_t total = 0;
  for (auto c : observed) total += c;
  CSAW_CHECK(total > 0);

  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected =
        expected_probability[i] * static_cast<double>(total);
    if (expected == 0.0) {
      CSAW_CHECK_MSG(observed[i] == 0,
                     "observed count in zero-probability bucket " << i);
      continue;
    }
    const double diff = static_cast<double>(observed[i]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

double quantile(std::vector<double> xs, double p) {
  CSAW_CHECK(!xs.empty());
  CSAW_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace csaw
