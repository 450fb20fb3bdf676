#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csaw {

/// Streaming mean/variance accumulator (Welford's algorithm).
/// Numerically stable for long streams; O(1) memory.
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n); 0 for fewer than 2 samples.
  double variance() const noexcept;
  /// Sample variance (divide by n-1); 0 for fewer than 2 samples.
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson chi-square statistic of observed counts against expected
/// probabilities. Buckets with expected probability 0 must have 0 observed
/// count (checked). Returns the statistic; degrees of freedom is
/// (#nonzero expected buckets - 1).
double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected_probability);

/// p-quantile (0 <= p <= 1) of a copy of `xs` using linear interpolation.
double quantile(std::vector<double> xs, double p);

}  // namespace csaw
