#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"

namespace csaw {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MatchesDirectComputation) {
  const std::vector<double> xs = {1.5, 2.5, -3.0, 7.0, 0.25, 9.5};
  RunningStat s;
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 9.5);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStat, SampleVarianceUsesNMinus1) {
  RunningStat s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_NEAR(s.variance(), 1.0, 1e-12);         // population
  EXPECT_NEAR(s.sample_variance(), 2.0, 1e-12);  // Bessel
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 5.0);
}

TEST(ChiSquare, ZeroForPerfectFit) {
  const std::vector<std::uint64_t> obs = {25, 25, 25, 25};
  const std::vector<double> p(4, 0.25);
  EXPECT_DOUBLE_EQ(chi_square(obs, p), 0.0);
}

TEST(ChiSquare, KnownValue) {
  const std::vector<std::uint64_t> obs = {30, 20};
  const std::vector<double> p = {0.5, 0.5};
  // (30-25)^2/25 + (20-25)^2/25 = 2.
  EXPECT_DOUBLE_EQ(chi_square(obs, p), 2.0);
}

TEST(ChiSquare, ZeroProbabilityBucketWithCountThrows) {
  const std::vector<std::uint64_t> obs = {10, 1};
  const std::vector<double> p = {1.0, 0.0};
  EXPECT_THROW(chi_square(obs, p), CheckError);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

}  // namespace
}  // namespace csaw
