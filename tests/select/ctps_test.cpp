#include "select/ctps.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/prefix_sum.hpp"

namespace csaw {
namespace {

TEST(Ctps, PaperFig1Example) {
  // Fig. 1(b): biases {3,6,2,2,2} -> prefix {0,3,9,11,13,15} -> CTPS
  // {0, 0.2, 0.6, 0.733, 0.867, 1}.
  Ctps ctps;
  const std::vector<float> biases = {3, 6, 2, 2, 2};
  ctps.build(biases);
  ASSERT_EQ(ctps.size(), 5u);
  EXPECT_FLOAT_EQ(static_cast<float>(ctps.lo(0)), 0.0f);
  EXPECT_NEAR(ctps.hi(0), 0.2, 1e-6);
  EXPECT_NEAR(ctps.hi(1), 0.6, 1e-6);
  EXPECT_NEAR(ctps.hi(2), 11.0 / 15.0, 1e-6);
  EXPECT_NEAR(ctps.hi(3), 13.0 / 15.0, 1e-6);
  EXPECT_FLOAT_EQ(static_cast<float>(ctps.hi(4)), 1.0f);

  // The paper's r = 0.5 falls in v7's region (candidate index 1).
  EXPECT_EQ(ctps.locate(0.5), 1u);
}

TEST(Ctps, TheoremOneRegionWidths) {
  // Theorem 1: region width of candidate k equals b_k / sum(b).
  Ctps ctps;
  const std::vector<float> biases = {1.5f, 0.25f, 4.0f, 2.25f};
  const double total = 8.0;
  ctps.build(biases);
  for (std::size_t k = 0; k < biases.size(); ++k) {
    EXPECT_NEAR(ctps.hi(k) - ctps.lo(k), biases[k] / total, 1e-6) << k;
  }
}

TEST(Ctps, LocateFindsEveryRegionOnGrid) {
  Ctps ctps;
  const std::vector<float> biases = {2, 1, 3, 4};
  ctps.build(biases);
  for (int i = 0; i < 1000; ++i) {
    const double r = i / 1000.0;
    const std::size_t k = ctps.locate(r);
    // Float storage vs double draws: boundaries may be off by one ULP.
    EXPECT_GE(r, ctps.lo(k) - 1e-6);
    EXPECT_LT(r, ctps.hi(k) + 1e-6);
  }
}

TEST(Ctps, ZeroBiasRegionsAreNeverSelected) {
  Ctps ctps;
  const std::vector<float> biases = {0, 2, 0, 0, 3, 0};
  ctps.build(biases);
  EXPECT_EQ(ctps.positive_candidates(), 2u);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t k = ctps.locate(i / 2000.0);
    EXPECT_TRUE(k == 1 || k == 4) << "selected zero-bias candidate " << k;
  }
}

TEST(Ctps, BoundariesAreExact) {
  Ctps ctps;
  ctps.build(std::vector<float>{1, 1});
  EXPECT_EQ(ctps.locate(0.0), 0u);
  EXPECT_EQ(ctps.locate(0.4999), 0u);
  EXPECT_EQ(ctps.locate(0.5), 1u);
  EXPECT_EQ(ctps.locate(0.9999), 1u);
}

TEST(Ctps, SingleCandidate) {
  Ctps ctps;
  ctps.build(std::vector<float>{7.0f});
  EXPECT_EQ(ctps.size(), 1u);
  EXPECT_EQ(ctps.locate(0.0), 0u);
  EXPECT_EQ(ctps.locate(0.999), 0u);
}

TEST(Ctps, RejectsDegenerateInput) {
  Ctps ctps;
  EXPECT_THROW(ctps.build(std::vector<float>{}), CheckError);
  EXPECT_THROW(ctps.build(std::vector<float>{0, 0, 0}), CheckError);
  EXPECT_THROW(ctps.build(std::vector<float>{1, -1}), CheckError);
  ctps.build(std::vector<float>{1});
  EXPECT_THROW(ctps.locate(1.0), CheckError);
  EXPECT_THROW(ctps.locate(-0.1), CheckError);
}

TEST(Ctps, RejectsNonFiniteInputNamingTheCause) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const auto message = [](std::vector<float> biases) -> std::string {
    try {
      Ctps ctps;
      ctps.build(biases);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message({1, inf, 1, 1}).find("non-finite bias"),
            std::string::npos);
  EXPECT_NE(message({1, -inf}).find("non-finite bias"), std::string::npos);
  EXPECT_NE(message({1, nan, 1}).find("non-finite bias"), std::string::npos);
  EXPECT_NE(message({big, big, big}).find("overflows float"),
            std::string::npos);
  EXPECT_NE(message({tiny, tiny}).find("too small to normalize"),
            std::string::npos);
  EXPECT_NE(message({1, -1}).find("negative bias"), std::string::npos);

  // The largest total that fits still builds a monotone CTPS.
  Ctps ctps;
  ctps.build(std::vector<float>{big / 2, big / 2});
  EXPECT_EQ(ctps.locate(0.25), 0u);
  EXPECT_EQ(ctps.locate(0.75), 1u);
  for (std::size_t i = 1; i < ctps.f().size(); ++i) {
    EXPECT_LE(ctps.f()[i - 1], ctps.f()[i]);
  }
}

TEST(Ctps, BuildChargesTheReferenceScan) {
  // What running the reference Kogge-Stone scan on a copy of the biases,
  // then the normalizing pass, charges to a warp.
  const auto scan_on_copy = [](std::span<const float> biases) {
    sim::KernelStats stats;
    {
      sim::WarpContext warp(stats);
      std::vector<float> copy(biases.begin(), biases.end());
      const int rounds = kogge_stone_scan(copy, sim::WarpContext::kLanes);
      warp.charge_rounds(static_cast<std::uint64_t>(rounds));
      warp.charge_rounds((biases.size() + sim::WarpContext::kLanes - 1) /
                         sim::WarpContext::kLanes);
    }
    stats.global_bytes += 2 * biases.size() * sizeof(float);
    return stats;
  };
  const auto fields = [](const sim::KernelStats& stats) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    sim::visit_kernel_stats(stats, [&](const char* name, std::uint64_t v) {
      out.emplace_back(name, v);
    });
    return out;
  };
  for (const std::size_t n : {1, 2, 31, 32, 33, 64, 100, 620, 1000, 4097}) {
    std::vector<float> biases(n);
    for (std::size_t i = 0; i < n; ++i) {
      biases[i] = static_cast<float>((i * 7) % 5);
    }
    biases[n / 2] = 1.0f;  // keep the total positive
    sim::KernelStats built;
    {
      sim::WarpContext warp(built);
      Ctps ctps;
      ctps.build(biases, &warp);
    }
    EXPECT_EQ(fields(built), fields(scan_on_copy(biases))) << n;
  }
}

TEST(Ctps, ChargesWarpForScanAndSearch) {
  sim::KernelStats stats;
  sim::WarpContext warp(stats);
  Ctps ctps;
  const std::vector<float> biases(100, 1.0f);
  ctps.build(biases, &warp);
  EXPECT_GT(stats.lockstep_rounds, 0u);
  EXPECT_GT(stats.global_bytes, 0u);
  const auto rounds_before = stats.lockstep_rounds;
  ctps.locate(0.5, &warp);
  EXPECT_GT(stats.lockstep_rounds, rounds_before);
}

}  // namespace
}  // namespace csaw
