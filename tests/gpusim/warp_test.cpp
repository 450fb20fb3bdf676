#include "gpusim/warp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/prefix_sum.hpp"

namespace csaw::sim {
namespace {

TEST(Warp, ConstructionCountsWarp) {
  KernelStats stats;
  {
    WarpContext w1(stats);
    WarpContext w2(stats);
  }
  EXPECT_EQ(stats.warps, 2u);
}

TEST(Warp, ChargeRoundsAccumulates) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_rounds(3);
  warp.charge_rounds(4);
  EXPECT_EQ(stats.lockstep_rounds, 7u);
}

TEST(Warp, DivergedRoundsChargeMax) {
  KernelStats stats;
  WarpContext warp(stats);
  const std::vector<std::uint32_t> trips = {1, 9, 3, 0};
  warp.charge_diverged_rounds(trips);
  EXPECT_EQ(stats.lockstep_rounds, 9u);
}

TEST(Warp, GlobalChargesBytesAndOneRound) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_global(128);
  EXPECT_EQ(stats.global_bytes, 128u);
  EXPECT_EQ(stats.lockstep_rounds, 1u);
}

TEST(Warp, AtomicConflictDetectionWithinRound) {
  KernelStats stats;
  WarpContext warp(stats);
  csaw::AtomicBitmap bitmap(64, csaw::BitmapLayout::kContiguous);

  // Lanes hitting bits 0 and 1 share word 0 -> one conflict.
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 0));
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 1));
  EXPECT_EQ(stats.atomic_ops, 2u);
  EXPECT_EQ(stats.atomic_conflicts, 1u);

  // New round: bit 8 lives in word 1, no conflict.
  warp.end_atomic_round();
  EXPECT_FALSE(warp.atomic_test_and_set(bitmap, 8));
  EXPECT_EQ(stats.atomic_conflicts, 1u);
}

TEST(Warp, StridedBitmapAvoidsConflictContiguousHits) {
  csaw::AtomicBitmap contiguous(64, csaw::BitmapLayout::kContiguous);
  csaw::AtomicBitmap strided(64, csaw::BitmapLayout::kStrided);

  KernelStats cs, ss;
  {
    WarpContext warp(cs);
    for (std::size_t i = 0; i < 8; ++i) warp.atomic_test_and_set(contiguous, i);
  }
  {
    WarpContext warp(ss);
    for (std::size_t i = 0; i < 8; ++i) warp.atomic_test_and_set(strided, i);
  }
  EXPECT_EQ(cs.atomic_conflicts, 7u);  // all in word 0
  EXPECT_EQ(ss.atomic_conflicts, 0u);  // spread across words
}

TEST(Warp, ScanMatchesSequentialAndCharges) {
  KernelStats stats;
  WarpContext warp(stats);
  std::vector<float> data = {1, 2, 3, 4, 5};
  std::vector<float> expected(data.size());
  csaw::inclusive_scan_seq(data, expected);
  warp.scan_inclusive(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_FLOAT_EQ(data[i], expected[i]);
  }
  EXPECT_GT(stats.lockstep_rounds, 0u);
  EXPECT_EQ(stats.global_bytes, 2 * 5 * sizeof(float));
}

TEST(Warp, ClosedFormScanChargeMatchesTheScan) {
  for (std::size_t n = 1; n <= 4096; ++n) {
    KernelStats scanned;
    KernelStats charged;
    {
      WarpContext warp(scanned);
      std::vector<float> data(n, 1.0f);
      warp.scan_inclusive(data);
    }
    {
      WarpContext warp(charged);
      warp.charge_scan(n);
    }
    ASSERT_EQ(charged.lockstep_rounds, scanned.lockstep_rounds) << n;
    ASSERT_EQ(charged.global_bytes, scanned.global_bytes) << n;
    ASSERT_EQ(charged.max_warp_rounds, scanned.max_warp_rounds) << n;
  }
}

TEST(Warp, BinarySearchChargesLockStepRounds) {
  KernelStats stats;
  WarpContext warp(stats);
  warp.charge_binary_search(/*n=*/1024, /*active_lanes=*/4);
  EXPECT_EQ(stats.lockstep_rounds, 11u);  // bit_width(1024) = 11
  EXPECT_EQ(stats.global_bytes, 11u * 4 * sizeof(float));

  // Zero-size or zero lanes: no charge.
  warp.charge_binary_search(0, 10);
  warp.charge_binary_search(10, 0);
  EXPECT_EQ(stats.lockstep_rounds, 11u);
}

TEST(Warp, WideTaskSplitsItsTilesOverTheWarpsThatMakeItShortest) {
  // 3 tiles of 8 rounds: 2 warps take 2 tiles (16) + 2 combine rounds,
  // 3 warps take 1 tile (8) + 3 combine rounds, the shortest.
  KernelStats stats;
  WarpContext warp(stats, /*width=*/4);
  warp.charge_rounds(5);
  warp.charge_tiles(96, 7);
  warp.charge_tiles(96, 1);
  EXPECT_EQ(warp.retire(), 5u + 8u + 3u);
  EXPECT_EQ(stats.lockstep_rounds, 5u + 24u + 3u * 3u);
  // A lone tile stays on one warp: a split saves nothing.
  KernelStats lone;
  EXPECT_EQ(run_warp_task(lone, 8,
                          [](WarpContext& w) { w.charge_tiles(32, 8); }),
            8u);
  EXPECT_EQ(lone.lockstep_rounds, 8u);
}

TEST(Warp, WideTaskRejectsTileLoopsOverTwoLists) {
  KernelStats stats;
  WarpContext warp(stats, /*width=*/2);
  warp.charge_tiles(64, 1);
  EXPECT_THROW(warp.charge_tiles(96, 1), csaw::CheckError);
}

}  // namespace
}  // namespace csaw::sim
