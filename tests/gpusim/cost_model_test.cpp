#include "gpusim/cost_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace csaw::sim {
namespace {

DeviceParams test_params() {
  DeviceParams p;
  p.kernel_launch_us = 0.0;  // isolate the roofline terms
  return p;
}

KernelStats busy_stats() {
  KernelStats s;
  s.warps = 10000;  // plenty of parallelism: no stall penalty
  s.lockstep_rounds = 1'000'000'000;
  s.global_bytes = 1'000'000;
  return s;
}

TEST(KernelStats, MergeSumsEveryField) {
  KernelStats a, b;
  a.lockstep_rounds = 1;
  a.global_bytes = 2;
  a.atomic_ops = 3;
  a.atomic_conflicts = 4;
  a.warps = 5;
  a.select_iterations = 6;
  a.collision_searches = 7;
  a.collisions = 8;
  a.sampled_vertices = 9;
  b = a;
  a.merge(b);
  EXPECT_EQ(a.lockstep_rounds, 2u);
  EXPECT_EQ(a.global_bytes, 4u);
  EXPECT_EQ(a.atomic_ops, 6u);
  EXPECT_EQ(a.atomic_conflicts, 8u);
  EXPECT_EQ(a.warps, 10u);
  EXPECT_EQ(a.select_iterations, 12u);
  EXPECT_EQ(a.collision_searches, 14u);
  EXPECT_EQ(a.collisions, 16u);
  EXPECT_EQ(a.sampled_vertices, 18u);
}

TEST(CostModel, ZeroWarpsIsZeroTime) {
  const CostModel model(test_params());
  EXPECT_EQ(model.kernel_seconds(KernelStats{}), 0.0);
}

TEST(CostModel, MonotonicInRounds) {
  const CostModel model(test_params());
  KernelStats lo = busy_stats(), hi = busy_stats();
  hi.lockstep_rounds *= 2;
  EXPECT_LT(model.kernel_seconds(lo), model.kernel_seconds(hi));
}

TEST(CostModel, BandwidthBoundKernelsScaleWithBytes) {
  const CostModel model(test_params());
  KernelStats s = busy_stats();
  s.lockstep_rounds = 1;          // negligible compute
  s.global_bytes = 90'000'000'000ull;  // 0.1 s at 900 GB/s
  EXPECT_NEAR(model.kernel_seconds(s), 0.1, 0.01);
}

TEST(CostModel, HalvingResourcesDoublesTime) {
  const CostModel model(test_params());
  const KernelStats s = busy_stats();
  const double full = model.kernel_seconds(s, 1.0);
  const double half = model.kernel_seconds(s, 0.5);
  EXPECT_NEAR(half / full, 2.0, 0.05);
}

TEST(CostModel, FewWarpsPayStallPenalty) {
  const CostModel model(test_params());
  KernelStats many = busy_stats();
  KernelStats few = busy_stats();
  few.warps = 80;  // one warp per SM: cannot hide latency
  // Same total work, fewer warps -> slower.
  EXPECT_GT(model.kernel_seconds(few), model.kernel_seconds(many) * 2.0);
}

TEST(CostModel, AtomicConflictsAddSerialization) {
  const CostModel model(test_params());
  KernelStats clean = busy_stats();
  KernelStats contended = busy_stats();
  contended.atomic_conflicts = 500'000'000;
  EXPECT_GT(model.kernel_seconds(contended), model.kernel_seconds(clean));
}

TEST(CostModel, LaunchOverheadFloorsKernelTime) {
  DeviceParams p;
  p.kernel_launch_us = 5.0;
  const CostModel model(p);
  KernelStats tiny;
  tiny.warps = 1;
  tiny.lockstep_rounds = 1;
  EXPECT_GE(model.kernel_seconds(tiny), 5e-6);
}

TEST(CostModel, TransferUsesLinkBandwidthPlusLatency) {
  DeviceParams p;
  p.link_gbytes_per_sec = 50.0;
  p.link_latency_us = 10.0;
  const CostModel model(p);
  // 5 GB at 50 GB/s = 0.1 s (+10 us latency).
  EXPECT_NEAR(model.transfer_seconds(5'000'000'000ull), 0.1, 1e-3);
  // Latency floor for empty copies.
  EXPECT_NEAR(model.transfer_seconds(0), 10e-6, 1e-9);
}

TEST(CostModel, OccupiableFractionIsTheWholeDeviceWhenBlocksCoverIt) {
  const CostModel model(test_params());  // 80 SMs
  // Exactly 80 blocks fill the device, and 400 more cannot use more.
  EXPECT_EQ(model.occupiable_fraction(80 * kWarpsPerBlock), 1.0);
  EXPECT_EQ(model.occupiable_fraction(480 * kWarpsPerBlock), 1.0);
}

TEST(CostModel, OccupiableFractionCapsAtBlockCount) {
  const CostModel model(test_params());  // 80 SMs
  // 17 warps round up to 3 blocks: 3 of 80 SMs.
  EXPECT_EQ(model.occupiable_fraction(17), 3.0 / 80.0);
  EXPECT_EQ(model.occupiable_fraction(1), 1.0 / 80.0);
  // Charging the few-warp kernel on its blocks' SMs only drops the stall
  // penalty it paid across idle SMs.
  KernelStats few;
  few.warps = 17;
  few.lockstep_rounds = 1'000'000;
  const double grant = model.occupiable_fraction(few.warps);
  EXPECT_LT(model.kernel_seconds(few, grant),
            model.kernel_seconds(few, 1.0 / 3.0));
}

TEST(CostModel, OccupiableFractionOfEmptyLaunchIsTheDevice) {
  const CostModel model(test_params());
  // Zero warps keep a positive fraction: kernel_seconds rejects zero.
  EXPECT_EQ(model.occupiable_fraction(0), 1.0);
  EXPECT_EQ(model.kernel_seconds(KernelStats{}, model.occupiable_fraction(0)),
            0.0);
}

TEST(CostModel, CooperativeWidthsSplitTheLatencyHidingTargetEvenly) {
  // The default device hides latency at 20 warps on each of 80 SMs: a
  // target of 1600 warps, at most one block (8 warps) per chain.
  const CostModel model(DeviceParams{});
  using Widths = std::vector<std::uint32_t>;
  EXPECT_EQ(model.cooperative_widths(1), Widths(1, 8));
  EXPECT_EQ(model.cooperative_widths(100), Widths(100, 8));
  // 1600 = 6 * 256 + 64: the first 64 chains take the remainder.
  Widths uneven(64, 7);
  uneven.resize(256, 6);
  EXPECT_EQ(model.cooperative_widths(256), uneven);
  EXPECT_EQ(model.cooperative_widths(800), Widths(800, 2));
  EXPECT_EQ(model.cooperative_widths(1600), Widths(1600, 1));
  EXPECT_EQ(model.cooperative_widths(5000), Widths(5000, 1));
}

TEST(CostModel, InvalidFractionRejected) {
  const CostModel model(test_params());
  EXPECT_THROW(model.kernel_seconds(busy_stats(), 0.0), csaw::CheckError);
  EXPECT_THROW(model.kernel_seconds(busy_stats(), 1.5), csaw::CheckError);
}

}  // namespace
}  // namespace csaw::sim
